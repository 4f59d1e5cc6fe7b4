"""Pseudospectral incompressible Navier-Stokes on a periodic box, advanced in
time by a restarted Taylor (Lie) series propagator, with an exact
functional-derivative calculus for 1-D evolution equations and the
verification tooling that ties the two together."""

from .diagnostics import (
    TimeSeriesRecord,
    dissipativity_residual,
    energy,
    energy_balance,
    enstrophy_norm,
    shell_spectrum,
)
from .errors import (
    ConfigError,
    FieldError,
    LiensError,
    RadiusCollapseError,
    SnapshotFormatError,
    SolenoidalError,
    StabilityError,
)
from .grid_spectral import (
    Grid,
    RealVectorField,
    SpectralScalarField,
    SpectralVectorField,
    dealias,
    derivative,
    divergence,
    read_snapshot,
    to_physical,
    to_spectral,
    write_snapshot,
)
from .leray import compute_pressure, leray_project, ns_rhs
from .lie_propagator import (
    StepStats,
    estimate_radius,
    evaluate,
    lie_advance,
    propagate,
    step,
    steps,
    taylor_coefficients,
)
from .reference_oracles import (
    AnalyticFlow,
    analytic_field,
    random_divfree,
    rk4_propagate,
)

__version__ = "0.1.0"

# The symbolic calculus loads on first use, so that the solver and the CLI do
# not import it.
_SYMBOLIC = frozenset({
    "DiffMonomial",
    "DiffPoly",
    "a_power_u",
    "apply_A",
    "derivation_check",
    "eval_diffpoly",
    "parse_diffpoly",
})


def __getattr__(name: str):
    if name in _SYMBOLIC:
        from . import operator_calculus

        return getattr(operator_calculus, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AnalyticFlow",
    "ConfigError",
    "DiffMonomial",
    "DiffPoly",
    "FieldError",
    "Grid",
    "LiensError",
    "RadiusCollapseError",
    "RealVectorField",
    "SnapshotFormatError",
    "SolenoidalError",
    "SpectralScalarField",
    "SpectralVectorField",
    "StabilityError",
    "StepStats",
    "TimeSeriesRecord",
    "a_power_u",
    "analytic_field",
    "apply_A",
    "compute_pressure",
    "dealias",
    "derivation_check",
    "derivative",
    "dissipativity_residual",
    "divergence",
    "energy",
    "energy_balance",
    "enstrophy_norm",
    "estimate_radius",
    "eval_diffpoly",
    "evaluate",
    "leray_project",
    "lie_advance",
    "ns_rhs",
    "parse_diffpoly",
    "propagate",
    "random_divfree",
    "read_snapshot",
    "rk4_propagate",
    "shell_spectrum",
    "step",
    "steps",
    "taylor_coefficients",
    "to_physical",
    "to_spectral",
    "write_snapshot",
]
