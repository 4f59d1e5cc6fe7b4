"""Pseudospectral incompressible Navier-Stokes on a periodic box, advanced in
time by a restarted Taylor (Lie) series propagator, with an exact
functional-derivative calculus for 1-D evolution equations and the
verification tooling that ties the two together.

Every public name loads its module on first use (PEP 562), through the one
table ``_EXPORTS``: ``from liens import a_power_u`` loads the symbolic
calculus and none of the solver, and the CLI loads only what it imports."""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module of the package that defines it.
_EXPORTS = {
    "AnalyticFlow": "reference_oracles",
    "ConfigError": "errors",
    "DiffMonomial": "operator_calculus",
    "DiffPoly": "operator_calculus",
    "FieldError": "errors",
    "Grid": "grid_spectral",
    "LiensError": "errors",
    "RadiusCollapseError": "errors",
    "RealVectorField": "grid_spectral",
    "SnapshotFormatError": "errors",
    "SolenoidalError": "errors",
    "SpectralScalarField": "grid_spectral",
    "SpectralVectorField": "grid_spectral",
    "StabilityError": "errors",
    "StepStats": "lie_propagator",
    "TimeSeriesRecord": "diagnostics",
    "a_power_u": "operator_calculus",
    "analytic_field": "reference_oracles",
    "apply_A": "operator_calculus",
    "compute_pressure": "leray",
    "dealias": "grid_spectral",
    "derivation_check": "operator_calculus",
    "derivative": "grid_spectral",
    "dissipativity_residual": "diagnostics",
    "divergence": "grid_spectral",
    "energy": "diagnostics",
    "energy_balance": "diagnostics",
    "enstrophy_norm": "diagnostics",
    "estimate_radius": "lie_propagator",
    "eval_diffpoly": "operator_calculus",
    "evaluate": "lie_propagator",
    "leray_project": "leray",
    "lie_advance": "lie_propagator",
    "ns_rhs": "leray",
    "parse_diffpoly": "operator_calculus",
    "propagate": "lie_propagator",
    "random_divfree": "reference_oracles",
    "read_snapshot": "grid_spectral",
    "rk4_propagate": "reference_oracles",
    "shell_spectrum": "diagnostics",
    "step": "lie_propagator",
    "steps": "lie_propagator",
    "taylor_coefficients": "lie_propagator",
    "to_physical": "grid_spectral",
    "to_spectral": "grid_spectral",
    "write_snapshot": "grid_spectral",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
