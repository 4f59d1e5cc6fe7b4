"""Restarted Taylor-series time propagation of the incompressible flow.

The solution of dv/dt = F(v) with F(v) = nu*lap(v) - P[(v.grad)v] is advanced
by its time-Taylor expansion around the current state,

    v(t0 + t) = sum_n c_n t^n,      c_0 = u,
    (n+1) c_{n+1} = nu * lap(c_n) - P[div T_n],   T_n = sum_{m=0}^{n} c_m c_{n-m},

which equals the advective form sum_m P[(c_m.grad) c_{n-m}] because every
c_m is divergence-free. T_n is symmetric in its indices and in m <-> n-m, so
``leray.cauchy_tensor`` multiplies each pair of coefficients once, pointwise
in physical space, and ``leray``'s kernel turns T_n into P[div T_n] with one
real-to-complex FFT and the 2/3-rule mask.

Coefficients are half spectra like every spectral field (see
``grid_spectral``), held together with their physical velocities and nothing
else: no gradients. Norms come from the weighted Parseval sum, and the
coefficients the builder makes are the ones ``TaylorExpansion`` holds.

Round-off floor: every mode of a new coefficient c_{n+1} of magnitude below
SERIES_FLOOR * eps * k_max * max|T_n| / (n+1) is zeroed (eps the float64
machine epsilon, k_max the dealias radius). The transform of T_n carries
round-off of about eps * max|T_n| in every mode and the divergence
multiplies it by at most k_max, so a mode below the bound is noise. On an
exact eigenflow (Taylor-Green, Beltrami) the projected nonlinear term
vanishes, and without the floor its residue grows order by order until it
sets the radius estimate and cuts the step. This is Krasny's filter
(J. Fluid Mech. 167, 1986); round-off bounds any analyticity estimate from
below (Sulem, Sulem & Frisch, J. Comput. Phys. 50, 1983). ``ns_rhs`` and the
RK4 oracle stay unfloored, so RK4 remains an independent check.

The expansion is used as a one-step integrator: ``step`` is one loop over
attempts, each accepting dt when some order N <= max_order has
||c_N|| dt^N <= tol ||u|| and dt is within half the ratio-test radius
estimate, and halving dt otherwise (at most 20 times); the series grows only
as far as the attempts read it. n! c_n reproduces the n-th generator power
applied to u, which is what the symbolic calculus cross-checks in one
dimension. ``steps`` composes steps, T(t_end) = T(dt_k)...T(dt_1), for this
and every integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

from .errors import RadiusCollapseError
from .grid_spectral import TWO_PI, Grid, SpectralVectorField, ifftn_real, parseval_sum
from .leray import _require_admissible, cauchy_tensor, nonlinear_hat, viscosity_value

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ORDER = 30
MAX_HALVINGS = 20
RADIUS_SAFETY = 0.5
# Multiplier of the round-off floor. Swept over 1e-4..256: Taylor-Green 2-D
# at 128^2 (nu 0.1 to t 0.5) takes one order-7 step from 2^-4 up, but 12 steps
# at 0.03 and 19 without the floor; the step from the random 64^3 field
# (seed 7, peak_k 3) moves by 1.8e-15, 3.6e-15, 7.6e-15 and 3.3e-14 relative
# at 0.25, 0.5, 1 and 4. 0.5 sits 8x above the lowest value that works.
SERIES_FLOOR = 0.5
_EPS = float(np.finfo(float).eps)

State = TypeVar("State")  # what ``steps`` advances: a field, or 1-D samples

@dataclass(frozen=True)
class TaylorExpansion:
    """Time-Taylor coefficients c_0..c_N of the flow around the state c_0."""

    coefficients: tuple[SpectralVectorField, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("expansion needs at least c_0")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def grid(self) -> Grid:
        return self.coefficients[0].grid


@dataclass(frozen=True)
class StepStats:
    """Bookkeeping for one accepted step. RK4 reports order 4 and leaves the
    truncation and radius estimates NaN: it does not estimate them."""

    order_used: int
    dt: float
    truncation_estimate: float = math.nan
    radius_estimate: float = math.nan

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"step dt must be positive, got {self.dt}")
        if self.truncation_estimate < 0.0:
            raise ValueError("truncation estimate must be nonnegative")


class _SeriesBuilder:
    """Incrementally grows the coefficient list.

    For each known coefficient we keep its half spectrum, its norm and its
    physical velocity, so producing c_{n+1} needs only ``leray``'s product
    tensor sum_m c_m c_{n-m}, one kernel call and one inverse transform.
    """

    def __init__(self, grid: Grid, u_hat: np.ndarray, nu: float):
        self.grid = grid
        self.nu = nu
        self.k_max = (TWO_PI / grid.length) * (grid.n // 3)  # the dealias radius
        self.coeffs: list[np.ndarray] = []
        self._phys: list[np.ndarray] = []
        self.norms: list[float] = []
        self._append(u_hat)

    def _append(self, c_hat: np.ndarray, floor: float = 0.0) -> None:
        """Keep ``c_hat`` with every mode of magnitude below ``floor`` zeroed
        in place; the mask reuses the |c|^2 array that the norm sums."""
        sq = np.abs(c_hat)
        sq *= sq
        if floor > 0.0:
            below = sq < floor * floor
            c_hat[below] = 0.0
            sq[below] = 0.0
        self.coeffs.append(c_hat)
        self.norms.append(math.sqrt(parseval_sum(self.grid, sq)))
        self._phys.append(ifftn_real(self.grid, c_hat))

    def grow(self) -> None:
        """Compute the next coefficient from the recursion."""
        grid = self.grid
        n = len(self.coeffs) - 1
        tensor = cauchy_tensor(self._phys, n)
        new = -self.nu * grid.ksq * self.coeffs[n] - nonlinear_hat(grid, tensor)
        new /= n + 1
        scale = max(tensor.max(), -tensor.min())
        self._append(new, SERIES_FLOOR * _EPS * self.k_max * scale / (n + 1))

    def evaluate(self, order: int, t: float) -> SpectralVectorField:
        """The series truncated after c_order, evaluated at t. The sum is
        formed in the storage of the last coefficient grown (c_0 is the
        caller's), so no array is allocated and the builder is spent."""
        last = self.coeffs[-1]
        acc = last if len(self.coeffs) > 1 else np.empty_like(last)
        return SpectralVectorField(self.grid, _horner(self.coeffs[: order + 1], t, acc))

    def expansion(self) -> TaylorExpansion:
        """Every coefficient as a field. Releases the physical velocities,
        so the builder is spent afterwards."""
        fields = tuple(SpectralVectorField(self.grid, c) for c in self.coeffs)
        self.coeffs, self._phys = [], []
        return TaylorExpansion(coefficients=fields)

    def order_within(self, bound: float, dt: float, max_order: int) -> int | None:
        """The first n <= max_order with ||c_n|| dt^n <= bound, growing the
        series as far as the search reaches; None when there is none."""
        for n in range(max_order + 1):
            if n == len(self.norms):
                self.grow()
            if self.norms[n] * dt**n <= bound:
                return n
        return None

    def radius(self, max_order: int) -> float:
        """The ratio-test radius once min(4, max_order + 1) coefficients
        exist; +inf while there are fewer than four."""
        while len(self.norms) < min(4, max_order + 1):
            self.grow()
        return _radius_from_norms(self.norms) if len(self.norms) >= 4 else math.inf


def _radius_from_norms(norms: list[float]) -> float:
    """Ratio-test radius: min of the last three ||c_n||/||c_{n+1}||."""
    if len(norms) < 4:
        raise ValueError("radius estimate needs at least 4 coefficients")
    ratios = []
    for n in range(len(norms) - 4, len(norms) - 1):
        lo, hi = norms[n], norms[n + 1]
        ratios.append(math.inf if hi == 0.0 else lo / hi)
    return min(ratios)


def taylor_coefficients(
    u: SpectralVectorField, nu: float, order: int
) -> TaylorExpansion:
    """Coefficients c_0..c_order of the series around the state ``u``."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    _require_admissible(u, "taylor_coefficients")
    builder = _SeriesBuilder(u.grid, u.data, viscosity_value(nu))
    for _ in range(order):
        builder.grow()
    return builder.expansion()


def evaluate(e: TaylorExpansion, t: float) -> SpectralVectorField:
    """Horner evaluation sum_n c_n t^n; t = 0 returns c_0 unchanged."""
    if t == 0.0:
        return e.coefficients[0]
    coeffs = [c.data for c in e.coefficients]
    return SpectralVectorField(e.grid, _horner(coeffs, t, np.empty_like(coeffs[-1])))


def _horner(coeffs: list[np.ndarray], t: float, acc: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] t^n, accumulated in ``acc`` (coeffs[-1] itself or an
    array not among the coefficients)."""
    acc[...] = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc *= t
        acc += c
    return acc


def estimate_radius(e: TaylorExpansion) -> float:
    """Empirical convergence radius from the trailing coefficient ratios.

    Returns +inf when the trailing coefficients vanish (polynomial-in-time
    flow); requires at least 4 coefficients.
    """
    return _radius_from_norms([c.l2_norm() for c in e.coefficients])


def step(
    u: SpectralVectorField,
    nu: float,
    dt: float,
    tol: float = DEFAULT_TOL,
    max_order: int = DEFAULT_MAX_ORDER,
) -> tuple[SpectralVectorField, StepStats]:
    """One adaptive series step of at most ``dt``.

    An attempt accepts dt when an order N <= max_order has
    ||c_N|| dt^N <= tol ||u|| and dt <= 0.5 * radius estimate (+inf with
    fewer than four coefficients); otherwise dt halves, at most 20 times.
    Reports the dt used; raises ``RadiusCollapseError`` once the halving
    budget is exhausted.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    nu_val = viscosity_value(nu)
    _require_admissible(u, "step")
    builder = _SeriesBuilder(u.grid, u.data, nu_val)
    bound = tol * u.l2_norm()
    for _ in range(MAX_HALVINGS + 1):
        order = builder.order_within(bound, dt, max_order)
        radius = builder.radius(max_order)
        if order is not None and dt <= RADIUS_SAFETY * radius:
            stats = StepStats(
                order_used=order,
                dt=dt,
                truncation_estimate=builder.norms[order] * dt**order,
                radius_estimate=radius,
            )
            return builder.evaluate(order, dt), stats
        dt *= 0.5

    raise RadiusCollapseError(
        "series step failed to meet its truncation bound after 20 halvings",
        radius_estimate=radius,
        dt_last=dt * 2.0,
    )


def fixed_step(dt: float, remaining: float) -> float:
    """The step a fixed-dt integrator takes with ``remaining`` time left: dt,
    or the whole remainder once it exceeds dt by no more than bookkeeping
    round-off (1e-6 relative), so the run ends without a sliver step."""
    return remaining if remaining <= dt * (1.0 + 1e-6) else dt


def steps(
    u: State, t_end: float, advance: Callable[[State, float], tuple[State, StepStats]]
) -> Iterator[tuple[float, State, StepStats]]:
    """Step from ``u`` to exactly ``t_end``, yielding (t, field, stats) after
    every step; ``advance(v, remaining) -> (v_next, stats)`` takes one step
    of at most ``remaining``."""
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end}")
    v = u
    remaining = t_end
    while remaining > 0.0:
        v, stats = advance(v, remaining)
        remaining -= stats.dt
        yield t_end - remaining, v, stats


def propagate(
    u: SpectralVectorField,
    nu: float,
    t_end: float,
    tol: float = DEFAULT_TOL,
    max_order: int = DEFAULT_MAX_ORDER,
) -> SpectralVectorField:
    """Advance ``u`` to exactly ``t_end`` by repeated series steps, each
    attempting the whole remaining interval. Iterate ``steps`` with ``step``
    to see every accepted step."""
    v = u
    for _, v, _ in steps(
        u, t_end, lambda w, dt: step(w, nu, dt, tol=tol, max_order=max_order)
    ):
        pass
    return v
