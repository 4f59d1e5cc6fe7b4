"""Restarted Taylor-series time propagation of the incompressible flow.

The solution of dv/dt = F(v) with F(v) = nu*lap(v) - P[(v.grad)v] is advanced
by its time-Taylor expansion around the current state,

    v(t0 + t) = sum_n c_n t^n,      c_0 = u,
    (n+1) c_{n+1} = nu * lap(c_n) - P[div T_n],   T_n = sum_{m=0}^{n} c_m c_{n-m},

which equals the advective form sum_m P[(c_m.grad) c_{n-m}] because every
c_m is divergence-free. ``leray.cauchy_component`` forms each stored
component of the symmetric T_n as one contraction over m of the stacked
physical velocities, and ``leray``'s kernel streams those components, one at
a time, into P[div T_n], each through one real-to-complex FFT and the
2/3-rule mask.

While a step grows the series it keeps one physical velocity per
coefficient, in one preallocated stack, and of the half spectra (see
``grid_spectral``) only the caller's c_0 and the last one, which the
recursion's viscous term needs; norms come from the weighted Parseval sum.
The step sums the series by Horner on the physical velocities and
transforms the sum once. ``taylor_coefficients`` collects each half
spectrum as it is made; those are the coefficients ``TaylorExpansion``
holds.

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

The expansion is used as a one-step integrator. ``step`` gives every order
N its largest admissible step h_N: within the request, within half the
ratio-test radius estimate of c_0..c_N, and with both of the last two
retained terms below the truncation bound, ||c_{N-1}|| h^{N-1} <= tol ||u||
and ||c_N|| h^N <= tol ||u|| (one term alone can sit low by chance and
admit too long a step). It takes the N that covers the request for the
least work, N grows plus N(N+1)/2 Cauchy pair products weighted by
PAIR_COST, per ceil(dt / h_N) equal steps (Jorba & Zou, Exp. Math. 14,
2005, choose the step from the last two coefficients the same way). The
series grows as far as that choice reads it: the four coefficients the
radius needs, then at most two past the best order so far unless a higher
order is predicted to do better, and never past an order whose h_N reaches
the request. A step below COLLAPSE_FLOOR of the request is no step: with
none left at max_order the analyticity margin has collapsed
(``RadiusCollapseError``). n! c_n reproduces the n-th generator power
applied to u, which is what the symbolic calculus cross-checks in one
dimension. ``steps`` composes steps, T(t_end) = T(dt_k)...T(dt_1), for this
and every integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import RadiusCollapseError
from .grid_spectral import (
    TWO_PI,
    Grid,
    SpectralVectorField,
    fftn_forward,
    ifftn_real,
    parseval_sum,
)
from .leray import (
    KernelBuffers,
    _require_admissible,
    cauchy_component,
    nonlinear_rhs,
    viscosity_value,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ORDER = 30
RADIUS_SAFETY = 0.5
# A step shorter than this fraction of the request is a collapse of the
# analyticity margin.
COLLAPSE_FLOOR = 2.0**-20
# Cost of one Cauchy pair product in units of a grow's fixed cost (the
# transforms and the projection): at 64^3 one grow takes about 60 ms plus
# 2.2 ms per pair.
PAIR_COST = 1.0 / 27.0
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
    """Bookkeeping for one accepted step. ``coefficients_built`` counts the
    grows the step made, look-ahead included. RK4 reports order 4, builds no
    coefficient and leaves the truncation and radius estimates NaN: it does
    not estimate them."""

    order_used: int
    dt: float
    truncation_estimate: float = math.nan
    radius_estimate: float = math.nan
    coefficients_built: int = 0

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"step dt must be positive, got {self.dt}")
        if self.truncation_estimate < 0.0:
            raise ValueError("truncation estimate must be nonnegative")


class _SeriesBuilder:
    """Incrementally grows the series.

    The physical velocities of the known coefficients sit in one stack,
    shaped (capacity, dim, *grid.shape); beside it the builder keeps only the
    caller's ``u_hat``, the half spectrum of the last coefficient, the
    norms, the viscous factor -nu |k|^2 and the kernel's reusable buffers.
    Producing c_{n+1} is one kernel call, which streams ``leray``'s Cauchy
    sum over the stack component by component, and one inverse transform
    into the next slot. Every coefficient's half spectrum is a fresh array:
    ``taylor_coefficients`` keeps each one.

    The capacity is min(max_order, DEFAULT_MAX_ORDER) + 1 and doubles, up to
    max_order + 1, only if a step grows past it; ``np.empty`` commits pages
    as slots are written, so a low-order step touches only what it uses.
    """

    def __init__(self, grid: Grid, u_hat: np.ndarray, nu: float, max_order: int):
        self.grid = grid
        self.max_order = max_order
        self.k_max = (TWO_PI / grid.length) * (grid.n // 3)  # the dealias radius
        self.u_hat = u_hat
        self.norms: list[float] = []
        self.viscous = -nu * grid.ksq
        self.work = KernelBuffers(grid)
        capacity = min(max_order, DEFAULT_MAX_ORDER) + 1
        self.stack = np.empty((capacity, grid.dim, *grid.shape))
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
        norm = math.sqrt(parseval_sum(self.grid, sq))
        del sq  # freed before the inverse transform allocates
        n = len(self.norms)
        if n == len(self.stack):
            grown = np.empty((min(2 * n, self.max_order + 1), *self.stack.shape[1:]))
            grown[:n] = self.stack
            self.stack = grown
        self.stack[n] = ifftn_real(self.grid, c_hat)
        self.norms.append(norm)
        self.last = c_hat

    def grow(self) -> None:
        """Compute the next coefficient from the recursion."""
        n = len(self.norms) - 1
        new = np.empty_like(self.last)
        product = partial(cauchy_component, self.stack, n)
        scale = nonlinear_rhs(self.grid, product, self.viscous, self.last, new, self.work)
        new /= n + 1
        self._append(new, SERIES_FLOOR * _EPS * self.k_max * scale / (n + 1))

    def evaluate(self, order: int, t: float) -> SpectralVectorField:
        """The series truncated after c_order, evaluated at t: Horner on the
        physical velocities, accumulated in ``stack[order]`` (the builder is
        spent afterwards), then one forward transform, masked so that every
        mode outside the 2/3 ball is exactly zero. Order 0 returns a copy of
        ``u_hat``."""
        if order == 0:
            return SpectralVectorField(self.grid, self.u_hat.copy())
        v = _horner(self.stack[: order + 1], t, self.stack[order])
        out = fftn_forward(self.grid, v)
        out *= self.grid.dealias_keep
        return SpectralVectorField(self.grid, out)

    def radius(self, n: int) -> float:
        """The ratio-test radius of c_0..c_max(n, 3), +inf while there are
        fewer than four coefficients."""
        if len(self.norms) < 4:
            return math.inf
        return _radius_from_norms(self.norms[: max(n, 3) + 1])

    def reach(self, n: int, bound: float, dt: float) -> float:
        """h_n: the largest step <= dt and <= RADIUS_SAFETY * radius(n) with
        ||c_m|| h^m <= bound for m = n - 1 and m = n; 0 when there is none
        (a NaN radius or norm admits no step)."""
        radius = self.radius(n)
        h = min(dt, RADIUS_SAFETY * radius) if radius >= 0.0 else 0.0
        for m in range(max(n - 1, 0), n + 1):
            h = min(h, _term_reach(self.norms[m], m, bound))
        return h


def _term_reach(norm: float, m: int, bound: float) -> float:
    """The largest h with norm * h^m <= bound: +inf or 0 for m = 0, 0 for a
    NaN or infinite norm."""
    if m == 0 or norm == 0.0:
        return math.inf if norm <= bound else 0.0
    return (bound / norm) ** (1.0 / m) if norm > 0.0 else 0.0


def _step_cost(order: int) -> float:
    """Work of one step of ``order``, in grows: the grows plus their Cauchy
    pair products at PAIR_COST each."""
    return order + PAIR_COST * order * (order + 1) / 2


def _cover_cost(order: int, h: float, dt: float) -> float:
    """Work of covering dt with steps of ``order`` no longer than h; +inf
    when h is below the collapse floor."""
    if not h >= COLLAPSE_FLOOR * dt:
        return math.inf
    return _step_cost(order) * math.ceil(dt / h)


def _may_improve(reach: list[float], best_cost: float, dt: float, max_order: int) -> bool:
    """Whether an order above the last one could still cover dt for less than
    ``best_cost``, extrapolating h_n linearly from its last two values."""
    n = len(reach) - 1
    slope = reach[n] - reach[n - 1]
    if not slope > 0.0:
        return False
    for order in range(n + 1, max_order + 1):
        if _step_cost(order) >= best_cost:
            break
        if _cover_cost(order, min(dt, reach[n] + slope * (order - n)), dt) < best_cost:
            return True
    return False


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
    builder = _SeriesBuilder(u.grid, u.data, viscosity_value(nu), order)
    coefficients = [u]
    for _ in range(order):
        builder.grow()
        coefficients.append(SpectralVectorField(u.grid, builder.last))
    return TaylorExpansion(coefficients=tuple(coefficients))


def evaluate(e: TaylorExpansion, t: float) -> SpectralVectorField:
    """Horner evaluation sum_n c_n t^n; t = 0 returns c_0 unchanged."""
    if t == 0.0:
        return e.coefficients[0]
    coeffs = [c.data for c in e.coefficients]
    return SpectralVectorField(e.grid, _horner(coeffs, t, np.empty_like(coeffs[-1])))


def _horner(coeffs: Sequence[np.ndarray], t: float, acc: np.ndarray) -> np.ndarray:
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

    Every order N <= max_order gets its largest admissible step h_N: at most
    dt and 0.5 * the ratio-test radius of c_0..c_N (+inf with fewer than
    four coefficients), with ||c_{N-1}|| h^{N-1} <= tol ||u|| and
    ||c_N|| h^N <= tol ||u||. The step takes the order that covers dt for
    the least work, ``_step_cost(N)`` (N grows and N(N+1)/2 pair products
    weighted by PAIR_COST) times ceil(dt / h_N) steps, and evens its length
    to dt / ceil(dt / h_N) so that no sliver is left. The series grows the
    four coefficients the radius needs and then at most two past the best
    order so far, further only while a linear extrapolation of h_N says a
    higher order could still do better; it stops as soon as some h_N
    reaches dt. Steps below COLLAPSE_FLOOR * dt are not admissible: with none
    left at max_order, ``RadiusCollapseError`` is raised.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    nu_val = viscosity_value(nu)
    _require_admissible(u, "step")
    builder = _SeriesBuilder(u.grid, u.data, nu_val, max_order)
    bound = tol * u.l2_norm()
    while len(builder.norms) < min(4, max_order + 1):
        builder.grow()
    reach: list[float] = []
    best, best_cost = -1, math.inf
    for n in range(max_order + 1):
        if n == len(builder.norms):
            builder.grow()
        reach.append(builder.reach(n, bound, dt))
        cost = _cover_cost(n, reach[n], dt)
        if cost < best_cost:
            best, best_cost = n, cost
        if reach[n] >= dt:
            break
        if best >= 0 and n >= best + 2 and not _may_improve(reach, best_cost, dt, max_order):
            break

    if best < 0:
        raise RadiusCollapseError(
            f"no series order up to max_order {max_order} admits a step of at least 2^-20"
            f" of the requested dt {dt:.6e}; raise max_order or tol, or shorten the request",
            radius_estimate=builder.radius(len(builder.norms) - 1),
            dt_last=dt * COLLAPSE_FLOOR,
        )
    h = dt / math.ceil(dt / reach[best])
    stats = StepStats(
        order_used=best,
        dt=h,
        truncation_estimate=builder.norms[best] * h**best,
        radius_estimate=builder.radius(best),
        coefficients_built=len(builder.norms) - 1,
    )
    return builder.evaluate(best, h), stats


def fixed_step(dt: float, remaining: float) -> float:
    """The step a fixed-dt integrator takes with ``remaining`` time left: dt,
    or the whole remainder once it exceeds dt by no more than bookkeeping
    round-off (1e-6 relative), so the run ends without a sliver step."""
    return remaining if remaining <= dt * (1.0 + 1e-6) else dt


def rk4_update(
    u: np.ndarray, dt: float, k1: np.ndarray, rhs: Callable, buf: np.ndarray
) -> np.ndarray:
    """The classical RK4 update u + (dt/6) (k1 + 2 k2 + 2 k3 + k4), a new
    array, from the slope k1 at u; ``rhs(x, out)`` writes the slope at x into
    out, and ``buf`` holds (stage, k2, k3, k4). Each operation is the one the
    formula spells, in its order, with its intermediates written in place."""
    stage, k2, k3, k4 = buf
    for k_in, h, k_out in ((k1, 0.5 * dt, k2), (k2, 0.5 * dt, k3), (k3, dt, k4)):
        np.add(u, np.multiply(h, k_in, out=stage), out=stage)
        rhs(stage, k_out)
    total = np.add(k1, np.multiply(2.0, k2, out=k2), out=k2)
    total += np.multiply(2.0, k3, out=k3)
    total += k4
    total *= dt / 6.0
    return u + total


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


def final_state(u: State, t_end: float, advance: Callable) -> State:
    """The state ``steps(u, t_end, advance)`` ends at: ``u`` when t_end is 0."""
    v = u
    for _, v, _ in steps(u, t_end, advance):
        pass
    return v


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
    return final_state(u, t_end, lambda w, dt: step(w, nu, dt, tol=tol, max_order=max_order))
