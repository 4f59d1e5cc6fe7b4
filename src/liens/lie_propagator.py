"""Restarted Taylor-series time propagation of the incompressible flow.

The solution of dv/dt = F(v) with F(v) = nu*lap(v) - P[(v.grad)v] is advanced
by its time-Taylor expansion around the current state,

    v(t0 + t) = sum_n c_n t^n,      c_0 = u,
    (n+1) c_{n+1} = nu * lap(c_n) - P[div T_n],   T_n = sum_{m=0}^{n} c_m c_{n-m},

which equals the advective form sum_m P[(c_m.grad) c_{n-m}] because every
c_m is divergence-free. One ``leray.Kernel`` per run streams the stored
components of the symmetric T_n, each formed by ``leray.cauchy_component``
as one contraction over m of the stacked physical velocities of c_0..c_n,
into P[div T_n], each through one real-to-complex FFT pruned to the 2/3-rule
dealias ball; the projection and the viscous term act on the ball alone. At
n = 0 the stack is c_0 alone and c_1 = F(u): ``leray.ns_rhs`` is that call.

Every c_n past c_0 is zero outside the 2/3-rule dealias ball by
construction, and c_0, an admissible field, up to round-off, so a step reads
every coefficient from the ball and keeps each one there, a compact ball,
complex128 but for the late orders (below); the floor and the norms, the
weighted Parseval sum, act on the ball. Beside them sits one preallocated
stack of physical velocities, into which c_n is transformed, by the inverse
pruned to the ball, only when the Cauchy sum of c_{n+1} needs it, so the
look-ahead coefficients that end a step are never transformed. The step
sums the series by Horner on the balls and scatters the sum into a half
spectrum, zero outside the ball: the sum takes no transform, and every
step's output, an order-0 one too, is a fresh field masked to the ball.
``taylor_coefficients`` scatters each coefficient into a half spectrum as
it is made and returns them as a tuple c_0..c_N: a truncated Lie series is
nothing more than its coefficients c_n = A^n u / n!.

Precision: a step's last orders need only a few digits, since order n adds
||c_n|| h^n, down to tol * ||u||, to the step. At the first order n with
eps_32 ||c_n|| H^n <= FLOAT32_BUDGET * tol * ||u|| (eps_32 the float32
machine epsilon, H = min(dt, RADIUS_SAFETY * radius), the longest step the
controller could still grant) a step casts its stack once to float32, in
place, into the first half of its float64 buffer, gives back the pages
that held only float64 slots, and runs every later Cauchy contraction and
forward transform of T_n in float32 (Higham & Mary, Acta Numerica 31,
2022); every later inverse transform writes float32 slots, each pass of it
computed in complex128 and rounded (``grid_spectral``). The projection,
the viscous term and the norms stay complex128, and so does every
coefficient as its grow makes it, so every coefficient and norm, and
with them every step decision, is that of complex128 storage. Once the
next grow has read c_n for its viscous term, only the step's sum reads it,
so a c_n transformed into a float32 slot is kept as that slot's input, the
complex64 ball of c_n times the slot's power of two, in half the bytes; the
switch rule bounds its rounding as it bounds the slot's. The sum runs
Horner in complex128, un-scales each complex64 ball exactly, and
Leray-projects the result on the ball, because rounding each component on
its own leaves k.c nonzero at float32's epsilon; a sum of complex128 balls
alone, a step that never switched, is not projected. Each float32 slot is
scaled by an exact power of two (``_SeriesBuilder.lower_precision``) that
keeps it within float32's range wherever float64's holds; a slot that
would not fit refuses the switch, or ends it for the rest of the step.
``taylor_coefficients``, ``ns_rhs`` and RK4 never switch.

Round-off floor: every mode of a new coefficient c_{n+1}, all its components
together, of magnitude below SERIES_FLOOR * eps * k_max * max|T_n| / (n+1) is
zeroed (eps the machine epsilon of the precision T_n was formed in, k_max the
dealias radius): one rule in both precisions, which zeroes no single
component and so keeps every coefficient solenoidal by construction. The
transform of T_n carries round-off of about eps * max|T_n| in every mode and
the divergence multiplies it by at most k_max, so a mode below the bound is
noise. On an exact eigenflow (Taylor-Green, Beltrami) the projected nonlinear
term vanishes, and without the floor its residue grows order by order until
it sets the radius estimate and cuts the step. This is Krasny's filter (J.
Fluid Mech. 167, 1986); round-off bounds any analyticity estimate from below
(Sulem, Sulem & Frisch, J. Comput. Phys. 50, 1983). ``ns_rhs`` and the RK4
oracle stay unfloored, so RK4 remains an independent check.

The expansion is used as a one-step integrator. ``lie_advance`` checks a
run's parameters, builds its kernel once and chooses the order and length
of each step; its docstring states that policy in full. n! c_n reproduces
the n-th generator power applied to u, which is what the symbolic calculus
cross-checks in one dimension. ``steps`` composes steps, T(t_end) =
T(dt_k)...T(dt_1), for this and every integrator.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import (
    RadiusCollapseError,
    finite_nonnegative,
    nonnegative_count,
    positive_finite,
)
from .grid_spectral import (
    Grid,
    SpectralVectorField,
    gather_ball,
    ifftn_real,
    parseval_sum,
    scatter_ball,
)
from .leray import Kernel, _require_admissible, project_ball

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
# A step runs its later grows in float32 from the first order whose term,
# rounded at float32's epsilon, moves the step by at most this fraction of
# tol * ||u|| (``_SeriesBuilder.lower_precision``). Swept over 0.01..1 on the
# five flows of tools/series_accuracy.py at tol 1e-10: 1 moves the steps of
# the 2-D nu 0.01 flow and ends it 1.9e-9 from a tol-1e-13 run; 0.3 and 0.1
# keep every step, at most 4.7e-10 and 1.3e-10 off; 0.03 and 0.01 at most
# 5.4e-11 and 3.3e-11 off. Of rand3d-lie's 30 grows, 19, 16, 15 and 12 run in
# float32 at 0.3, 0.1, 0.03 and 0.01.
FLOAT32_BUDGET = 0.1
# A scaled float32 slot stays below 2^FLOAT32_RANGE, so that a Cauchy sum of
# up to 2^15 products of two slots, and a transform pass over up to 2^16
# points of such a sum, stay below float32's 2^128; the budget must stay
# above 2^-FLOAT32_RANGE of ||u||, far above float32's smallest normals.
FLOAT32_RANGE = 48
_EPS = float(np.finfo(float).eps)
_EPS32 = float(np.finfo(np.float32).eps)

State = TypeVar("State")  # what ``steps`` advances: a field, or 1-D samples

@dataclass(frozen=True)
class StepStats:
    """Bookkeeping for one accepted step. ``coefficients_built`` counts the
    grows the step made, look-ahead included, ``float32_grows`` those of
    them made in float32, and ``reach`` holds h_0..h_N of every order N the
    step read (``lie_advance``). RK4 reports order 4, builds no coefficient,
    reads no order and leaves the truncation and radius estimates NaN: it
    does not estimate them."""

    order_used: int
    dt: float
    truncation_estimate: float = math.nan
    radius_estimate: float = math.nan
    coefficients_built: int = 0
    float32_grows: int = 0
    reach: tuple[float, ...] = ()

    def __post_init__(self):
        positive_finite("step dt", self.dt)
        if self.truncation_estimate < 0.0:
            raise ValueError("truncation estimate must be nonnegative")


class _SeriesBuilder:
    """Incrementally grows the series.

    The builder reads every coefficient, c_0 included, from the dealias ball
    and keeps each one there (``Grid.ball_shape``), complex128 as it is made,
    with the round-off floor and the Parseval norm applied there, and
    complex64 once it has been transformed into a float32 slot (``grow``);
    beside them sit the norms, the run's ``leray.Kernel``, which holds the
    viscous table and the reusable buffers, and one stack of physical
    velocities, shaped (capacity, dim, *grid.shape). Producing c_{n+1} is one
    inverse transform of c_n's ball into stack slot n and one kernel call,
    which streams ``leray``'s Cauchy sum over the stack component by
    component. So coefficient n is transformed only when grow n + 1 needs
    it: the look-ahead coefficient that ends a step never takes a slot. Every
    coefficient's ball is a fresh array: ``taylor_coefficients``, which
    never switches, keeps each one.

    The stack starts in float64. ``lower_precision`` may cast it once to
    float32, in place: the float32 stack is a view of the float64 buffer,
    so a step holds one stack buffer, which ``evaluate`` releases, and the
    switch gives back the buffer's pages that held only float64 slots
    (``_restack``). Each float32 slot m is scaled by the exact power of two
    2^(e_s + m e_r) held in ``shift`` = (e_s, e_r); every later grow then
    writes its velocity into a float32 slot, contracts and transforms back
    in float32, and its T_n comes out scaled by 2^(2 e_s + n e_r), which
    the kernel call removes. ``shift`` is None while the step may still
    switch and False once a slot that would not fit has sent the stack back
    to float64 for good.

    The capacity is min(max_order, DEFAULT_MAX_ORDER) + 1 and doubles, up to
    max_order + 1, only if a step grows past it. Every stack is a private
    anonymous mapping of its own (``_mapped_stack``), whose pages are
    committed as slots are written, so a low-order step touches only what
    it uses. With the switch giving pages back, the float64 slots before it
    set a step's peak: ``rand3d-lie`` (64^3) peaks after step 1's last
    float64 grow, its 9th, at 131.0 MiB in ``tools/step_memory.py``'s seed-7
    trace and 130.7 MiB in ``BENCH_37.json`` (136.5 MiB, after the step's
    last grow, when the switch kept the float64 pages).
    """

    def __init__(self, kernel: Kernel, u_hat: np.ndarray, max_order: int):
        grid = self.grid = kernel.grid
        self.max_order = max_order
        self.k_max = float(grid.k_1d[grid.ball_radius])  # the dealias radius
        # c_0 is read from its ball like every other coefficient: round-off
        # that an admissible u_hat carries outside it enters no result.
        ball = np.empty((grid.dim, *grid.ball_shape), dtype=np.complex128)
        self.balls = [gather_ball(grid, u_hat, ball)]
        self.norms = [math.sqrt(parseval_sum(grid, _squares(ball), ball=True))]
        self.kernel = kernel
        # A stack per step: kept for a whole rand3d-lie run, it raised peak RSS 188 -> 217 MiB.
        capacity = min(max_order, DEFAULT_MAX_ORDER) + 1
        self.stack = _mapped_stack((capacity, grid.dim, *grid.shape), np.float64)
        self.shift: tuple[int, int] | bool | None = None
        self.exponents: dict[int, int] = {}  # n -> e of each complex64 ball, c_n times 2^e
        self.float32_grows = 0
        # max|c(x)| <= this times ||c||: Cauchy-Schwarz over the full-spectrum
        # modes of the ball, which the volume-weighted Parseval norm counts.
        self.peak_per_norm = math.sqrt(2 * math.prod(grid.ball_shape) / grid.volume)

    def _exponent(self, m: int, shift) -> int:
        """log2 of the scale of stack slot m under ``shift`` (0 in float64)."""
        return shift[0] + m * shift[1] if shift else 0

    def _fits(self, m: int, shift: tuple[int, int]) -> bool:
        """Whether slot m, scaled by ``shift``, stays below 2^FLOAT32_RANGE,
        bounding its largest value by its norm (``peak_per_norm``)."""
        bound = self.norms[m] * self.peak_per_norm
        return (math.isfinite(bound)
                and math.frexp(bound)[1] + self._exponent(m, shift) <= FLOAT32_RANGE)

    def _restack(self, capacity: int, shift) -> None:
        """Write the filled slots into a stack of ``capacity`` slots, float32
        scaled by ``shift`` or float64 unscaled (None, False): each by one
        exact power of two in float64, rounded once to the new precision.
        The switch to float32 at unchanged capacity writes into a float32
        view of the float64 buffer, slot by slot in ascending order: float32
        slot m lies inside float64 slot m // 2, already read for m >= 1, and
        slot 0, which overlaps its own source, is cast in pieces that each
        lie below what they read (``_pieces_below``), so numpy copies one
        element of it. The switch then gives back, by
        ``madvise(MADV_DONTNEED)``, the whole pages between the end of the
        float32 slots and the end of the float64 ones, which later float32
        slots commit again as they are written. The way back to float64 and
        a doubling allocate a new mapping (``_mapped_stack``)."""
        old, filled = self.stack, len(self.norms) - 1
        in_place = shift and not self.shift and capacity == len(old)
        if in_place:
            self.stack = old.view(np.float32).reshape(2 * capacity, *old.shape[1:])[:capacity]
        else:
            self.stack = _mapped_stack((capacity, *old.shape[1:]),
                                       np.float32 if shift else np.float64)
        for m in range(filled):
            source, target = old[m].reshape(-1), self.stack[m].reshape(-1)
            e = self._exponent(m, shift) - self._exponent(m, self.shift)
            for a, b in _pieces_below(target.size) if in_place and m == 0 else [(0, target.size)]:
                np.ldexp(source[a:b], e, out=target[a:b], dtype=np.float64, casting="same_kind")
        if in_place:  # give back the pages that held only cast float64 slots
            page = mmap.PAGESIZE
            start = -(-self.stack[:filled].nbytes // page) * page
            end = old[:filled].nbytes // page * page
            if end > start:
                old.base.madvise(mmap.MADV_DONTNEED, start, end - start)
        self.shift = shift

    def lower_precision(self, n: int, bound: float, dt: float) -> None:
        """Switch every later grow of the step to float32 if c_n's term,
        rounded at float32's epsilon, changes no step by more than
        FLOAT32_BUDGET * ``bound``: eps_32 ||c_n|| H^n <= FLOAT32_BUDGET *
        bound, H = ``longest(n, dt)``. The scale is 2^e_s ~ 1 / max|c_0(x)|
        and 2^e_r, the power of two at or below H, per order, so slot m holds
        about c_m's term at H over max|c_0|. The switch is refused when a
        filled slot would not fit (``_fits``) or when the budget lies below
        2^-FLOAT32_RANGE of ||c_0||."""
        h = self.longest(n, dt)
        if not (0.0 < h <= _term_reach(self.norms[n], n, FLOAT32_BUDGET * bound / _EPS32)
                and FLOAT32_BUDGET * bound >= math.ldexp(self.norms[0], -FLOAT32_RANGE)):
            return
        shift = (-math.frexp(self.norms[0] * self.peak_per_norm)[1], math.frexp(h)[1] - 1)
        if all(self._fits(m, shift) for m in range(len(self.norms) - 1)):
            self._restack(len(self.stack), shift)

    def _transform_last(self) -> np.ndarray:
        """Write the physical velocity of the last coefficient, c_n, into
        stack slot n, at the stack's precision and scale, doubling the stack
        first if it is full; a float32 stack that slot n would not fit goes
        back to float64 first. Returns the ball transformed: c_n's own in
        float64, or in float32 a new complex64 ball, c_n times 2^e with e =
        ``_exponent(n, shift)``, rounded once."""
        n = len(self.norms) - 1
        capacity = len(self.stack) if n < len(self.stack) else min(2 * n, self.max_order + 1)
        shift = self.shift if not self.shift or self._fits(n, self.shift) else False
        if capacity > len(self.stack) or shift != self.shift:
            self._restack(capacity, shift)
        ball = self.balls[n]
        if self.shift:  # c_n times its slot's power of two, rounded once
            ball = np.empty(ball.shape, np.complex64)
            np.ldexp(self.balls[n].view(np.float64), self._exponent(n, self.shift),
                     out=ball.view(np.float32), casting="same_kind")
        ifftn_real(self.grid, ball, ball=True, out=self.stack[n])
        return ball

    def grow(self) -> None:
        """Compute the next coefficient from the recursion, keeping it with
        every mode below the round-off floor zeroed, all its components
        together (the module docstring), eps that of the stack's precision.
        The kernel call removes a float32 stack's power of two from T_n; the
        mask reuses the |c|^2 array that the norm sums. The new ball is
        complex128. Once the kernel has read c_n's ball for the viscous
        term, only the sum reads c_n, so in float32 the grow keeps slot n's
        complex64 input in its place, with its exponent in ``exponents``:
        ``shift`` may later turn False, and ``_exponent`` with it."""
        n = len(self.norms) - 1
        slot_input = self._transform_last()
        new = np.empty_like(self.balls[n])
        e = self._exponent(0, self.shift) + self._exponent(n, self.shift)
        scale = self.kernel.apply(self.stack, n, self.balls[n], new, e)
        new /= n + 1
        if self.shift:  # only the sum reads c_n from here on
            self.balls[n], self.exponents[n] = slot_input, self._exponent(n, self.shift)
            eps = _EPS32
            self.float32_grows += 1
        else:
            eps = _EPS
        floor = SERIES_FLOOR * eps * self.k_max * scale / (n + 1)
        sq = _squares(new)
        if floor > 0.0:
            below = sq.sum(axis=0) < floor * floor
            new[..., below] = 0.0
            sq[..., below] = 0.0
        self.norms.append(math.sqrt(parseval_sum(self.grid, sq, ball=True)))
        self.balls.append(new)

    def evaluate(self, order: int, t: float) -> SpectralVectorField:
        """The series truncated after c_order, evaluated at t: Horner on the
        coefficient balls in a fresh complex128 ball, then scattered into a
        fresh half spectrum, zero outside the dealias ball. Order 0 returns
        c_0's ball so scattered. Each complex64 ball is un-scaled exactly by
        its 2^-e into one reused complex128 ball before it is added; a sum
        that holds one is Leray-projected on the ball, through the kernel's
        two scratch balls, because each component was rounded on its own.
        A sum of complex128 balls alone is not projected. The builder is
        spent afterwards: it releases its stack, and with it the stack's
        mapping, before the sum allocates."""
        self.stack = None
        grid = self.grid
        acc = np.empty((grid.dim, *grid.ball_shape), dtype=np.complex128)
        switched = any(n <= order for n in self.exponents)
        term = np.empty_like(acc) if switched else None

        def exact(n: int) -> np.ndarray:
            """c_n in complex128: a complex64 ball is un-scaled into ``term``."""
            if n not in self.exponents:
                return self.balls[n]
            np.ldexp(self.balls[n].view(np.float32), -self.exponents[n],
                     out=term.view(np.float64), dtype=np.float64)
            return term

        _horner((exact(n) for n in range(order, -1, -1)), t, acc)
        if switched:
            project_ball(grid, acc, (self.kernel.k_dot_w, self.kernel.term))
        out = np.empty((grid.dim, *grid.spectral_shape), dtype=np.complex128)
        return SpectralVectorField(grid, scatter_ball(grid, acc, out))

    def radius(self, n: int) -> float:
        """The ratio-test radius of c_0..c_max(n, 3), +inf while there are
        fewer than four coefficients."""
        if len(self.norms) < 4:
            return math.inf
        return _radius_from_norms(self.norms[: max(n, 3) + 1])

    def longest(self, n: int, dt: float) -> float:
        """The longest step ``reach(n, ...)`` could grant: min(dt,
        RADIUS_SAFETY * radius(n)), 0 for a NaN radius."""
        radius = self.radius(n)
        return min(dt, RADIUS_SAFETY * radius) if radius >= 0.0 else 0.0

    def reach(self, n: int, bound: float, dt: float) -> float:
        """h_n: the largest step <= ``longest(n, dt)`` with ||c_m|| h^m <=
        bound for m = n - 1 and m = n; 0 when there is none (a NaN radius or
        norm admits no step)."""
        h = self.longest(n, dt)
        for m in range(max(n - 1, 0), n + 1):
            h = min(h, _term_reach(self.norms[m], m, bound))
        return h

    def ceilings(self, n: int, bound: float, dt: float) -> tuple[float, float]:
        """The bounds on h_{n+1} and h_{n+2} that the norms of c_0..c_n give
        (``lie_advance`` states them): a ratio r_k with k < 0 bounds nothing,
        and no ratio bounds a series of fewer than four coefficients, whose
        radius is +inf."""
        r = [_ratio(self.norms, k) if len(self.norms) >= 4 else math.inf
             for k in (n - 2, n - 1)]
        return (min(dt, RADIUS_SAFETY * min(r), _term_reach(self.norms[n], n, bound)),
                min(dt, RADIUS_SAFETY * r[1]))


def _mapped_stack(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array of ``shape`` in a private anonymous mapping of
    its own, its ``base``: pages are committed as they are written, and
    ``madvise`` can give them back. A shared mapping would keep what it
    gives back, as shared memory that RSS no longer counts."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    mapping = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.ndarray(shape, dtype, buffer=mapping)


def _pieces_below(size: int) -> list[tuple[int, int]]:
    """Element ranges [0, 1), [1, 2), [2, 4), ... covering ``size``: cast in
    this order from float64 into a float32 view of the same buffer, every
    piece after the first is written below the float64 elements it reads,
    so numpy's overlap check copies one element, the first piece's."""
    pieces, a = [(0, 1)], 1
    while a < size:
        pieces.append((a, min(2 * a, size)))
        a *= 2
    return pieces


def _squares(c: np.ndarray) -> np.ndarray:
    """|c|^2 as a new real array."""
    sq = np.abs(c)
    sq *= sq
    return sq


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


def _may_improve(reach: list[float], known: tuple[float, ...], cap: float, best_cost: float,
                 dt: float, max_order: int) -> bool:
    """Whether an order above the last one read, n, could still cover dt for
    less than ``best_cost``: h_{n+1}, h_{n+2}, ... is ``known`` in turn, and
    past it extrapolated linearly from the last two h_n, up to ``cap``."""
    n = len(reach) - 1
    slope = reach[n] - reach[n - 1]
    for order in range(n + 1, max_order + 1):
        if _step_cost(order) >= best_cost:
            break
        if order - n <= len(known):
            h = known[order - n - 1]
        elif slope > 0.0:
            h = min(cap, reach[n] + slope * (order - n))
        else:
            break
        if _cover_cost(order, h, dt) < best_cost:
            return True
    return False


def _radius_from_norms(norms: list[float]) -> float:
    """Ratio-test radius: min of the last three ||c_n||/||c_{n+1}||."""
    if len(norms) < 4:
        raise ValueError("radius estimate needs at least 4 coefficients")
    return min(_ratio(norms, n) for n in range(len(norms) - 4, len(norms) - 1))


def _ratio(norms: list[float], n: int) -> float:
    """r_n = ||c_n|| / ||c_{n+1}||: +inf when c_{n+1} vanishes or n < 0."""
    if n < 0 or norms[n + 1] == 0.0:
        return math.inf
    return norms[n] / norms[n + 1]


def taylor_coefficients(
    u: SpectralVectorField, nu: float, order: int
) -> tuple[SpectralVectorField, ...]:
    """Coefficients c_0..c_order of the series around c_0 = ``u``."""
    nonnegative_count("order", order)
    _require_admissible(u, "taylor_coefficients")
    builder = _SeriesBuilder(Kernel(u.grid, nu), u.data, order)
    coefficients = [u]
    for _ in range(order):
        builder.grow()
        half = scatter_ball(u.grid, builder.balls[-1], np.empty_like(u.data))
        coefficients.append(SpectralVectorField(u.grid, half))
    return tuple(coefficients)


def evaluate(coefficients: Sequence[SpectralVectorField], t: float) -> SpectralVectorField:
    """Horner evaluation sum_n c_n t^n; t = 0 returns c_0 unchanged."""
    if t == 0.0:
        return coefficients[0]
    acc = np.empty_like(coefficients[-1].data)
    return coefficients[0].with_data(_horner((c.data for c in reversed(coefficients)), t, acc))


def _horner(descending: Iterable[np.ndarray], t: float, acc: np.ndarray) -> np.ndarray:
    """sum_n c_n t^n of the coefficients c_N, ..., c_0 in ``descending``,
    accumulated in ``acc``, an array not among them; each is read once,
    before the next is drawn."""
    descending = iter(descending)
    acc[...] = next(descending)
    for c in descending:
        acc *= t
        acc += c
    return acc


def estimate_radius(coefficients: Sequence[SpectralVectorField]) -> float:
    """Empirical convergence radius from the trailing coefficient ratios.

    Returns +inf when the trailing coefficients vanish (polynomial-in-time
    flow); requires at least 4 coefficients.
    """
    return _radius_from_norms([c.l2_norm() for c in coefficients])


def lie_advance(
    grid: Grid, nu: float, tol: float = DEFAULT_TOL, max_order: int = DEFAULT_MAX_ORDER
):
    """Adaptive series steps on ``grid`` as an ``advance`` for ``steps``,
    with ``nu``, ``tol`` and ``max_order`` checked and one ``leray.Kernel``
    built for the whole run; each step grows its own coefficient stack.

    ``advance(u, dt)`` takes one step of at most ``dt`` from ``u``. Every
    order N <= max_order gets its largest admissible step h_N: at most dt
    and 0.5 * the ratio-test radius of c_0..c_N (+inf with fewer than four
    coefficients), with ||c_{N-1}|| h^{N-1} <= tol ||u|| and
    ||c_N|| h^N <= tol ||u|| (one term alone can sit low by chance and
    admit too long a step; Jorba & Zou, Exp. Math. 14, 2005, choose the
    step from the last two coefficients the same way). The step takes the
    order that covers dt for the least work, ``_step_cost(N)`` (N grows and
    N(N+1)/2 pair products weighted by PAIR_COST) times ceil(dt / h_N)
    steps, and evens its length to dt / ceil(dt / h_N) so that no sliver is
    left. Before it reads order N the series holds
    c_0..c_min(max(N, 3), max_order), so the four coefficients the radius
    needs come first. It stops as soon as some h_N reaches dt, and after
    any order n once no higher order could cover dt for less than the best
    so far (``_may_improve``). With r_k = ||c_k|| / ||c_{k+1}||, the norms of
    c_0..c_n bound the next two orders (``_SeriesBuilder.ceilings``): h_{n+1}
    <= min(dt, 0.5 * min(r_{n-2}, r_{n-1})) and passes the test of ||c_n||,
    and h_{n+2} <= min(dt, 0.5 * r_{n-1}), two of the three ratios of
    radius(n+1) and one of radius(n+2). Beyond them h_N is extrapolated
    linearly from h_{n-1} and h_n, up to min(dt, 0.5 * radius(n)). A step
    whose bounds rule the next orders out at its best order grows no
    coefficient past it. Steps below COLLAPSE_FLOOR * dt are not
    admissible: with none left at max_order, ``RadiusCollapseError`` is
    raised. After each order it reads without stopping, the step may switch
    its later grows to float32 (the module docstring gives the rule).

    The advance checks neither u nor dt. u must be divergence-free and
    dealiased: ``step`` and ``propagate`` check their initial field, and
    every step's output, a sum of projected coefficients (projected once
    more when it holds complex64 ones) masked to the dealias ball, is so by
    construction. ``steps`` passes a positive finite dt."""
    positive_finite("tol", tol)
    nonnegative_count("max_order", max_order)
    kernel = Kernel(grid, nu)

    def advance(u: SpectralVectorField, dt: float):
        builder = _SeriesBuilder(kernel, u.data, max_order)
        bound = tol * builder.norms[0]
        reach: list[float] = []
        best, best_cost = -1, math.inf
        for n in range(max_order + 1):
            while len(builder.norms) <= min(max(n, 3), max_order):
                builder.grow()
            reach.append(builder.reach(n, bound, dt))
            cost = _cover_cost(n, reach[n], dt)
            if cost < best_cost:
                best, best_cost = n, cost
            if reach[n] >= dt or best >= 0 and not _may_improve(
                    reach, builder.ceilings(n, bound, dt), builder.longest(n, dt), best_cost,
                    dt, max_order):
                break
            if builder.shift is None:
                builder.lower_precision(n, bound, dt)

        if best < 0:
            raise RadiusCollapseError(
                f"no series order up to max_order {max_order} admits a step of at least"
                f" 2^-20 of the requested dt {dt:.6e}; raise max_order or tol, or shorten"
                " the request",
                radius_estimate=builder.radius(len(builder.norms) - 1),
                dt_last=dt * COLLAPSE_FLOOR,
                reach=tuple(reach),
            )
        h = dt / math.ceil(dt / reach[best])
        stats = StepStats(
            order_used=best,
            dt=h,
            truncation_estimate=builder.norms[best] * h**best,
            radius_estimate=builder.radius(best),
            coefficients_built=len(builder.norms) - 1,
            float32_grows=builder.float32_grows,
            reach=tuple(reach),
        )
        return builder.evaluate(best, h), stats

    return advance


def step(
    u: SpectralVectorField,
    nu: float,
    dt: float,
    tol: float = DEFAULT_TOL,
    max_order: int = DEFAULT_MAX_ORDER,
) -> tuple[SpectralVectorField, StepStats]:
    """One adaptive series step of at most ``dt`` from ``u``, as
    ``lie_advance`` takes it; rejects a ``dt`` that is not positive and
    finite, and initial data that is not divergence-free and dealiased."""
    positive_finite("dt", dt)
    advance = lie_advance(u.grid, nu, tol, max_order)
    _require_admissible(u, "step")
    return advance(u, dt)


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
    finite_nonnegative("t_end", t_end)
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
    """Advance ``u`` to exactly ``t_end`` by repeated series steps of one
    ``lie_advance``, each attempting the whole remaining interval; rejects
    initial data that is not divergence-free and dealiased. Iterate
    ``steps`` with ``lie_advance`` to see every accepted step."""
    advance = lie_advance(u.grid, nu, tol, max_order)
    _require_admissible(u, "propagate")
    return final_state(u, t_end, advance)
