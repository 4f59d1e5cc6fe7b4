"""Pressure elimination and the incompressible Navier-Stokes right-hand side.

The pressure Poisson equation is solved spectrally (division by -|k|^2 with a
zero-mean gauge), the Leray projector removes the gradient part of a field,
and ``ns_rhs`` evaluates

    F(v) = nu * lap(v) - P[div(v v)]

which coincides with nu*lap(v) - (v.grad)v - grad(p_v) for divergence-free
v; ``reference_oracles.ns_rhs_via_pressure`` evaluates the second form so
tests can assert their agreement.

Every field here is a half spectrum (see ``grid_spectral``), and so is every
output: the projection, the pressure and the right-hand side act mode by
mode, and k -> -k maps each of them onto its own conjugate, so none needs
completing.

The quadratic term is computed in divergence form by one kernel object,
``Kernel(grid, nu)``, shared with the series recursion of
``lie_propagator`` and the RK4 oracle, and this module alone knows its
layout. A ``Kernel`` checks nu, holds the viscous table and the buffers of
one (grid, nu) and is built once per ``ns_rhs`` call, series or run; it
looks up ``fftn_forward`` and ``ifftn_real`` as this module's globals.
``Kernel.apply`` streams the Cauchy product T_n = sum_m v_m v_{n-m} of a
stack of physical velocities v_0..v_n, shaped (orders, dim, *grid shape),
float64 or float32, one stored component (i <= j: 3 in 2-D, 6 in 3-D) at a
time, each formed in one reused buffer by ``cauchy_component``, one
contraction over m.
``ns_rhs``, the RK4 stages and ``compute_pressure`` (with its own buffer)
stream a stack of one velocity at n = 0 (T_0 = v v): F(v) is the series'
first coefficient. One pruned real-to-complex FFT gives the component's
dealias ball, the block of the half spectrum that the 2/3 rule keeps
(``Grid.ball_shape``: 21 x 21 x 11 of 32 x 32 x 17 modes at 32^3), and
nothing outside it, folded at once into the divergence i k_j T_ij (the
advection term) or into the pressure -k_i k_j T_ij / |k|^2, and dropped.
So at most one component of T exists at a time, in either space. The
projection and the viscous term act on the ball too, with the ball tables
of ``Grid``: ``Kernel.apply`` takes and returns compact balls, since the
series keeps its coefficients there. ``Kernel.rhs`` reads only the ball of
its input, through the inverse of that ball, so no out-of-ball round-off
of an admissible field enters its result; it and ``compute_pressure``
scatter their result, zero outside the ball. Each kept mode is bit for bit
what the whole transform and the mask give (``grid_spectral.fftn_forward``)
and the ball tables are copies of the whole ones: the ball changes no result.

The stream order, TENSOR_INDEX, is (0,0), (0,1), (1,1), (0,2), (1,2), (2,2):
(i, j) comes after every (i', j') with j' < j. Each (div T)_i therefore
sums its terms k_j T_ij in order j = 0, 1, 2, starting from zero, exactly as
a transform of the whole tensor followed by the sum over j does; each
transform and product acts on one component either way, so every result is
bit for bit the same as that of the whole-tensor form. (The pressure sums
its six terms in the stream order too.)

With the 2/3 rule the divergence and advective forms agree to round-off on
dealiased solenoidal fields; the advective form is kept in
``reference_oracles`` as the test oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldError, SolenoidalError, finite_nonnegative
from .grid_spectral import (
    Grid,
    SpectralScalarField,
    SpectralVectorField,
    dealias_defect,
    fftn_forward,
    gather_ball,
    ifftn_real,
    overflow_note,
    relative_divergence,
    scatter_ball,
)

DIV_FREE_RTOL = 1e-8
DEALIASED_RTOL = 1e-10
# Points per pass of ``cauchy_component``; the fastest of 2048..65536 for the
# 28 grows of an order-28 step at 64^3 on a 2-core x86 VM with 2 MiB of L2
# per core (0.91 s against 1.96 s for the pair loop it replaced).
CAUCHY_CHUNK = 8192

# Stored components (i, j), i <= j, of a symmetric tensor, in the order the
# kernel streams them: (i, j) comes after every (i', j') with j' < j.
TENSOR_INDEX = {
    2: ((0, 0), (0, 1), (1, 1)),
    3: ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)),
}


def viscosity_value(nu: float) -> float:
    """The kinematic viscosity ``nu`` as a float, under the rule
    ``finite_nonnegative`` named "viscosity"."""
    return finite_nonnegative("viscosity", float(nu))


def _require_admissible(v: SpectralVectorField, where: str) -> None:
    """Reject a velocity that is not divergence-free to DIV_FREE_RTOL or not
    dealiased to DEALIASED_RTOL (a NaN measure, from norms that overflow,
    fails); the nonlinear operators assume both."""
    div = relative_divergence(v)
    if not div <= DIV_FREE_RTOL:
        raise SolenoidalError(
            f"{where} requires a divergence-free field{overflow_note(div)}", div
        )
    defect = dealias_defect(v)
    if not defect <= DEALIASED_RTOL:
        raise FieldError(
            f"{where} requires a dealiased field "
            f"(relative defect {defect:.3e}{overflow_note(defect)})"
        )


# ---------------------------------------------------------------------------
# the nonlinear kernel
# ---------------------------------------------------------------------------


def cauchy_component(stack: np.ndarray, n: int, i: int, j: int, out: np.ndarray) -> None:
    """Component (i, j) of T_n = sum_{m=0}^{n} v_m v_{n-m}, written into
    ``out`` (grid shape), for the physical velocities v_0..v_n in
    ``stack[:n+1]`` (shape (>= n+1, dim, *grid shape)). The full m range
    holds both orders of every pair, so the component is one contraction
    over m, taken CAUCHY_CHUNK points at a time so that its operands stay in
    cache."""
    points = out.size
    flat = stack.reshape(len(stack), stack.shape[1], points)
    a, b = flat[: n + 1, i], flat[n::-1, j]
    dest = out.reshape(points)
    for start in range(0, points, CAUCHY_CHUNK):
        s = slice(start, start + CAUCHY_CHUNK)
        np.einsum("mp,mp->p", a[:, s], b[:, s], out=dest[s])


def _project(
    w_hat: np.ndarray,
    k: tuple[np.ndarray, ...],
    inv_ksq: np.ndarray,
    k_dot_w: np.ndarray,
    term: np.ndarray,
) -> None:
    """Leray projection of raw coefficients in place: w - k (k.w)/|k|^2,
    k=0 untouched, on the layout of the tables ``k`` and ``inv_ksq`` (the
    half spectrum or the ball) through the scalar buffers k_dot_w and term."""
    k_dot_w.fill(0.0)
    for a, k_a in enumerate(k):
        np.add(k_dot_w, np.multiply(k_a, w_hat[a], out=term), out=k_dot_w)
    k_dot_w *= inv_ksq
    for a, k_a in enumerate(k):
        np.subtract(w_hat[a], np.multiply(k_a, k_dot_w, out=term), out=w_hat[a])


def project_half(grid: Grid, w_hat: np.ndarray, scratch: np.ndarray) -> None:
    """Leray projection of a half-spectrum vector in place; ``scratch`` holds
    at least two half-spectrum scalars, which it overwrites."""
    _project(w_hat, grid.k_deriv, grid.inv_ksq, scratch[0], scratch[1])


class Kernel:
    """The kernel on one grid with viscosity ``nu``, which it checks by
    ``viscosity_value`` and keeps as ``self.nu``: the viscous factor -nu |k|^2
    on the dealias ball (``Grid.ball_shape``) and the buffers every call
    reuses: one physical tensor component per precision a stack may have
    (float64 and float32), two ball scalars, one for a product and one for
    k.w, and the two ball vectors of ``rhs``, its gathered input and its
    result. ``np.empty`` commits their pages only as they are written."""

    def __init__(self, grid: Grid, nu: float):
        self.nu = viscosity_value(nu)
        self.grid = grid
        self.viscous = -self.nu * grid.ball_ksq
        self.components = {np.dtype(t): np.empty(grid.shape, t) for t in (np.float64, np.float32)}
        self.term = np.empty(grid.ball_shape, dtype=np.complex128)
        self.k_dot_w = np.empty(grid.ball_shape, dtype=np.complex128)
        self.rhs_balls = np.empty((2, grid.dim, *grid.ball_shape), dtype=np.complex128)

    def apply(self, stack: np.ndarray, n: int, c_ball: np.ndarray, out: np.ndarray) -> float:
        """``out`` = -nu |k|^2 c - P[div T_n] on the dealias ball, with
        (div T)_i = i k_j T_ij for the Cauchy product T_n of the physical
        velocities in ``stack[:n+1]`` (see ``cauchy_component``); ``c_ball``
        and ``out`` are compact balls (trailing shape ``Grid.ball_shape``).
        Returns max|T_n|. T_n is streamed one component at a time, in the
        order the module docstring gives, which keeps every sum that of the
        whole-tensor form. ``out`` must not be ``c_ball``. The stack may be
        float32: its components are then formed and transformed in float32,
        and each transformed component enters the complex128 ``out``, where
        the divergence, the projection and the viscous term act."""
        grid, k = self.grid, self.grid.ball_k_deriv
        component, term = self.components[stack.dtype], self.term
        out.fill(0.0)
        peak = 0.0
        for i, j in TENSOR_INDEX[grid.dim]:
            cauchy_component(stack, n, i, j, component)
            # max|T| is the largest peak of any component; np.max passes a NaN on
            peak = np.max((peak, component.max(), -component.min()))
            t_hat = fftn_forward(grid, component, ball=True)
            np.add(out[i], np.multiply(k[j], t_hat, out=term), out=out[i])
            if i != j:
                np.add(out[j], np.multiply(k[i], t_hat, out=term), out=out[j])
        out *= 1j
        _project(out, k, grid.ball_inv_ksq, self.k_dot_w, term)
        for a in range(grid.dim):
            np.subtract(np.multiply(self.viscous, c_ball[a], out=term), out[a], out=out[a])
        return float(peak)

    def rhs(self, v_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``ns_rhs`` on raw half-spectrum coefficients, written into ``out``
        (not ``v_hat``), zero outside the dealias ball, and returned, without
        its checks: for callers whose input is admissible by construction.
        It reads the ball of ``v_hat`` alone."""
        c_ball, f_ball = self.rhs_balls
        gather_ball(self.grid, v_hat, c_ball)
        self.apply(ifftn_real(self.grid, c_ball, ball=True)[None], 0, c_ball, f_ball)
        return scatter_ball(self.grid, f_ball, out)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def leray_project(w: SpectralVectorField) -> SpectralVectorField:
    """Orthogonal projection onto divergence-free fields; annihilates gradients."""
    grid = w.grid
    out = w.data.copy()
    project_half(grid, out, np.empty((2, *grid.spectral_shape), dtype=np.complex128))
    return SpectralVectorField(grid, out)


def compute_pressure(v: SpectralVectorField) -> SpectralScalarField:
    """Solve lap(p) = -d_i d_j (v_i v_j) spectrally, zero-mean gauge.

    The input must be dealiased and divergence-free (the Poisson equation is
    derived from the divergence of the momentum equation under that
    constraint).
    """
    _require_admissible(v, "compute_pressure")
    grid = v.grid
    k = grid.ball_k_deriv
    velocity = ifftn_real(grid, v.data)[None]
    component = np.empty(grid.shape)
    acc = np.zeros(grid.ball_shape, dtype=np.complex128)
    for i, j in TENSOR_INDEX[grid.dim]:
        cauchy_component(velocity, 0, i, j, component)
        t_hat = fftn_forward(grid, component, ball=True)
        acc += (k[i] * k[j] * (1.0 if i == j else 2.0)) * t_hat
    np.negative(acc, out=acc)
    acc *= grid.ball_inv_ksq
    pressure = scatter_ball(grid, acc, np.empty(grid.spectral_shape, dtype=np.complex128))
    return SpectralScalarField(grid, pressure)


def ns_rhs(v: SpectralVectorField, nu: float) -> SpectralVectorField:
    """Navier-Stokes right-hand side nu*lap(v) - P[div(v v)].

    Output is divergence-free and dealiased whenever the input is.
    """
    kernel = Kernel(v.grid, nu)
    _require_admissible(v, "ns_rhs")
    out = kernel.rhs(v.data, np.empty_like(v.data))
    return SpectralVectorField(v.grid, out)
