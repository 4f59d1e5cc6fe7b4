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

The quadratic term is computed in divergence form by one kernel,
``nonlinear_rhs``, shared with the series recursion of ``lie_propagator``,
and this module alone knows its layout. The kernel streams the symmetric
product tensor T (components i <= j only: 3 in 2-D, 6 in 3-D) one stored
component at a time. A producer forms T_ij pointwise in physical space in
one reused buffer: v_i v_j for ``ns_rhs`` and the pressure, and the series'
Cauchy sum sum_m (c_m)_i (c_{n-m})_j in ``cauchy_component``, one
contraction over m of a stack of physical velocities shaped (orders, dim,
*grid shape). One real-to-complex FFT and the 2/3-rule mask give the
component's half spectrum, which is folded at once into the divergence
i k_j T_ij (the advection term, then Leray-projected in place) or into the
pressure -k_i k_j T_ij / |k|^2, and dropped. So at most one component of T
exists at a time, in either space.

The stream order, TENSOR_INDEX, is (0,0), (0,1), (1,1), (0,2), (1,2), (2,2):
(i, j) comes after every (i', j') with j' < j. Each (div T)_i therefore
sums its terms k_j T_ij in order j = 0, 1, 2, starting from zero, exactly as
a transform of the whole tensor followed by the sum over j does; each
transform, mask and product acts on one component either way, so every
result is bit for bit the same as that of the whole-tensor form. (The
pressure sums its six terms in the stream order too.)

With the 2/3 rule the divergence and advective forms agree to round-off on
dealiased solenoidal fields; the advective form is kept in
``reference_oracles`` as the test oracle.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .errors import FieldError, SolenoidalError
from .grid_spectral import (
    Grid,
    SpectralScalarField,
    SpectralVectorField,
    dealias_defect,
    fftn_forward,
    ifftn_real,
    overflow_note,
    relative_divergence,
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

# ``produce(i, j, out)`` writes component (i, j) of a physical tensor into out.
Producer = Callable[[int, int, np.ndarray], object]


def viscosity_value(nu: float) -> float:
    """The kinematic viscosity as a float; rejects a value that is not
    finite and nonnegative."""
    value = float(nu)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"viscosity must be finite and nonnegative, got {value}")
    return value


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


class KernelBuffers:
    """The buffers the kernel reuses on one grid: one physical tensor
    component, and two half-spectrum scalars, one for a product k_j X and one
    for k.w. ``np.empty`` commits their pages only as they are written."""

    def __init__(self, grid: Grid):
        self.component = np.empty(grid.shape)
        self.term = np.empty(grid.spectral_shape, dtype=np.complex128)
        self.k_dot_w = np.empty(grid.spectral_shape, dtype=np.complex128)


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


def _velocity_product(v: np.ndarray) -> Producer:
    """The producer of v_i v_j for a physical velocity v."""
    return lambda i, j, out: np.multiply(v[i], v[j], out=out)


def _component_spectra(
    grid: Grid, produce: Producer, work: KernelBuffers
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The stream: (i, j, dealiased half spectrum of T_ij) for every stored
    component in TENSOR_INDEX order, each formed by ``produce`` in
    ``work.component`` and transformed there."""
    for i, j in TENSOR_INDEX[grid.dim]:
        produce(i, j, work.component)
        t_hat = fftn_forward(grid, work.component)
        t_hat *= grid.dealias_keep
        yield i, j, t_hat


def _project(grid: Grid, w_hat: np.ndarray, work: KernelBuffers) -> None:
    """Leray projection of raw coefficients in place: w - k (k.w)/|k|^2,
    k=0 untouched."""
    k_dot_w, term = work.k_dot_w, work.term
    k_dot_w.fill(0.0)
    for a, k in enumerate(grid.k_deriv):
        np.add(k_dot_w, np.multiply(k, w_hat[a], out=term), out=k_dot_w)
    k_dot_w *= grid.inv_ksq
    for a, k in enumerate(grid.k_deriv):
        np.subtract(w_hat[a], np.multiply(k, k_dot_w, out=term), out=w_hat[a])


def nonlinear_rhs(
    grid: Grid,
    produce: Producer,
    viscous: np.ndarray,
    c_hat: np.ndarray,
    out: np.ndarray,
    work: KernelBuffers,
) -> float:
    """The kernel: ``out`` = viscous * c_hat - P[div T], dealiased, with
    (div T)_i = i k_j T_ij for the physical symmetric tensor T whose stored
    component (i, j) ``produce(i, j, buf)`` writes into ``buf``. Returns
    max|T|. T is streamed one component at a time, in the order the module
    docstring gives, which keeps every sum that of the whole-tensor form.
    ``out`` must not be ``c_hat``."""
    k = grid.k_deriv
    term = work.term
    out.fill(0.0)
    peak = 0.0
    for i, j, t_hat in _component_spectra(grid, produce, work):
        # work.component still holds T_ij; max|T| is the largest peak of any
        # component, and np.max passes a NaN on
        peak = np.max((peak, work.component.max(), -work.component.min()))
        np.add(out[i], np.multiply(k[j], t_hat, out=term), out=out[i])
        if i != j:
            np.add(out[j], np.multiply(k[i], t_hat, out=term), out=out[j])
    out *= 1j
    _project(grid, out, work)
    for a in range(grid.dim):
        np.subtract(np.multiply(viscous, c_hat[a], out=term), out[a], out=out[a])
    return float(peak)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def leray_project(w: SpectralVectorField) -> SpectralVectorField:
    """Orthogonal projection onto divergence-free fields; annihilates gradients."""
    out = w.data.copy()
    _project(w.grid, out, KernelBuffers(w.grid))
    return SpectralVectorField(w.grid, out)


def compute_pressure(v: SpectralVectorField) -> SpectralScalarField:
    """Solve lap(p) = -d_i d_j (v_i v_j) spectrally, zero-mean gauge.

    The input must be dealiased and divergence-free (the Poisson equation is
    derived from the divergence of the momentum equation under that
    constraint).
    """
    _require_admissible(v, "compute_pressure")
    grid = v.grid
    k = grid.k_deriv
    acc = np.zeros(grid.spectral_shape, dtype=np.complex128)
    product = _velocity_product(ifftn_real(grid, v.data))
    for i, j, t_hat in _component_spectra(grid, product, KernelBuffers(grid)):
        acc += (k[i] * k[j] * (1.0 if i == j else 2.0)) * t_hat
    return SpectralScalarField(grid, -acc * grid.inv_ksq)


def rhs_hat(
    grid: Grid, v_hat: np.ndarray, nu: float, out: np.ndarray, work: KernelBuffers
) -> np.ndarray:
    """``ns_rhs`` on raw coefficients, written into ``out`` (not ``v_hat``)
    and returned, without its checks: for callers whose input is admissible
    by construction."""
    product = _velocity_product(ifftn_real(grid, v_hat))
    nonlinear_rhs(grid, product, -nu * grid.ksq, v_hat, out, work)
    return out


def ns_rhs(v: SpectralVectorField, nu: float) -> SpectralVectorField:
    """Navier-Stokes right-hand side nu*lap(v) - P[div(v v)].

    Output is divergence-free and dealiased whenever the input is.
    """
    nu_val = viscosity_value(nu)
    _require_admissible(v, "ns_rhs")
    grid = v.grid
    out = rhs_hat(grid, v.data, nu_val, np.empty_like(v.data), KernelBuffers(grid))
    return SpectralVectorField(grid, out)
