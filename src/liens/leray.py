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

The quadratic term is computed in divergence form by one kernel, shared with
the series recursion of ``lie_propagator``, and this module alone knows its
layout. It forms every symmetric product tensor T_ij pointwise in physical
space (components i <= j only: 3 in 2-D, 6 in 3-D): v_i v_j for ``ns_rhs``
and the pressure, and the series' Cauchy sum sum_m (c_m)_i (c_{n-m})_j in
``cauchy_tensor``. The kernel transforms T once to its half spectrum with a
real-to-complex FFT and applies the 2/3-rule mask, and both i k_j T_ij (the
advection term, then Leray-projected) and the pressure -k_i k_j T_ij / |k|^2
are read off that transform. With the 2/3 rule the divergence and advective
forms agree to round-off on dealiased solenoidal fields; the advective form
is kept in ``reference_oracles`` as the test oracle.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import FieldError, SolenoidalError
from .grid_spectral import (
    Grid,
    SpectralScalarField,
    SpectralVectorField,
    dealias_defect,
    fftn_forward,
    ifftn_real,
    relative_divergence,
)

DIV_FREE_RTOL = 1e-8
DEALIASED_RTOL = 1e-10

# Stored components (i, j), i <= j, of a symmetric tensor: diagonal first.
TENSOR_INDEX = {
    2: ((0, 0), (1, 1), (0, 1)),
    3: ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)),
}


def viscosity_value(nu: float) -> float:
    """The kinematic viscosity as a float; rejects a value that is not
    finite and nonnegative."""
    value = float(nu)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"viscosity must be finite and nonnegative, got {value}")
    return value


def _require_admissible(v: SpectralVectorField, where: str) -> None:
    """Reject a velocity that is not divergence-free to DIV_FREE_RTOL or not
    dealiased to DEALIASED_RTOL; the nonlinear operators assume both."""
    div = relative_divergence(v)
    if div > DIV_FREE_RTOL:
        raise SolenoidalError(f"{where} requires a divergence-free field", div)
    defect = dealias_defect(v)
    if defect > DEALIASED_RTOL:
        raise FieldError(
            f"{where} requires a dealiased field (relative defect {defect:.3e})"
        )


# ---------------------------------------------------------------------------
# the nonlinear kernel
# ---------------------------------------------------------------------------


def _product_tensor(v: np.ndarray) -> np.ndarray:
    """Stored components of v_i v_j for a physical velocity v."""
    index = TENSOR_INDEX[len(v)]
    out = np.empty((len(index), *v.shape[1:]))
    for c, (i, j) in enumerate(index):
        np.multiply(v[i], v[j], out=out[c])
    return out


def cauchy_tensor(velocities: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Stored components of T_n = sum_{m=0}^{n} v_m v_{n-m} for physical
    velocities v_0..v_n: each m <-> n-m pair is multiplied once, then the
    middle term v_{n/2} v_{n/2} is added when n is even."""
    dim = len(velocities[0])
    index = TENSOR_INDEX[dim]
    tensor = np.zeros((len(index), *velocities[0].shape[1:]))
    for m in range((n + 1) // 2):
        a, b = velocities[m], velocities[n - m]
        for c, (i, j) in enumerate(index):
            tensor[c] += a[i] * b[j]
            if i != j:
                tensor[c] += a[j] * b[i]
    tensor[:dim] *= 2.0  # the pairs added each diagonal a_i b_i once
    if n % 2 == 0:
        tensor += _product_tensor(velocities[n // 2])
    return tensor


def _velocity_tensor(grid: Grid, v_hat: np.ndarray) -> np.ndarray:
    """Physical v_i v_j of the field with spectrum ``v_hat``."""
    return _product_tensor(ifftn_real(grid, v_hat))


def _tensor_hat(grid: Grid, tensor: np.ndarray) -> np.ndarray:
    """Dealiased spectrum of a physical symmetric tensor."""
    t_hat = fftn_forward(grid, tensor)
    t_hat *= grid.dealias_keep
    return t_hat


def _project(grid: Grid, w_hat: np.ndarray) -> np.ndarray:
    """Leray projection of raw coefficients: w - k (k.w)/|k|^2, k=0 untouched."""
    k_dot_w = np.zeros(w_hat.shape[1:], dtype=np.complex128)
    for a, k in enumerate(grid.k_deriv):
        k_dot_w += k * w_hat[a]
    k_dot_w *= grid.inv_ksq
    out = w_hat.copy()
    for a, k in enumerate(grid.k_deriv):
        out[a] -= k * k_dot_w
    return out


def nonlinear_hat(grid: Grid, tensor: np.ndarray) -> np.ndarray:
    """The kernel: spectrum of P[div T] for a physical symmetric tensor T
    (stored components), dealiased; (div T)_i = i k_j T_ij."""
    t_hat = _tensor_hat(grid, tensor)
    k, index = grid.k_deriv, TENSOR_INDEX[grid.dim]
    div = np.empty((grid.dim, *t_hat.shape[1:]), dtype=np.complex128)
    for i in range(grid.dim):
        div[i] = sum(
            k[j] * t_hat[index.index((min(i, j), max(i, j)))] for j in range(grid.dim)
        )
    del t_hat  # freed before the projection allocates its output
    div *= 1j
    return _project(grid, div)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def leray_project(w: SpectralVectorField) -> SpectralVectorField:
    """Orthogonal projection onto divergence-free fields; annihilates gradients."""
    return SpectralVectorField(w.grid, _project(w.grid, w.data))


def compute_pressure(v: SpectralVectorField) -> SpectralScalarField:
    """Solve lap(p) = -d_i d_j (v_i v_j) spectrally, zero-mean gauge.

    The input must be dealiased and divergence-free (the Poisson equation is
    derived from the divergence of the momentum equation under that
    constraint).
    """
    _require_admissible(v, "compute_pressure")
    grid = v.grid
    t_hat = _tensor_hat(grid, _velocity_tensor(grid, v.data))
    k = grid.k_deriv
    acc = np.zeros(t_hat.shape[1:], dtype=np.complex128)
    for c, (i, j) in enumerate(TENSOR_INDEX[grid.dim]):
        acc += (k[i] * k[j] * (1.0 if i == j else 2.0)) * t_hat[c]
    return SpectralScalarField(grid, -acc * grid.inv_ksq)


def rhs_hat(grid: Grid, v_hat: np.ndarray, nu: float) -> np.ndarray:
    """``ns_rhs`` on raw coefficients, without its checks: for callers whose
    input is admissible by construction."""
    return -nu * grid.ksq * v_hat - nonlinear_hat(grid, _velocity_tensor(grid, v_hat))


def ns_rhs(v: SpectralVectorField, nu: float) -> SpectralVectorField:
    """Navier-Stokes right-hand side nu*lap(v) - P[div(v v)].

    Output is divergence-free and dealiased whenever the input is.
    """
    nu_val = viscosity_value(nu)
    _require_admissible(v, "ns_rhs")
    return SpectralVectorField(v.grid, rhs_hat(v.grid, v.data, nu_val))

