"""The divergence-form nonlinear kernel against the advective-form oracle,
and the half-spectrum transforms and helpers it is built on."""

import numpy as np
import pytest
import scipy.fft

from liens import Grid, SpectralVectorField, leray_project, ns_rhs, taylor_coefficients
from liens.grid_spectral import complete_hermitian, fftn_forward, ifftn_real, reflect_modes
from liens.reference_oracles import advection_hat, random_divfree

from conftest import random_real_field

# (dim, n, peak_k); peak_k = n // 3 puts data at the edge of the dealias ball.
CASES = [(2, 64, 3), (2, 64, 21), (3, 32, 3), (3, 32, 10)]
# At 64^2 with peak_k = 3 the modes near the edge of the ball start at
# round-off size and the recursion amplifies them: past c_4 either form moves
# by more than 1e-13 when u is perturbed by 1e-16 relative, so that field
# cannot separate the two forms; 32^2 with peak_k = 3 takes its place.
SERIES_CASES = [(2, 32, 3), (2, 64, 21), (3, 32, 3), (3, 32, 10)]
KERNEL_RTOL = 1e-13


def rel(grid, a, b):
    """Relative L2 distance of the full spectra that half spectra a, b stand for."""
    def norm(c):
        return np.sqrt(np.sum(grid.weight * np.abs(c) ** 2))

    return float(norm(a - b) / norm(b))


def complex_fftn(grid, values):
    """Full spectrum by the plain complex FFT, 1/n^dim normalization."""
    return scipy.fft.fftn(values, axes=tuple(range(-grid.dim, 0)), norm="forward")


def oracle_coefficients(u, nu, order):
    """c_0..c_order from the recursion with the advective-form oracle,
    (n+1) c_{n+1} = nu lap c_n - sum_m P[(c_m.grad) c_{n-m}]."""
    grid = u.grid
    coeffs = [u.data]
    for n in range(order):
        adv = sum(advection_hat(grid, coeffs[m], coeffs[n - m]) for m in range(n + 1))
        projected = leray_project(SpectralVectorField(grid, adv)).data
        coeffs.append((-nu * grid.ksq * coeffs[n] - projected) / (n + 1))
    return coeffs


@pytest.mark.parametrize("dim,n,peak_k", CASES)
def test_ns_rhs_nonlinear_term_matches_advective_oracle(dim, n, peak_k):
    grid = Grid(dim=dim, n=n)
    v = random_divfree(seed=11, grid=grid, peak_k=peak_k, amplitude=1.0)
    kernel = -ns_rhs(v, 0.0).data
    oracle = leray_project(SpectralVectorField(grid, advection_hat(grid, v.data))).data
    assert rel(grid, kernel, oracle) <= KERNEL_RTOL


@pytest.mark.parametrize("dim,n,peak_k", SERIES_CASES)
def test_series_coefficients_match_advective_oracle(dim, n, peak_k):
    grid = Grid(dim=dim, n=n)
    nu = 0.02
    u = random_divfree(seed=5, grid=grid, peak_k=peak_k, amplitude=1.0)
    got = taylor_coefficients(u, nu, 7).coefficients
    want = oracle_coefficients(u, nu, 7)
    assert np.array_equal(got[0].data, want[0])
    for c, w in zip(got[1:], want[1:]):
        assert rel(grid, c.data, w) <= KERNEL_RTOL


@pytest.mark.parametrize("grid", [Grid(dim=2, n=16), Grid(dim=3, n=8)])
def test_hermitian_completion_is_exact(grid, rng):
    full = complex_fftn(grid, random_real_field(grid, rng).data)
    hermitian = 0.5 * (full + np.conj(reflect_modes(grid, full)))
    half = hermitian[..., : grid.n // 2 + 1]
    assert np.array_equal(complete_hermitian(grid, half), hermitian)


@pytest.mark.parametrize("grid", [Grid(dim=2, n=32), Grid(dim=3, n=16)])
def test_real_transforms_match_complex_ones(grid, rng):
    values = random_real_field(grid, rng).data
    half = fftn_forward(grid, values)
    full = complex_fftn(grid, values)
    scale = np.max(np.abs(full))
    assert half.shape == (grid.dim, *grid.spectral_shape)
    assert np.max(np.abs(half - full[..., : grid.n // 2 + 1])) <= 1e-15 * scale
    assert np.max(np.abs(ifftn_real(grid, half) - values)) <= 1e-14 * np.max(np.abs(values))


@pytest.mark.parametrize("grid", [Grid(dim=2, n=32), Grid(dim=3, n=16)])
def test_half_spectrum_parseval_norm(grid):
    v = random_divfree(seed=3, grid=grid, peak_k=grid.n // 3, amplitude=1.0)
    full = complete_hermitian(grid, v.data)
    full_norm = np.sqrt(grid.volume * np.sum(np.abs(full) ** 2))
    assert abs(v.l2_norm() - full_norm) <= 1e-14 * full_norm
