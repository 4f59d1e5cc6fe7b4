"""The divergence-form nonlinear kernel against the advective-form oracle
and against its whole-half-spectrum form, and the transforms and helpers it
is built on."""

from functools import partial

import numpy as np
import pytest
import scipy.fft

import liens.leray
from liens import (
    AnalyticFlow,
    Grid,
    SpectralVectorField,
    analytic_field,
    compute_pressure,
    leray_project,
    lie_advance,
    ns_rhs,
    taylor_coefficients,
)
from liens.grid_spectral import (
    complete_hermitian,
    fftn_forward,
    gather_ball,
    ifftn_real,
    reflect_modes,
    scatter_ball,
)
from liens.leray import TENSOR_INDEX, Kernel, cauchy_component
from liens.lie_propagator import SERIES_FLOOR
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
    got = taylor_coefficients(u, nu, 7)
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


# ---------------------------------------------------------------------------
# the dealias ball
# ---------------------------------------------------------------------------

# (dim, n, peak_k) of the bit-for-bit comparisons with the whole-half-spectrum
# kernel; peak_k = n // 3 puts data at the edge of the ball.
BALL_CASES = [(2, 32, 3), (2, 64, 21), (3, 16, 5), (3, 32, 10)]


def outside_ball(grid, data):
    """The entries of a half-spectrum array that the 2/3 rule drops."""
    return data[..., ~grid.dealias_keep]


def half_spectrum_kernel(grid, produce, viscous, c_hat, out):
    """The kernel on the whole half spectrum: each tensor component is
    transformed in full and masked, and the divergence, the projection and
    the viscous term run over every mode, in the operation order of the ball
    kernel. ``viscous`` is half-spectrum shaped. Returns max|T|."""
    k = grid.k_deriv
    component = np.empty(grid.shape)
    out.fill(0.0)
    peak = 0.0
    for i, j in TENSOR_INDEX[grid.dim]:
        produce(i, j, component)
        peak = max(peak, float(np.max(np.abs(component))))
        t_hat = fftn_forward(grid, component)
        t_hat *= grid.dealias_keep
        out[i] += k[j] * t_hat
        if i != j:
            out[j] += k[i] * t_hat
    out *= 1j
    k_dot_w = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for a in range(grid.dim):
        k_dot_w += k[a] * out[a]
    k_dot_w *= grid.inv_ksq
    for a in range(grid.dim):
        out[a] -= k[a] * k_dot_w
    for a in range(grid.dim):
        out[a] = viscous * c_hat[a] - out[a]
    return peak


def velocity_product(v_hat, grid):
    v = ifftn_real(grid, v_hat)
    return lambda i, j, out: np.multiply(v[i], v[j], out=out)


def half_spectrum_pressure(v):
    grid, k = v.grid, v.grid.k_deriv
    product = velocity_product(v.data, grid)
    component = np.empty(grid.shape)
    acc = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for i, j in TENSOR_INDEX[grid.dim]:
        product(i, j, component)
        t_hat = fftn_forward(grid, component)
        t_hat *= grid.dealias_keep
        acc += (k[i] * k[j] * (1.0 if i == j else 2.0)) * t_hat
    return -acc * grid.inv_ksq


def half_spectrum_series(u, nu, order):
    """c_0..c_order by the series recursion with ``half_spectrum_kernel``,
    round-off floor included: it zeroes whole modes, every component of a
    wavevector together."""
    grid = u.grid
    k_max = grid.k_1d[grid.ball_radius]
    eps = float(np.finfo(float).eps)
    stack = np.empty((order + 1, grid.dim, *grid.shape))
    stack[0] = ifftn_real(grid, u.data)
    coeffs = [u.data]
    for n in range(order):
        new = np.empty_like(u.data)
        product = partial(cauchy_component, stack, n)
        scale = half_spectrum_kernel(grid, product, -nu * grid.ksq, coeffs[-1], new)
        new /= n + 1
        floor = SERIES_FLOOR * eps * k_max * scale / (n + 1)
        sq = np.abs(new)
        sq *= sq
        if floor > 0.0:
            new[:, sq.sum(axis=0) < floor * floor] = 0.0
        stack[n + 1] = ifftn_real(grid, new)
        coeffs.append(new)
    return coeffs


@pytest.mark.parametrize("leading", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("dim", [2, 3])
def test_ball_transform_is_the_masked_transform(dim, n, leading):
    grid = Grid(dim=dim, n=n)
    shape = ((dim,) if leading else ()) + grid.shape
    values = np.random.default_rng(n + dim).standard_normal(shape)
    masked = fftn_forward(grid, values)
    masked *= grid.dealias_keep
    ball = fftn_forward(grid, values, ball=True)
    m = n // 3
    assert ball.shape == shape[:-dim] + (2 * m + 1,) * (dim - 1) + (m + 1,)
    assert np.array_equal(scatter_ball(grid, ball, np.empty_like(masked)), masked)


@pytest.mark.parametrize("leading", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("dim", [2, 3])
def test_ball_inverse_is_the_inverse_of_the_scattered_ball(dim, n, leading):
    grid = Grid(dim=dim, n=n)
    shape = ((dim,) if leading else ()) + grid.shape
    values = np.random.default_rng(n + dim).standard_normal(shape)
    ball = fftn_forward(grid, values, ball=True)
    half = scatter_ball(grid, ball, np.empty(shape[:-dim] + grid.spectral_shape, complex))
    got = ifftn_real(grid, ball, ball=True)
    assert got.shape == shape
    assert np.array_equal(got, ifftn_real(grid, half))


# numpy's inverse passes under norm="forward" take their scale as the int 1,
# so a complex64 ball runs the complex128 loops and is rounded after each
# pass. The float32 inverse still lies within one float32 rounding of the
# largest value, eps_32 max|v|, of the complex128 inverse of the same ball
# (0.44-0.59 of it here): the rounding the switch rule budgets for a slot.
@pytest.mark.parametrize("dim,n", [(3, 32), (3, 64), (2, 128)])
def test_float32_ball_inverse_is_rounded_once(dim, n):
    grid = Grid(dim=dim, n=n)
    u = random_divfree(seed=7, grid=grid, peak_k=3, amplitude=1.0)
    ball = gather_ball(grid, u.data, np.empty((dim, *grid.ball_shape), np.complex64))
    want = ifftn_real(grid, ball.astype(np.complex128), ball=True)
    got = ifftn_real(grid, ball, ball=True)
    assert got.dtype == np.float32
    assert np.max(np.abs(got - want)) <= np.finfo(np.float32).eps * np.max(np.abs(want))


# The series writes the velocity of each coefficient through ``out`` into a
# slot of a preallocated stack, float64 or float32.
@pytest.mark.parametrize("dim", [2, 3])
def test_ball_inverse_fills_a_stack_slot(dim):
    grid = Grid(dim=dim, n=32)
    rng = np.random.default_rng(dim)
    for precision in (np.float64, np.float32):
        balls = [fftn_forward(grid, rng.standard_normal((dim, *grid.shape)).astype(precision),
                              ball=True) for _ in range(3)]
        stack = np.empty((4, dim, *grid.shape), precision)
        for slot, ball in enumerate(balls):
            got = ifftn_real(grid, ball, ball=True, out=stack[slot])
            assert np.shares_memory(got, stack[slot]) and got.shape == stack[slot].shape
        for slot, ball in enumerate(balls):
            half = scatter_ball(grid, ball, np.empty((dim, *grid.spectral_shape), ball.dtype))
            assert np.array_equal(stack[slot], ifftn_real(grid, half))


# Late series orders run in float32: the transforms keep the precision of
# their input, pass for pass as the whole float32 transforms, and the kernel
# forms and transforms T_n of a float32 stack in float32.
@pytest.mark.parametrize("dim", [2, 3])
def test_ball_transforms_keep_float32(dim):
    grid = Grid(dim=dim, n=32)
    values = np.random.default_rng(dim).standard_normal((dim, *grid.shape)).astype(np.float32)
    ball = fftn_forward(grid, values, ball=True)
    masked = fftn_forward(grid, values)
    masked *= grid.dealias_keep
    assert ball.dtype == masked.dtype == np.complex64
    assert np.array_equal(scatter_ball(grid, ball, np.empty_like(masked)), masked)
    got = ifftn_real(grid, ball, ball=True)
    assert got.dtype == np.float32
    assert np.array_equal(got, ifftn_real(grid, masked))


@pytest.mark.parametrize("dim", [2, 3])
def test_apply_takes_a_float32_stack(dim):
    grid = Grid(dim=dim, n=32)
    v = random_divfree(seed=13, grid=grid, peak_k=3, amplitude=1.0)
    c = gather_ball(grid, v.data, np.empty((dim, *grid.ball_shape), complex))
    stack = ifftn_real(grid, c, ball=True)[None]
    kernel = Kernel(grid, 0.02)
    want, got = np.empty_like(c), np.empty_like(c)
    want_peak = kernel.apply(stack, 0, c, want)
    got_peak = kernel.apply(stack.astype(np.float32), 0, c, got)
    assert got.dtype == np.complex128
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
    assert abs(got_peak - want_peak) <= 1e-6 * want_peak


@pytest.mark.parametrize("nu", [0.0, 0.02])
@pytest.mark.parametrize("dim,n,peak_k", BALL_CASES)
def test_rhs_matches_half_spectrum_kernel(dim, n, peak_k, nu):
    grid = Grid(dim=dim, n=n)
    v = random_divfree(seed=13, grid=grid, peak_k=peak_k, amplitude=1.0)
    c = gather_ball(grid, v.data, np.empty((dim, *grid.ball_shape), complex))
    got = scatter_ball(grid, Kernel(grid, nu).rhs(c, np.empty_like(c)), np.empty_like(v.data))
    want = np.empty_like(v.data)
    half_spectrum_kernel(grid, velocity_product(v.data, grid), -nu * grid.ksq, v.data, want)
    assert np.array_equal(got, want)
    assert not np.any(outside_ball(grid, got))


@pytest.mark.parametrize("dim,n,peak_k", BALL_CASES)
def test_pressure_matches_half_spectrum_form(dim, n, peak_k):
    grid = Grid(dim=dim, n=n)
    v = random_divfree(seed=17, grid=grid, peak_k=peak_k, amplitude=1.0)
    got = compute_pressure(v).data
    assert np.array_equal(got, half_spectrum_pressure(v))
    assert not np.any(outside_ball(grid, got))


@pytest.mark.parametrize("dim,n,peak_k", BALL_CASES)
def test_series_matches_half_spectrum_kernel(dim, n, peak_k):
    grid = Grid(dim=dim, n=n)
    u = random_divfree(seed=19, grid=grid, peak_k=peak_k, amplitude=1.0)
    got = taylor_coefficients(u, 0.02, 6)
    want = half_spectrum_series(u, 0.02, 6)
    for c, w in zip(got, want):
        assert np.array_equal(c.data, w)
    for c in got[1:]:
        assert not np.any(outside_ball(grid, c.data))


# The benchmark's tracer times the kernel's transforms by swapping
# ``leray.fftn_forward`` and ``leray.ifftn_real`` for wrappers: every
# transform of the kernel must be looked up by those names, one forward
# transform per stored tensor component and one inverse per ``Kernel.rhs``.
@pytest.mark.parametrize("dim,calls", [(2, 3), (3, 6)])
def test_kernel_transforms_go_through_fftn_forward(monkeypatch, dim, calls):
    grid = Grid(dim=dim, n=16)
    v = random_divfree(seed=23, grid=grid, peak_k=3, amplitude=1.0)
    seen = {"fftn_forward": 0, "ifftn_real": 0}

    def counting(name, transform):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return transform(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(liens.leray, "fftn_forward", counting("fftn_forward", fftn_forward))
    monkeypatch.setattr(liens.leray, "ifftn_real", counting("ifftn_real", ifftn_real))
    kernel = Kernel(grid, 0.02)
    c = gather_ball(grid, v.data, np.empty((dim, *grid.ball_shape), complex))
    for _ in range(2):
        kernel.rhs(c, np.empty_like(c))
    assert seen == {"fftn_forward": 2 * calls, "ifftn_real": 2}


def first_coefficient_fields():
    for dim, n in [(2, 32), (3, 16)]:
        grid = Grid(dim=dim, n=n)
        yield pytest.param(random_divfree(seed=29, grid=grid, peak_k=5, amplitude=1.0),
                           id=f"random-{dim}d")
        kind = "taylor_green_2d" if dim == 2 else "taylor_green_3d_embedded"
        yield pytest.param(analytic_field(AnalyticFlow(kind), 0.0, 0.05, grid),
                           id=f"taylor-green-{dim}d")


# ns_rhs is the series' first coefficient: both are one kernel call on a
# stack of one velocity at n = 0, so c_1 = F(u) bit for bit on every mode
# the round-off floor keeps, and the modes it zeroes are below the floor.
@pytest.mark.parametrize("u", first_coefficient_fields())
def test_first_series_coefficient_is_ns_rhs(u):
    nu = 0.05
    grid = u.grid
    c1 = taylor_coefficients(u, nu, 1)[1].data
    rhs = ns_rhs(u, nu).data
    kept = c1 != 0
    assert np.count_nonzero(kept) > 0
    assert np.array_equal(c1[kept], rhs[kept])
    v = ifftn_real(grid, u.data)
    peak = max(np.max(np.abs(v[i] * v[j])) for i, j in TENSOR_INDEX[grid.dim])
    floor = SERIES_FLOOR * np.finfo(float).eps * grid.ball_radius * peak
    assert np.all(np.abs(rhs[~kept]) < floor)


def with_noise_outside_ball(u, relative):
    """``u`` plus divergence-free noise of ``relative`` * ||u|| on last-axis
    indices m+1..n/2-1 only: outside the dealias ball, off the self-conjugate
    planes, so the field stays Hermitian, and admissible."""
    grid = u.grid
    cols = slice(grid.ball_radius + 1, grid.n // 2)
    rng = np.random.default_rng(31)
    noise = np.zeros_like(u.data)
    shape = noise[..., cols].shape
    noise[..., cols] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise = leray_project(SpectralVectorField(grid, noise))
    data = u.data.copy()
    data[..., cols] = (relative * u.l2_norm() / noise.l2_norm()) * noise.data[..., cols]
    return SpectralVectorField(grid, data)


# A step reads its velocity from the dealias ball: the round-off that an
# admissible input may carry outside it changes no bit of the right-hand
# side, of the series or of a step.
@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_a_step_reads_the_ball(dim, n):
    u = random_divfree(seed=11, grid=Grid(dim=dim, n=n), peak_k=3, amplitude=1.0)
    noisy = with_noise_outside_ball(u, 1e-12)
    assert np.any(outside_ball(u.grid, noisy.data))
    assert np.array_equal(ns_rhs(noisy, 0.05).data, ns_rhs(u, 0.05).data)
    assert np.array_equal(compute_pressure(noisy).data, compute_pressure(u).data)
    for c, want in zip(taylor_coefficients(noisy, 0.05, 4)[1:],
                       taylor_coefficients(u, 0.05, 4)[1:], strict=True):
        assert np.array_equal(c.data, want.data)
    advance = lie_advance(u.grid, 0.05)
    got, got_stats = advance(noisy, 0.5)
    want, want_stats = advance(u, 0.5)
    assert np.array_equal(got.data, want.data)
    assert got_stats == want_stats
