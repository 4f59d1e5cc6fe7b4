"""Independent ground truth: closed-form decaying flows, a classical RK4
pseudospectral integrator, a reproducible random divergence-free field
generator, the convective term in advective form, and the right-hand side
through the explicit pressure gradient: that advective form plus the
gradient of ``leray.compute_pressure``, scaled by a sign whose flip is the
dissipativity check's negative control.

The RK4 path shares the right-hand side and the step loop ``steps`` with the
series propagator, and the update ``rk4_update`` with the 1-D Burgers bench;
its time-stepping scheme is entirely separate from the series, which is what
makes the two usable as mutual oracles. ``advection_hat`` computes
(a.grad)b from physical velocity gradients with plain complex FFTs of the
completed spectra, independently of the divergence-form kernel in ``leray``
and of its real-to-complex transforms; tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StabilityError
from .grid_spectral import (
    TWO_PI,
    Grid,
    SpectralVectorField,
    complete_hermitian,
)
from .leray import (
    KernelBuffers,
    _require_admissible,
    compute_pressure,
    leray_project,
    ns_rhs,
    rhs_hat,
    viscosity_value,
)
from .lie_propagator import StepStats, final_state, fixed_step, rk4_update

TAYLOR_GREEN_2D = "taylor_green_2d"
TAYLOR_GREEN_3D_EMBEDDED = "taylor_green_3d_embedded"
BELTRAMI_ABC = "beltrami_abc"

_KINDS = (TAYLOR_GREEN_2D, TAYLOR_GREEN_3D_EMBEDDED, BELTRAMI_ABC)


@dataclass(frozen=True)
class AnalyticFlow:
    """A closed-form decaying Navier-Stokes solution on the 2*pi box.

    ``amplitude`` scales the Taylor-Green profiles; ``abc`` holds the three
    coefficients of the Beltrami field (ignored by the other kinds).
    """

    kind: str
    amplitude: float = 1.0
    abc: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown analytic flow kind {self.kind!r}")
        if not math.isfinite(self.amplitude):
            raise ValueError("flow amplitude must be finite")

    @property
    def dim(self) -> int:
        return 2 if self.kind == TAYLOR_GREEN_2D else 3

    def decay_rate(self, nu: float) -> float:
        """Exponential decay rate of the velocity: every mode sits on |k|^2
        eigenvalue 2 (Taylor-Green) or 1 (Beltrami)."""
        return nu if self.kind == BELTRAMI_ABC else 2.0 * nu


def _taylor_green_modes(coef: np.ndarray, amplitude: float, zero_pad: bool) -> None:
    # cos(x) sin(y) has modes -i/4 at (1,+-1)... with signs fixed by the
    # sin factor; writing them exactly keeps the field free of the sampling
    # noise that the viscous series term would amplify like (nu k^2)^n / n!.
    tail = (0,) if zero_pad else ()
    for component, kx, ky, value in (
        (0, 1, 1, -0.25j), (0, 1, -1, +0.25j), (0, -1, 1, -0.25j), (0, -1, -1, +0.25j),
        (1, 1, 1, +0.25j), (1, 1, -1, +0.25j), (1, -1, 1, -0.25j), (1, -1, -1, -0.25j),
    ):
        mode = (kx, ky) + tail
        if mode[-1] >= 0:  # a mode with a negative last index is not stored
            coef[(component, *mode)] = value * amplitude


def _flow_coefficients(flow: AnalyticFlow, grid: Grid) -> np.ndarray:
    """Half spectrum of the flow at t = 0: the modes with a negative last
    index are the conjugates of the ones written."""
    coef = np.zeros((grid.dim, *grid.spectral_shape), dtype=np.complex128)
    if flow.kind == TAYLOR_GREEN_2D:
        _taylor_green_modes(coef, flow.amplitude, zero_pad=False)
    elif flow.kind == TAYLOR_GREEN_3D_EMBEDDED:
        _taylor_green_modes(coef, flow.amplitude, zero_pad=True)
    else:
        a, b, c = flow.abc
        # v1 = a sin z + c cos y
        coef[0, 0, 0, 1] = -0.5j * a
        coef[0, 0, 1, 0] = coef[0, 0, -1, 0] = 0.5 * c
        # v2 = b sin x + a cos z
        coef[1, 1, 0, 0] = -0.5j * b
        coef[1, -1, 0, 0] = +0.5j * b
        coef[1, 0, 0, 1] = 0.5 * a
        # v3 = c sin y + b cos x
        coef[2, 0, 1, 0] = -0.5j * c
        coef[2, 0, -1, 0] = +0.5j * c
        coef[2, 1, 0, 0] = coef[2, -1, 0, 0] = 0.5 * b
    return coef


def analytic_field(
    flow: AnalyticFlow, t: float, nu: float, grid: Grid
) -> SpectralVectorField:
    """Spectral coefficients of the flow at time ``t``, written mode-exactly."""
    nu_val = viscosity_value(nu)
    if grid.dim != flow.dim:
        raise ValueError(
            f"flow kind {flow.kind!r} needs a {flow.dim}-D grid, got {grid.dim}-D"
        )
    if not math.isclose(grid.length, TWO_PI, rel_tol=1e-12):
        raise ValueError("analytic flows are defined on the 2*pi periodic box")
    decay = math.exp(-flow.decay_rate(nu_val) * t)
    return SpectralVectorField(grid, _flow_coefficients(flow, grid) * decay)


def advection_hat(
    grid: Grid, a_hat: np.ndarray, b_hat: np.ndarray | None = None
) -> np.ndarray:
    """Dealiased spectrum of the convective term (a.grad)b (b = a by
    default), formed in advective form from physical gradients d_j b_i."""
    b_hat = a_hat if b_hat is None else b_hat
    grads = np.stack([b_hat * (1j * grid.k_deriv[j]) for j in range(grid.dim)], axis=1)
    axes = tuple(range(-grid.dim, 0))

    def physical(half: np.ndarray) -> np.ndarray:
        full = complete_hermitian(grid, half)
        return np.fft.ifftn(full, axes=axes, norm="forward").real

    adv = np.einsum("j...,ij...->i...", physical(a_hat), physical(grads))
    adv_hat = np.fft.fftn(adv, axes=axes, norm="forward")
    return adv_hat[..., : grid.n // 2 + 1] * grid.dealias_keep


def ns_rhs_via_pressure(
    v: SpectralVectorField, nu: float, pressure_sign: float = 1.0
) -> SpectralVectorField:
    """``ns_rhs`` through the explicit pressure gradient,
    nu*lap(v) - (v.grad)v - pressure_sign * grad(p_v), with the advective
    form from ``advection_hat`` and p_v from ``compute_pressure``: the
    second evaluation path of the gauge-consistency checks. A sign other
    than 1 is the negative control: P[(v.grad)v] - (v.grad)v = grad(p_v), so
    -1 leaves a divergence of twice that of the advection term."""
    nu_val = viscosity_value(nu)
    grid = v.grid
    p_hat = compute_pressure(v).data
    forcing = advection_hat(grid, v.data)
    for a, k in enumerate(grid.k_deriv):
        forcing[a] += (pressure_sign * 1j) * k * p_hat
    return SpectralVectorField(grid, -nu_val * grid.ksq * v.data - forcing)


def rk4_step(
    v: SpectralVectorField, nu: float, dt: float
) -> SpectralVectorField:
    """One classical 4-stage Runge-Kutta step of ``ns_rhs``, re-projected.

    ``ns_rhs`` gives k1 and checks v once. The later stages start from linear
    combinations of v and of right-hand sides, which are projected and
    dealiased, so they are admissible by construction and skip the check."""
    nu_val = viscosity_value(nu)
    grid, work = v.grid, KernelBuffers(v.grid)
    k1 = ns_rhs(v, nu_val).data
    buf = np.empty((4, *k1.shape), dtype=np.complex128)
    u_next = rk4_update(v.data, dt, k1, lambda x, out: rhs_hat(grid, x, nu_val, out, work), buf)
    return leray_project(SpectralVectorField(grid, u_next))


def rk4_advance(grid: Grid, nu: float, dt: float):
    """Fixed-step RK4 on ``grid`` as an ``advance`` for ``steps``, reusing one
    array of slopes and one set of kernel buffers for the whole run. Enforces
    the explicit diffusion bound dt <= 0.5*dx^2/nu for nu > 0.

    ``advance(v, remaining)`` does not check v: v must be divergence-free and
    dealiased, as ``rk4_propagate`` checks its initial field to be and as
    every step's projected output is."""
    nu_val = viscosity_value(nu)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"rk4 step size must be positive and finite, got {dt}")
    if nu_val > 0.0:
        dt_max = 0.5 * grid.spacing**2 / nu_val
        if dt > dt_max:
            raise StabilityError("rk4 step exceeds the explicit stability bound", dt_max)
    slopes = np.empty((5, grid.dim, *grid.spectral_shape), dtype=np.complex128)
    work = KernelBuffers(grid)

    def rhs(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return rhs_hat(grid, x, nu_val, out, work)

    def advance(v: SpectralVectorField, remaining: float):
        h = fixed_step(dt, remaining)
        u_next = rk4_update(v.data, h, rhs(v.data, slopes[0]), rhs, slopes[1:])
        return leray_project(SpectralVectorField(grid, u_next)), StepStats(order_used=4, dt=h)

    return advance


def rk4_propagate(
    u: SpectralVectorField, nu: float, t_end: float, dt: float
) -> SpectralVectorField:
    """Advance ``u`` to ``t_end`` with fixed-step RK4 (see ``rk4_advance``);
    rejects initial data that is not divergence-free and dealiased."""
    advance = rk4_advance(u.grid, nu, dt)
    _require_admissible(u, "rk4_propagate")
    return final_state(u, t_end, advance)


def random_divfree(
    seed: int, grid: Grid, peak_k: int, amplitude: float
) -> SpectralVectorField:
    """Reproducible random divergence-free field, band-limited to the 2/3 ball.

    Gaussian coefficients are drawn from a counter-based (Philox) generator
    keyed by ``seed``, weighted by |k|^4 * exp(-(|k|/peak_k)^2), Leray
    projected, Hermitian-symmetrized, zero-mean, and rescaled so the L2 norm
    equals ``amplitude`` (energy amplitude^2/2).
    """
    if peak_k < 1 or 3 * peak_k > grid.n:
        raise ValueError(
            f"peak_k must lie inside the dealias ball: 1 <= peak_k <= {grid.n // 3}"
        )
    if not (math.isfinite(amplitude) and amplitude > 0.0):
        raise ValueError("amplitude must be positive and finite")
    rng = np.random.Generator(np.random.Philox(seed))
    shape = (grid.dim, *grid.shape)
    draws = np.empty(shape, dtype=complex)
    draws.real = rng.standard_normal(shape)
    draws.imag = rng.standard_normal(shape)
    # The draws fill the full grid; their Hermitian part is the spectrum of a
    # real field. Only its half spectrum is formed: each mode k averages
    # draws[k] with the conjugate of draws[-k], gathered by index.
    n = grid.n
    minus = -np.arange(n) % n  # the index of -k along a complete axis
    coef = draws[(slice(None), *np.ix_(*[minus] * (grid.dim - 1), minus[: n // 2 + 1]))]
    np.conj(coef, out=coef)
    coef += draws[..., : n // 2 + 1]
    del draws  # the full grid goes before the weighting allocates
    coef *= 0.5
    weight = grid.k_magnitude**4 * np.exp(-((grid.k_magnitude / peak_k) ** 2))
    coef *= weight * grid.dealias_keep
    coef[(slice(None),) + (0,) * grid.dim] = 0.0  # zero mean
    field = leray_project(SpectralVectorField(grid, coef))
    norm = field.l2_norm()
    if norm == 0.0:
        raise ValueError("random field degenerated to zero; widen the spectrum")
    return (amplitude / norm) * field
