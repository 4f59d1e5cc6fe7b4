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

from .errors import StabilityError, finite, nonnegative_count, positive_finite, rule
from .grid_spectral import (
    TWO_PI,
    Grid,
    SpectralVectorField,
    complete_hermitian,
    parseval_sum,
    reflect_modes,
)
from .leray import (
    Kernel,
    _require_admissible,
    compute_pressure,
    ns_rhs,
    project_half,
    viscosity_value,
)
from .lie_propagator import StepStats, final_state, fixed_step, rk4_update

TAYLOR_GREEN_2D = "taylor_green_2d"
TAYLOR_GREEN_3D_EMBEDDED = "taylor_green_3d_embedded"
BELTRAMI_ABC = "beltrami_abc"

ANALYTIC_KINDS = (TAYLOR_GREEN_2D, TAYLOR_GREEN_3D_EMBEDDED, BELTRAMI_ABC)


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
        if self.kind not in ANALYTIC_KINDS:
            raise ValueError(f"unknown analytic flow kind {self.kind!r}")
        finite("amplitude", self.amplitude)
        for i, coefficient in enumerate(self.abc):
            finite(f"abc[{i}]", coefficient)

    @property
    def dim(self) -> int:
        return 2 if self.kind == TAYLOR_GREEN_2D else 3

    def check_grid(self, name: str, grid: Grid, length: str = "grid.length") -> None:
        """Rule on a grid for the flow ``name``: its dimension and the 2*pi
        box, whose side the caller calls ``length``."""
        if grid.dim != self.dim:
            raise ValueError(f"{name} {self.kind} needs grid.dim = {self.dim}, got {grid.dim!r}")
        if not math.isclose(grid.length, TWO_PI, rel_tol=1e-12):
            raise ValueError(
                f"{name} {self.kind} needs {length} = 2*pi (the 2*pi periodic box),"
                f" got {grid.length!r}"
            )

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
    flow.check_grid("flow kind", grid)
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
    k1 = ns_rhs(v, nu).data
    buf = np.empty((4, *k1.shape), dtype=np.complex128)
    u_next = rk4_update(v.data, dt, k1, Kernel(v.grid, nu).rhs, buf)
    project_half(v.grid, u_next, buf[0])  # the spent stage buffer
    return SpectralVectorField(v.grid, u_next)


def rk4_advance(grid: Grid, nu: float, dt: float):
    """Fixed-step RK4 on ``grid`` as an ``advance`` for ``steps``, reusing one
    array of slopes and one ``leray.Kernel`` for the whole run; each update
    is projected in place, through the spent stage buffer. Enforces the
    explicit diffusion bound dt <= 0.5*dx^2/nu for nu > 0.

    ``advance(v, remaining)`` does not check v: v must be divergence-free and
    dealiased, as ``rk4_propagate`` checks its initial field to be and as
    every step's projected output is."""
    kernel = Kernel(grid, nu)
    positive_finite("rk4 step size dt", dt)
    if kernel.nu > 0.0:
        dt_max = 0.5 * grid.spacing**2 / kernel.nu
        if dt > dt_max:
            raise StabilityError("rk4 step exceeds the explicit stability bound", dt_max)
    slopes = np.empty((5, grid.dim, *grid.spectral_shape), dtype=np.complex128)
    rhs = kernel.rhs

    def advance(v: SpectralVectorField, remaining: float):
        h = fixed_step(dt, remaining)
        u_next = rk4_update(v.data, h, rhs(v.data, slopes[0]), rhs, slopes[1:])
        project_half(grid, u_next, slopes[1])
        return SpectralVectorField(grid, u_next), StepStats(order_used=4, dt=h)

    return advance


def rk4_propagate(
    u: SpectralVectorField, nu: float, t_end: float, dt: float
) -> SpectralVectorField:
    """Advance ``u`` to ``t_end`` with fixed-step RK4 (see ``rk4_advance``);
    rejects initial data that is not divergence-free and dealiased."""
    advance = rk4_advance(u.grid, nu, dt)
    _require_admissible(u, "rk4_propagate")
    return final_state(u, t_end, advance)


def peak_in_ball(grid: Grid):
    """The rule on a random field's peak mode index on ``grid``."""
    r = grid.ball_radius
    return rule(f"must lie in 1..{r} (inside the dealias ball)", lambda v: 1 <= v <= r)


def random_divfree(
    seed: int, grid: Grid, peak_k: int, amplitude: float
) -> SpectralVectorField:
    """Reproducible random divergence-free field, band-limited to the 2/3 ball.

    Gaussian coefficients are drawn from a counter-based (Philox) generator
    keyed by ``seed``, weighted by |j|^4 * exp(-(|j|/peak_k)^2) in the mode
    index |j| = |k| l / 2 pi for any box length l, Leray projected,
    Hermitian-symmetrized, zero-mean, and rescaled so the L2 norm equals
    ``amplitude`` (energy amplitude^2/2).
    """
    nonnegative_count("seed", seed)
    peak_in_ball(grid)("peak_k", peak_k)
    positive_finite("amplitude", amplitude)
    rng = np.random.Generator(np.random.Philox(seed))
    shape = (grid.dim, *grid.shape)
    draws = np.empty(shape, dtype=complex)
    draws.real = rng.standard_normal(shape)
    draws.imag = rng.standard_normal(shape)
    # The draws fill the full grid; the half spectrum of their Hermitian part
    # is the spectrum of a real field, C-ordered (sliced before it is scaled).
    coef = 0.5 * (draws + np.conj(reflect_modes(grid, draws)))[..., : grid.n // 2 + 1]
    del draws  # the full grid goes before the weighting allocates
    weight = grid.mode_magnitude**4 * np.exp(-((grid.mode_magnitude / peak_k) ** 2))
    coef *= weight * grid.dealias_keep
    coef[(slice(None),) + (0,) * grid.dim] = 0.0  # zero mean
    project_half(grid, coef, np.empty((2, *grid.spectral_shape), dtype=np.complex128))
    norm = math.sqrt(parseval_sum(grid, np.abs(coef) ** 2))
    if norm == 0.0:
        raise ValueError("random field degenerated to zero; widen the spectrum")
    coef *= amplitude / norm
    return SpectralVectorField(grid, coef)
