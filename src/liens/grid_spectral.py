"""Periodic-box field representation and spectral primitives.

Everything downstream (projection, propagation, diagnostics) is built on the
types and operations here: forward/inverse Fourier transforms with a fixed
normalization, spectral differentiation with a zeroed Nyquist mode, 2/3-rule
dealiasing, and a binary snapshot format for field I/O.

Conventions
-----------
* Physical samples live on the uniform grid x_j = j * l / n, axis order
  (x, y[, z]), built with ``indexing="ij"``.
* The forward transform is normalized by 1/n^dim, the inverse is the plain
  unnormalized sum, so the coefficient of ``exp(i k.x)`` is read off directly
  (``sin x`` has coefficient -i/2 at k=(1,0,...)).
* The integer mode index j runs 0..n-1; the signed index is j for
  j <= n/2 and j-n above, so the Nyquist index n/2 carries the positive sign.
  Only ``Grid.k_1d`` scales it to the physical k = 2*pi j / l (derivatives,
  ``ksq``, the series floor); spectra and the random field read the index.
* Every spectral array is a half spectrum, the layout ``rfftn`` returns:
  every grid axis but the last is complete, the last keeps indices 0..n/2
  only. A negative index on the last axis therefore counts back from n/2
  (index -1 is the Nyquist column), not to mode -1. The omitted modes are the
  conjugates of their reflections k -> -k, so every spectral field is the
  spectrum of a real field by construction, except on the two self-conjugate
  planes (last-axis index 0 and n/2), whose symmetry ``to_physical`` checks.
* ``Grid``'s wavenumber tables have the half-spectrum shape. ``Grid.weight``
  counts the full-spectrum modes each stored mode stands for, and
  ``parseval_sum`` turns a per-mode density into the integral over the box.
* Differentiation multiplies by i*k and zeroes the Nyquist mode, keeping
  derivatives of real fields real.
* The dealias ball is the block of a half spectrum that the 2/3 rule keeps:
  indices 0..m and n-m..n-1 of every complete axis and 0..m of the last one,
  m = n // 3 (``Grid.ball_radius``). ``Grid.dealias_keep`` is the ball set in
  a half spectrum; the ``ball_*`` tables are copies of the tables on it.
* ``numpy.fft`` is the one FFT backend, on one thread: ``rfftn`` and
  ``irfftn`` transform the last grid axis real-to-complex (``rfft``) and then
  run complex ``fft`` over the other grid axes. ``fftn_forward(...,
  ball=True)`` runs the same passes in the same order but keeps only the
  ball's lines of each axis for the next pass, so it returns the compact
  ball of the masked half spectrum bit for bit, in 0.70 of the time of the
  whole transform and mask at 32^3, 0.48 at 64^3 and 0.72 at 128^2 (one
  component, 2-core x86 VM). ``ifftn_real(..., ball=True)`` mirrors it: it
  runs ``irfftn``'s passes in ``irfftn``'s order on the ball's lines only,
  widening one axis to its n points before each pass, so it returns the
  inverse of the ball scattered into a half spectrum bit for bit. With its
  temporaries reused from the heap it takes 0.70-0.85 of the whole
  inverse's time at 64^3 and 0.75-1.0 at 32^3, but 1.1 at 128^2 (one
  vector, same VM). The nonlinear kernel transforms forward that way, and
  it transforms back that way every velocity a step reads: each series
  coefficient, c_0 included, and the input of ``leray.Kernel.rhs``. Every
  other transform is whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import FieldError, SnapshotFormatError, positive_finite, rule

TWO_PI = 2.0 * math.pi

SNAPSHOT_MAGIC = "LIENS1"

# Relative tolerance of the Hermitian symmetry checks.
HERMITIAN_RTOL = 1e-10

def fft_worker_count() -> int:
    """Number of threads the FFTs run on: always 1 (``numpy.fft`` is
    single-threaded). Kept so run records can state it."""
    return 1


grid_dim = rule("must be 2 or 3", lambda v: v in (2, 3))
grid_points = rule("must be a power of two >= 8", lambda v: v >= 8 and v & (v - 1) == 0)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic box: ``dim`` axes, ``n`` points per axis, side ``length``.

    ``dim`` and ``n`` follow ``grid_dim`` and ``grid_points``; the box is
    isotropic (one n, one length for every axis). The length must keep the
    volume and the largest |k|^2 representable (see ``__post_init__``).
    """

    dim: int
    n: int
    length: float = TWO_PI

    def __post_init__(self):
        grid_dim("grid dim", self.dim)
        grid_points("grid n", self.n)
        positive_finite("grid length", self.length)
        # The one rule on the length. Every norm is scaled by the volume
        # (``parseval_sum``) and ``ksq`` forms |k|^2 up to its largest value,
        # so both must be finite positive floats.
        try:
            volume = self.volume
        except OverflowError:
            volume = math.inf
        k_squared = self.largest_k * self.largest_k
        if not (0.0 < volume < math.inf and 0.0 < k_squared < math.inf):
            raise ValueError(
                f"grid length {self.length!r} is out of range for dim {self.dim}, n {self.n}:"
                f" the box volume length**{self.dim} and the largest |k|^2 must be finite"
                " positive floats"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of a half spectrum: the last grid axis keeps indices 0..n/2."""
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def volume(self) -> float:
        return self.length**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @cached_property
    def mode_index_1d(self) -> np.ndarray:
        """Signed integer mode index per axis position, Nyquist at +n/2."""
        j = np.arange(self.n)
        return np.where(j <= self.n // 2, j, j - self.n)

    @cached_property
    def k_1d(self) -> np.ndarray:
        return (TWO_PI / self.length) * self.mode_index_1d.astype(np.float64)

    @cached_property
    def k_deriv_1d(self) -> np.ndarray:
        """Differentiation wavenumbers: as ``k_1d`` but with the Nyquist mode
        zeroed (its sign is ambiguous; zeroing keeps real fields real)."""
        k = self.k_1d.copy()
        k[self.n // 2] = 0.0
        return k

    @property
    def ball_radius(self) -> int:
        """m = n // 3, the largest |j| the 2/3 rule keeps on any axis: the one
        statement of the rule, which every ``ball`` member and pass reads."""
        return self.n // 3

    def _axis_view(self, values: np.ndarray, axis: int, ball: bool = False) -> np.ndarray:
        """Reshape a per-axis 1-D table so it broadcasts along spectral axis
        ``axis`` of a half spectrum (the last axis keeps indices 0..n/2) or,
        with ``ball``, of the dealias ball (see ``ball_shape``)."""
        n, m = self.n, self.ball_radius
        if ball and axis < self.dim - 1:
            values = np.concatenate((values[: m + 1], values[n - m :]))
        elif ball:
            values = values[: m + 1]
        elif axis == self.dim - 1:
            values = values[: n // 2 + 1]
        shape = [1] * self.dim
        shape[axis] = len(values)
        return values.reshape(shape)

    @cached_property
    def k_deriv(self) -> tuple[np.ndarray, ...]:
        """Broadcastable differentiation wavenumber array per axis."""
        return tuple(self._axis_view(self.k_deriv_1d, a) for a in range(self.dim))

    @cached_property
    def ksq(self) -> np.ndarray:
        """|k|^2 built from the differentiation wavenumbers, summed in axis order."""
        out = np.zeros(self.spectral_shape)
        for k_a in self.k_deriv:
            out = out + k_a**2
        return out

    @cached_property
    def inv_ksq(self) -> np.ndarray:
        """1/|k|^2 with zeros where |k|^2 = 0 (mean mode and bare Nyquist planes)."""
        safe = np.where(self.ksq > 0.0, self.ksq, 1.0)
        return np.where(self.ksq > 0.0, 1.0 / safe, 0.0)

    @property
    def ball_shape(self) -> tuple[int, ...]:
        """Shape of the dealias ball, the block of a half spectrum that the
        2/3 rule keeps: indices 0..m and n-m..n-1 of every complete axis and
        0..m of the last one, m = ``ball_radius``, in that order."""
        m = self.ball_radius
        return (2 * m + 1,) * (self.dim - 1) + (m + 1,)

    @cached_property
    def ball_blocks(self) -> tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]:
        """The ball as slice blocks over the grid axes: (half-spectrum index,
        ball index) pairs, one for each choice of the low or the high end of
        every complete axis."""
        n, m = self.n, self.ball_radius
        low = slice(0, m + 1)
        ends = ((low, low), (slice(n - m, n), slice(m + 1, 2 * m + 1)))
        blocks = [((low,), (low,))]
        for _ in range(self.dim - 1):
            blocks = [((h, *half), (b, *ball)) for h, b in ends for half, ball in blocks]
        return tuple(blocks)

    @cached_property
    def ball_k_deriv(self) -> tuple[np.ndarray, ...]:
        """``k_deriv`` on the ball."""
        return tuple(self._axis_view(self.k_deriv_1d, a, ball=True) for a in range(self.dim))

    @cached_property
    def ball_ksq(self) -> np.ndarray:
        """A copy of ``ksq`` on the ball."""
        return gather_ball(self, self.ksq, np.empty(self.ball_shape))

    @cached_property
    def ball_inv_ksq(self) -> np.ndarray:
        """A copy of ``inv_ksq`` on the ball (zero at k = 0 only)."""
        return gather_ball(self, self.inv_ksq, np.empty(self.ball_shape))

    @cached_property
    def dealias_keep(self) -> np.ndarray:
        """Boolean mask of surviving modes: the ball, set in a half spectrum."""
        keep = np.ones(self.ball_shape, dtype=bool)
        return scatter_ball(self, keep, np.empty(self.spectral_shape, dtype=bool))

    @cached_property
    def weight(self) -> np.ndarray:
        """Full-spectrum modes each stored mode stands for, along the last
        axis: 1 on the self-conjugate planes j = 0 and j = n/2, 2 elsewhere."""
        weight = np.full(self.n // 2 + 1, 2.0)
        weight[[0, self.n // 2]] = 1.0
        return weight

    @property
    def largest_k(self) -> float:
        """The largest physical |k|, 2*pi/length times the largest entry of
        ``mode_magnitude`` (Nyquist on every axis), without building it."""
        k_nyquist = (TWO_PI / self.length) * (self.n // 2)
        return math.sqrt(sum([k_nyquist * k_nyquist] * self.dim))

    @cached_property
    def mode_magnitude(self) -> np.ndarray:
        """|j| per mode, the norm of the signed mode indices (Nyquist at full
        magnitude): |k| in units of 2*pi/length, for spectra and random fields."""
        out = np.zeros(self.spectral_shape)
        for a in range(self.dim):
            out = out + self._axis_view(self.mode_index_1d, a) ** 2
        return np.sqrt(out)

    @cached_property
    def x_1d(self) -> np.ndarray:
        return np.arange(self.n) * self.spacing

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Physical coordinate arrays, one per axis, ``indexing="ij"``."""
        return tuple(np.meshgrid(*(self.x_1d,) * self.dim, indexing="ij"))


# ---------------------------------------------------------------------------
# low-level transforms on raw arrays (trailing axes are the grid axes)
# ---------------------------------------------------------------------------


def _grid_axes(grid: Grid, arr: np.ndarray) -> tuple[int, ...]:
    return tuple(range(arr.ndim - grid.dim, arr.ndim))


def fftn_forward(grid: Grid, values: np.ndarray, *, ball: bool = False) -> np.ndarray:
    """Half spectrum of real values on the trailing grid axes, 1/n^dim
    normalization. With ``ball``, only its dealias ball, compact (trailing
    shape ``grid.ball_shape``): the 1-D passes of ``rfftn``, in its order,
    each keeping only the ball's lines of its axis before the next pass runs,
    so every kept mode is bit for bit that of the whole transform."""
    if not ball:
        return np.fft.rfftn(values, axes=_grid_axes(grid, values), norm="forward")
    n, m = grid.n, grid.ball_radius
    out = np.fft.rfft(values, axis=-1, norm="forward")[..., : m + 1]
    for axis in range(-2, -grid.dim - 1, -1):
        out = np.fft.fft(out, axis=axis, norm="forward")
        rest = (slice(None),) * (-axis - 1)
        low, high = out[(..., slice(0, m + 1), *rest)], out[(..., slice(n - m, n), *rest)]
        out = np.concatenate((low, high), axis=axis)
    return out


def gather_ball(grid: Grid, half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy the dealias ball of a half spectrum into ``out`` (trailing shape
    ``grid.ball_shape``) and return it."""
    for h, b in grid.ball_blocks:
        out[(..., *b)] = half[(..., *h)]
    return out


def scatter_ball(grid: Grid, ball: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write a compact ball into the half spectrum ``out``, zero outside the
    ball, and return it."""
    out.fill(0.0)
    for h, b in grid.ball_blocks:
        out[(..., *h)] = ball[(..., *b)]
    return out


def ifftn_real(grid: Grid, coefficients: np.ndarray, *, ball: bool = False) -> np.ndarray:
    """Real values of a half spectrum on the trailing grid axes, the
    unnormalized inverse sum. With ``ball``, of a compact dealias ball
    (trailing shape ``grid.ball_shape``) that stands for the half spectrum
    zero outside it: the 1-D passes of ``irfftn``, in its order, each run
    only on the lines that can be nonzero, so every value is bit for bit
    that of the whole inverse of the scattered ball."""
    if not ball:
        return np.fft.irfftn(
            coefficients, s=grid.shape, axes=_grid_axes(grid, coefficients), norm="forward"
        )
    out = coefficients
    for axis in range(-grid.dim, -1):
        out = np.fft.ifft(_widen(grid, out, axis), axis=axis, norm="forward")
    # irfft pads the last axis from m + 1 to n // 2 + 1 with zeros itself
    return np.fft.irfft(out, n=grid.n, axis=-1, norm="forward")


def _widen(grid: Grid, lines: np.ndarray, axis: int) -> np.ndarray:
    """A copy of ``lines`` with its complete grid axis ``axis`` (negative)
    widened from the ball's 2m + 1 indices to all n, zero between the low
    and the high end: the inverse of the narrowing in ``fftn_forward``."""
    n, m = grid.n, grid.ball_radius
    rest = (slice(None),) * (-axis - 1)
    gap = np.zeros((*lines.shape[:axis], n - 2 * m - 1, *lines.shape[axis + 1 :]), np.complex128)
    low, high = lines[(..., slice(0, m + 1), *rest)], lines[(..., slice(m + 1, None), *rest)]
    return np.concatenate((low, gap, high), axis=axis)


def reflect_modes(grid: Grid, coefficients: np.ndarray) -> np.ndarray:
    """Return the full-spectrum array re-indexed k -> -k on every grid axis.

    On the self-conjugate planes of a half spectrum, ``data[..., ::n // 2]``,
    it reflects the plane: their two last-axis indices 0 and n/2 are their
    own reflections."""
    out = coefficients
    for ax in _grid_axes(grid, coefficients):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def complete_hermitian(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full spectrum of a real field from its half spectrum: the mode at k
    with last-axis index above n/2 is the conjugate of the mode at -k."""
    n = grid.n
    minus = -np.arange(n) % n  # the index of -k along a complete axis
    mirror = half[(..., *np.ix_(*[minus] * (grid.dim - 1)), slice(n // 2 - 1, 0, -1))]
    return np.concatenate((half, np.conj(mirror)), axis=-1)


def _conjugate_mismatch(grid: Grid, coefficients: np.ndarray) -> float:
    """sqrt(sum |c_k - conj(c_-k)|^2) over a full spectrum or a set of
    self-conjugate planes."""
    defect = coefficients - np.conj(reflect_modes(grid, coefficients))
    return math.sqrt(float(np.sum(np.abs(defect) ** 2)))


def overflow_note(measure: float) -> str:
    """What the message of a relative check that fails on a NaN or infinite
    measure adds: the fields are finite, so their norms overflowed."""
    return "" if math.isfinite(measure) else "; the field's norms overflow float64"


def parseval_sum(grid: Grid, density: np.ndarray, *, ball: bool = False) -> float:
    """The integral over the box that a per-mode density on the half spectrum
    stands for (|c_k|^2 gives the squared L2 norm, Re conj(a_k) b_k the inner
    product): volume times the full-spectrum sum, which counts every stored
    mode ``Grid.weight`` times. With ``ball``, of a density on the compact
    dealias ball, which stands for the half spectrum zero outside it."""
    weight = grid.weight[: grid.ball_radius + 1] if ball else grid.weight
    return grid.volume * float(np.sum(density * weight))


# ---------------------------------------------------------------------------
# field types
# ---------------------------------------------------------------------------


def _coerce(field, dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Set ``field.data`` to a frozen ``dtype`` array of ``shape`` with finite
    entries, or raise ``FieldError`` naming ``what``; return the array."""
    arr = np.asarray(field.data, dtype=dtype)
    if arr.shape != shape:
        raise FieldError(f"{what} shape {arr.shape} does not match grid {shape}")
    if not np.isfinite(arr).all():
        entries = "samples" if dtype is np.float64 else "coefficients"
        raise FieldError(f"{what} contains non-finite {entries}")
    arr.setflags(write=False)
    object.__setattr__(field, "data", arr)
    return arr


@dataclass(frozen=True)
class RealVectorField:
    """Velocity-like field sampled in physical space; data shape (dim, n, ..)."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        _coerce(self, np.float64, (self.grid.dim, *self.grid.shape), "physical field")

    def l2_norm(self) -> float:
        return math.sqrt(self.grid.cell_volume * float(np.sum(self.data**2)))


class _SpectralArithmetic:
    """Shared elementwise arithmetic for spectral field wrappers."""

    def with_data(self, data: np.ndarray):
        return type(self)(self.grid, data)

    def __add__(self, other):
        if type(other) is not type(self) or other.grid != self.grid:
            return NotImplemented
        return self.with_data(self.data + other.data)

    def __sub__(self, other):
        if type(other) is not type(self) or other.grid != self.grid:
            return NotImplemented
        return self.with_data(self.data - other.data)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return self.with_data(self.data * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self.with_data(-self.data)

    def l2_norm(self) -> float:
        return math.sqrt(parseval_sum(self.grid, np.abs(self.data) ** 2))


@dataclass(frozen=True)
class SpectralVectorField(_SpectralArithmetic):
    """Half-spectrum Fourier coefficients of a real vector field; data shape
    (dim, *grid.spectral_shape).

    The layout holds only one of every conjugate pair k, -k, so Hermitian
    symmetry holds by construction off the self-conjugate planes (last-axis
    index 0 and n/2); ``to_physical`` checks those.
    """

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        shape = (self.grid.dim, *self.grid.spectral_shape)
        _coerce(self, np.complex128, shape, "spectral field")


@dataclass(frozen=True)
class SpectralScalarField(_SpectralArithmetic):
    """Half-spectrum Fourier coefficients of a real scalar field (pressure
    and friends), shape ``grid.spectral_shape``; the mean (k = 0) coefficient
    must be real."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        arr = _coerce(self, np.complex128, self.grid.spectral_shape, "spectral scalar")
        mean = arr[(0,) * self.grid.dim]
        scale = float(np.max(np.abs(arr))) if arr.size else 0.0
        if abs(mean.imag) > HERMITIAN_RTOL * max(scale, 1e-300):
            raise FieldError(
                f"mean coefficient of a real scalar field must be real "
                f"(imag {mean.imag:.3e})"
            )


SpectralField = SpectralVectorField | SpectralScalarField


def hermitian_defect(field: SpectralField) -> float:
    """Relative size of the Hermitian-symmetry violation of the full spectrum
    the field stands for, 0 for a clean field. Only the self-conjugate planes
    can break it; every other stored mode implies its conjugate partner."""
    norm = field.l2_norm()
    if norm == 0.0:
        return 0.0
    planes = field.data[..., :: field.grid.n // 2]
    return math.sqrt(field.grid.volume) * _conjugate_mismatch(field.grid, planes) / norm


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def to_spectral(f: RealVectorField) -> SpectralVectorField:
    """Forward transform; the k-th coefficient is (1/n^dim) sum f(x) e^{-ik.x}."""
    return SpectralVectorField(f.grid, fftn_forward(f.grid, f.data))


def to_physical(s: SpectralVectorField) -> RealVectorField:
    """Inverse transform back to physical samples. Rejects fields whose
    self-conjugate planes break Hermitian symmetry beyond 1e-10 relative (a
    NaN defect, from norms that overflow, too)."""
    defect = hermitian_defect(s)
    if not defect <= HERMITIAN_RTOL:
        raise FieldError(
            "spectral field breaks Hermitian symmetry "
            f"(relative defect {defect:.3e}{overflow_note(defect)})"
        )
    return RealVectorField(s.grid, ifftn_real(s.grid, s.data))


def derivative(s: SpectralField, axis: int) -> SpectralField:
    """Spectral partial derivative along ``axis`` (Nyquist mode zeroed)."""
    grid = s.grid
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    return s.with_data(s.data * (1j * grid.k_deriv[axis]))


def dealias(s: SpectralField) -> SpectralField:
    """2/3-rule truncation: zero every mode with any axis index |j| > n/3."""
    return s.with_data(s.data * s.grid.dealias_keep)


def dealias_defect(s: SpectralField) -> float:
    """Relative energy fraction outside the 2/3 ball (0 for a dealiased field)."""
    norm = s.l2_norm()
    if norm == 0.0:
        return 0.0
    outside = s.data * ~s.grid.dealias_keep
    return math.sqrt(parseval_sum(s.grid, np.abs(outside) ** 2)) / norm


def divergence(v: SpectralVectorField) -> SpectralScalarField:
    """div v as a spectral scalar field (derivative conventions as above)."""
    grid = v.grid
    acc = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for a in range(grid.dim):
        acc += 1j * grid.k_deriv[a] * v.data[a]
    return SpectralScalarField(grid, acc)


def enstrophy_norm(v: SpectralVectorField) -> float:
    """Gradient-square integral sum_ij int (d_j v_i)^2 dx."""
    grid = v.grid
    return parseval_sum(grid, grid.ksq * np.sum(np.abs(v.data) ** 2, axis=0))


def relative_divergence(v: SpectralVectorField) -> float:
    """‖div v‖_2 / ‖grad v‖_2, with ‖grad v‖_2^2 = ``enstrophy_norm(v)``;
    zero for a constant (gradient-free) field."""
    grad = math.sqrt(enstrophy_norm(v))
    if grad == 0.0:
        return 0.0
    return divergence(v).l2_norm() / grad


def div_max(v: SpectralVectorField) -> float:
    """Max-norm of the physical-space divergence."""
    return float(np.max(np.abs(ifftn_real(v.grid, divergence(v).data))))


def inner_product(a: SpectralVectorField, b: SpectralVectorField) -> float:
    """L2 inner product <a, b> = int a.b dx, evaluated via Parseval."""
    if a.grid != b.grid:
        raise FieldError("inner product requires matching grids")
    return parseval_sum(a.grid, (np.conj(a.data) * b.data).real)


# ---------------------------------------------------------------------------
# binary snapshot format
# ---------------------------------------------------------------------------
#
# Layout: one ASCII header line
#     LIENS1 dim n l component_count kind\n
# with kind in {physical, spectral}, followed by the payload: one array of
# the kind's little-endian dtype, component-major, x-fastest within a
# component. A physical sample is one float64; a spectral coefficient is one
# complex128, which is the same bytes as the float64 pair (real, imaginary).
# Spectral data is the full spectrum (n^dim coefficients per component): it
# is completed from the half spectrum on write, and on read its Hermitian
# symmetry is checked before it is cut back to the half spectrum.

_SNAPSHOT_DTYPES = {"physical": "<f8", "spectral": "<c16"}


def _x_fastest(dim: int) -> tuple[int, ...]:
    """The payload's axis order, x last; the permutation is its own inverse."""
    return (0, *range(dim, 0, -1))


def write_snapshot(path: str | Path, field: RealVectorField | SpectralVectorField) -> None:
    grid = field.grid
    kind = "physical" if isinstance(field, RealVectorField) else "spectral"
    header = f"{SNAPSHOT_MAGIC} {grid.dim} {grid.n} {grid.length:.17g} {grid.dim} {kind}\n"
    data = field.data if kind == "physical" else complete_hermitian(grid, field.data)
    payload = np.transpose(data, _x_fastest(grid.dim))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(payload, _SNAPSHOT_DTYPES[kind]).data)


def read_snapshot(path: str | Path) -> RealVectorField | SpectralVectorField:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").strip()
        parts = header.split()
        if len(parts) != 6 or parts[0] != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"bad snapshot header: {header!r}")
        try:
            dim, n = int(parts[1]), int(parts[2])
            length = float(parts[3])
            ncomp = int(parts[4])
        except ValueError as exc:
            raise SnapshotFormatError(f"unparseable snapshot header: {header!r}") from exc
        kind = parts[5]
        if kind not in _SNAPSHOT_DTYPES:
            raise SnapshotFormatError(f"unknown snapshot kind {kind!r}")
        try:
            grid = Grid(dim=dim, n=n, length=length)
        except ValueError as exc:
            raise SnapshotFormatError(f"bad snapshot header {header!r}: {exc}") from exc
        if ncomp != dim:
            raise SnapshotFormatError(
                f"snapshot component count {ncomp} does not match dim {dim}"
            )
        raw = fh.read()
    dtype = np.dtype(_SNAPSHOT_DTYPES[kind])
    expected = dtype.itemsize * ncomp * n**dim
    if len(raw) != expected:
        raise SnapshotFormatError(
            f"snapshot payload has {len(raw)} bytes, expected {expected}"
        )
    payload = np.frombuffer(raw, dtype).reshape((ncomp, *grid.shape))
    data = np.transpose(payload, _x_fastest(dim))
    if kind == "physical":
        return RealVectorField(grid, data)
    if not np.isfinite(data).all():
        raise SnapshotFormatError("spectral snapshot contains non-finite coefficients")
    norm = math.sqrt(float(np.sum(np.abs(data) ** 2)))
    defect = _conjugate_mismatch(grid, data) / norm if norm else 0.0
    if not defect <= HERMITIAN_RTOL:
        raise SnapshotFormatError(
            "spectral snapshot breaks Hermitian symmetry "
            f"(relative defect {defect:.3e}{overflow_note(defect)})"
        )
    return SpectralVectorField(grid, np.ascontiguousarray(data[..., : n // 2 + 1]))
