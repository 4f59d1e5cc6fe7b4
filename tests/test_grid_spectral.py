"""Transforms, derivatives, dealiasing, and snapshot round-trips."""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from liens import (
    Grid,
    RealVectorField,
    SpectralScalarField,
    SpectralVectorField,
    dealias,
    derivative,
    to_physical,
    to_spectral,
)
from liens.errors import FieldError, SnapshotFormatError
from liens.grid_spectral import (
    complete_hermitian,
    dealias_defect,
    divergence,
    hermitian_defect,
    inner_product,
    read_snapshot,
    reflect_modes,
    relative_divergence,
    write_snapshot,
)

from conftest import random_real_field


def rule_of_thirds(g):
    """The 2/3 rule mode by mode, independent of the ball: a mode survives
    when every signed axis index j has 3|j| <= n."""
    kept = 3 * np.abs(g.mode_index_1d) <= g.n
    axes = [kept] * (g.dim - 1) + [kept[: g.n // 2 + 1]]
    return np.logical_and.reduce(np.meshgrid(*axes, indexing="ij"))


BALL_GRIDS = [(dim, n) for dim in (2, 3) for n in (8, 16, 32, 64)]


class TestGrid:
    def test_valid_construction(self):
        g = Grid(dim=2, n=64)
        assert g.shape == (64, 64)
        assert math.isclose(g.length, 2 * math.pi)
        assert math.isclose(g.volume, (2 * math.pi) ** 2)

    @pytest.mark.parametrize("dim", [0, 1, 4])
    def test_bad_dim(self, dim):
        with pytest.raises(ValueError, match="dim"):
            Grid(dim=dim, n=16)

    @pytest.mark.parametrize("n", [4, 10, 12, 17, 48])
    def test_bad_n(self, n):
        with pytest.raises(ValueError, match="power of two"):
            Grid(dim=2, n=n)

    # 1e300 overflowed the volume (OverflowError in parseval_sum), and
    # 1e-160 and 1e-300 overflow the largest |k|^2.
    @pytest.mark.parametrize("length", [1e300, 1e-160, 1e-300])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_length_out_of_range(self, dim, length):
        with pytest.raises(ValueError, match="grid length .* is out of range"):
            Grid(dim=dim, n=8, length=length)

    # Small boxes are grids too: largest_k is 71 at 8^2 and 0.5, 711 at 16^2
    # and 0.1, 3.6e13 at 1e-12, the largest mode index scaled by 2 pi / l.
    # At 1e100 on 8^dim the largest |k|^2 is about 1e-197: |k|^4 would
    # underflow, but nothing forms it.
    @pytest.mark.parametrize("dim,n,length", [
        (3, 16, 0.1), (3, 16, 1.0), (3, 16, 2 * math.pi), (3, 16, 1e50),
        (2, 8, 0.5), (2, 16, 0.1), (2, 8, 1e-12), (3, 8, 1e-20),
        (2, 8, 1e100), (3, 8, 1e100),
    ])
    def test_length_in_range(self, dim, n, length):
        g = Grid(dim=dim, n=n, length=length)
        assert 0.0 < g.volume < math.inf
        assert 0.0 < g.largest_k**2 < math.inf
        physical = (2 * math.pi / length) * np.max(g.mode_magnitude)
        assert g.largest_k == pytest.approx(physical, rel=1e-15)

    def test_wavenumber_layout(self):
        g = Grid(dim=2, n=16)
        j = g.mode_index_1d
        assert j[0] == 0
        assert j[1] == 1
        assert j[8] == 8  # Nyquist carries the positive sign
        assert j[9] == -7
        assert j[-1] == -1
        # derivative table zeroes the Nyquist entry only
        assert g.k_deriv_1d[8] == 0.0
        assert g.k_deriv_1d[1] == pytest.approx(1.0)

    def test_wavenumber_scaling_with_length(self):
        g = Grid(dim=2, n=16, length=4 * math.pi)
        assert g.k_1d[1] == pytest.approx(0.5)

    def test_dealias_mask_boundary(self):
        g = Grid(dim=2, n=16)  # keep |j| <= 5 (3*5=15 <= 16 < 3*6)
        keep = g.dealias_keep
        assert keep[5, 0]
        assert not keep[6, 0]
        assert not keep[8, 0]

    @pytest.mark.parametrize("dim,n", BALL_GRIDS)
    def test_dealias_keep_is_the_rule_of_thirds(self, dim, n):
        g = Grid(dim=dim, n=n)
        assert np.array_equal(g.dealias_keep, rule_of_thirds(g))
        assert np.count_nonzero(g.dealias_keep) == math.prod(g.ball_shape)

    @pytest.mark.parametrize("dim,n", BALL_GRIDS)
    def test_ball_tables_are_the_whole_tables_on_the_ball(self, dim, n):
        # The ball keeps the half spectrum's index order on every axis, so
        # its C order is that of the kept modes.
        g = Grid(dim=dim, n=n)
        keep = rule_of_thirds(g)
        pairs = [(g.ball_ksq, g.ksq), (g.ball_inv_ksq, g.inv_ksq)]
        for ball, whole in pairs + list(zip(g.ball_k_deriv, g.k_deriv)):
            ball = np.broadcast_to(ball, g.ball_shape)
            whole = np.broadcast_to(whole, g.spectral_shape)
            assert np.array_equal(ball.ravel(), whole[keep])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_spectral_tables_are_half_spectra(self, dim):
        g = Grid(dim=dim, n=16)
        assert g.spectral_shape == (16,) * (dim - 1) + (9,)
        for table in (g.ksq, g.inv_ksq, g.dealias_keep, g.mode_magnitude):
            assert table.shape == g.spectral_shape
        # the stored modes stand for every mode of the full spectrum once
        assert np.sum(np.ones(g.spectral_shape) * g.weight) == 16**dim
        assert g.weight[0] == g.weight[8] == 1.0
        assert np.all(g.weight[1:8] == 2.0)


class TestTransforms:
    def test_sine_coefficients(self):
        g = Grid(dim=2, n=16)
        x, _ = g.mesh()
        f = RealVectorField(g, np.stack((np.sin(x), np.zeros(g.shape))))
        s = to_spectral(f)
        assert s.data[0, 1, 0] == pytest.approx(-0.5j, abs=1e-14)
        assert s.data[0, -1, 0] == pytest.approx(+0.5j, abs=1e-14)
        rest = s.data.copy()
        rest[0, 1, 0] = rest[0, -1, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_constant_field(self):
        g = Grid(dim=2, n=16)
        f = RealVectorField(g, np.full((2, 16, 16), 3.25))
        s = to_spectral(f)
        assert s.data[0, 0, 0] == pytest.approx(3.25)
        off = s.data.copy()
        off[:, 0, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-14

    def test_cos_sin_product_coefficients(self):
        # cos(x) sin(y) expands to four modes of modulus 1/4:
        #   -i/4 at (1,1), +i/4 at (1,-1), -i/4 at (-1,1), +i/4 at (-1,-1)
        g = Grid(dim=2, n=32)
        x, y = g.mesh()
        f = RealVectorField(g, np.stack((np.cos(x) * np.sin(y), np.zeros(g.shape))))
        s = to_spectral(f)
        expected = {
            (1, 1): -0.25j,
            (1, -1): +0.25j,
            (-1, 1): -0.25j,
            (-1, -1): +0.25j,
        }
        for (kx, ky), want in expected.items():
            # a mode with ky < 0 is the conjugate of the stored mode at -k
            got = s.data[0, kx, ky] if ky >= 0 else np.conj(s.data[0, -kx, -ky])
            assert got == pytest.approx(want, abs=1e-14)
            assert abs(got) == pytest.approx(0.25, abs=1e-14)

    def test_roundtrip_random(self, grid2d, rng):
        f = random_real_field(grid2d, rng)
        back = to_physical(to_spectral(f))
        scale = np.max(np.abs(f.data))
        assert np.max(np.abs(back.data - f.data)) <= 1e-12 * scale

    def test_zero_spectral_to_physical(self, grid2d):
        s = SpectralVectorField(grid2d, np.zeros((2, *grid2d.spectral_shape), dtype=complex))
        assert np.all(to_physical(s).data == 0.0)

    def test_single_mode_inverse(self):
        g = Grid(dim=3, n=16)
        data = np.zeros((3, *g.spectral_shape), dtype=complex)
        data[0, 1, 0, 0] = -0.5j
        data[0, -1, 0, 0] = +0.5j
        f = to_physical(SpectralVectorField(g, data))
        x = g.mesh()[0]
        assert np.max(np.abs(f.data[0] - np.sin(x))) < 1e-13
        assert np.max(np.abs(f.data[1:])) < 1e-14

    def test_non_finite_rejected(self, grid2d):
        data = np.zeros((2, *grid2d.shape))
        data[0, 0, 0] = np.nan
        with pytest.raises(FieldError, match="non-finite"):
            RealVectorField(grid2d, data)

    def test_shape_mismatch_rejected(self, grid2d):
        with pytest.raises(FieldError, match="does not match grid"):
            SpectralVectorField(grid2d, np.zeros((2, *grid2d.shape), dtype=complex))

    def test_scalar_with_imaginary_mean_rejected(self, grid2d):
        data = np.zeros(grid2d.spectral_shape, dtype=complex)
        data[0, 0] = 1.0 + 1.0j
        with pytest.raises(FieldError, match="mean coefficient .* must be real"):
            SpectralScalarField(grid2d, data)

    def test_broken_symmetry_rejected(self, grid2d):
        data = np.zeros((2, *grid2d.spectral_shape), dtype=complex)
        data[0, 1, 0] = 1.0  # no conjugate partner in the j = 0 plane
        with pytest.raises(FieldError, match="Hermitian"):
            to_physical(SpectralVectorField(grid2d, data))

    # |c|^2 overflows beyond |c| ~ 1e154, and the relative defect reads NaN;
    # the check must fail on it, not pass it.
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_broken_symmetry_rejected(self):
        g = Grid(dim=2, n=16)
        data = np.zeros((2, *g.spectral_shape), dtype=complex)
        data[0, 1, 0] = 1e200
        with pytest.raises(FieldError, match="norms overflow float64"):
            to_physical(SpectralVectorField(g, data))

    def test_parseval(self, grid2d, rng):
        f = random_real_field(grid2d, rng)
        s = to_spectral(f)
        phys = float(np.sum(f.data**2)) / grid2d.n**grid2d.dim
        spec = float(np.sum(grid2d.weight * np.abs(s.data) ** 2))
        assert phys == pytest.approx(spec, rel=1e-12)

    def test_inner_product_matches_quadrature(self, grid2d, rng):
        a = random_real_field(grid2d, rng)
        b = random_real_field(grid2d, rng)
        quad = grid2d.cell_volume * float(np.sum(a.data * b.data))
        spec = inner_product(to_spectral(a), to_spectral(b))
        assert spec == pytest.approx(quad, rel=1e-12)

    def test_inner_product_across_grids_rejected(self, grid2d, rng):
        a = to_spectral(random_real_field(grid2d, rng))
        b = to_spectral(random_real_field(Grid(dim=2, n=16), rng))
        with pytest.raises(FieldError, match="matching grids"):
            inner_product(a, b)


class TestDerivative:
    def test_sin_to_cos(self):
        g = Grid(dim=2, n=32)
        x, _ = g.mesh()
        s = to_spectral(RealVectorField(g, np.stack((np.sin(x), np.zeros(g.shape)))))
        d = to_physical(derivative(s, 0))
        assert np.max(np.abs(d.data[0] - np.cos(x))) < 1e-12

    def test_constant_derivative_vanishes(self, grid2d):
        s = to_spectral(RealVectorField(grid2d, np.full((2, *grid2d.shape), 2.0)))
        d = derivative(s, 1)
        assert np.max(np.abs(d.data)) < 1e-14

    def test_laplacian_eigenfunction(self):
        g = Grid(dim=2, n=32)
        x, y = g.mesh()
        f = np.cos(x) * np.sin(y)
        s = to_spectral(RealVectorField(g, np.stack((f, np.zeros(g.shape)))))
        lap = derivative(derivative(s, 0), 0) + derivative(derivative(s, 1), 1)
        assert np.max(np.abs(to_physical(lap).data[0] + 2.0 * f)) < 1e-12

    def test_axis_out_of_range(self, grid2d):
        s = to_spectral(RealVectorField(grid2d, np.zeros((2, *grid2d.shape))))
        with pytest.raises(ValueError, match="axis"):
            derivative(s, 2)

    def test_derivative_of_real_field_is_real(self, grid2d, rng):
        s = to_spectral(random_real_field(grid2d, rng))
        to_physical(derivative(s, 0))  # raises if the residue exceeds 1e-12

    def test_derivative_commutes_with_dealias(self, grid2d, rng):
        s = to_spectral(random_real_field(grid2d, rng))
        a = dealias(derivative(s, 0))
        b = derivative(dealias(s), 0)
        assert np.array_equal(a.data, b.data)


class TestDealias:
    def test_low_modes_unchanged(self):
        g = Grid(dim=2, n=32)
        data = np.zeros((2, *g.spectral_shape), dtype=complex)
        data[0, 3, 0] = -0.5j
        data[0, -3, 0] = +0.5j
        data[1, 0, 2] = 0.5
        s = SpectralVectorField(g, data)
        d = dealias(s)
        assert np.array_equal(d.data, s.data)

    def test_nyquist_mode_removed(self):
        g = Grid(dim=2, n=16)
        data = np.zeros((2, *g.spectral_shape), dtype=complex)
        data[0, 8, 0] = 1.0
        d = dealias(SpectralVectorField(g, data))
        assert np.max(np.abs(d.data)) == 0.0

    def test_energy_never_grows(self, grid2d, rng):
        s = to_spectral(random_real_field(grid2d, rng))
        assert dealias(s).l2_norm() <= s.l2_norm() + 1e-15

    def test_dealias_defect(self, grid2d):
        data = np.zeros((2, *grid2d.spectral_shape), dtype=complex)
        data[0, grid2d.n // 2, 0] = 1.0
        assert dealias_defect(SpectralVectorField(grid2d, data)) == pytest.approx(1.0)
        assert dealias_defect(dealias(SpectralVectorField(grid2d, data))) == 0.0


class TestHermitianHelpers:
    def test_reflect_modes_involution(self, grid2d, rng):
        full = complete_hermitian(grid2d, to_spectral(random_real_field(grid2d, rng)).data)
        twice = reflect_modes(grid2d, reflect_modes(grid2d, full))
        assert np.array_equal(twice, full)

    def test_real_field_has_zero_defect(self, grid2d, rng):
        s = to_spectral(random_real_field(grid2d, rng))
        assert hermitian_defect(s) < 1e-13


class TestDivergence:
    def test_gradient_field_divergence(self):
        g = Grid(dim=2, n=32)
        x, y = g.mesh()
        # v = grad(sin x sin y) => div v = lap = -2 sin x sin y
        v = np.stack((np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)))
        d = divergence(to_spectral(RealVectorField(g, v)))
        from liens.grid_spectral import ifftn_real

        phys = ifftn_real(g, d.data)
        assert np.max(np.abs(phys + 2.0 * np.sin(x) * np.sin(y))) < 1e-12

    def test_relative_divergence_zero_for_solenoidal(self, random_divfree_2d):
        assert relative_divergence(random_divfree_2d) < 1e-13


class TestSnapshots:
    def test_physical_roundtrip_bitexact(self, grid2d, rng, tmp_path):
        f = random_real_field(grid2d, rng)
        path = tmp_path / "field.liens"
        write_snapshot(path, f)
        back = read_snapshot(path)
        assert isinstance(back, RealVectorField)
        assert back.grid == grid2d
        assert np.array_equal(back.data, f.data)

    def test_spectral_roundtrip_bitexact(self, grid3d, rng, tmp_path):
        data = to_spectral(random_real_field(grid3d, rng)).data.copy()
        data[0, 1, 2, 1] = complex(-0.0, -0.0)  # off the self-conjugate planes
        s = SpectralVectorField(grid3d, data)
        path = tmp_path / "field.liens"
        write_snapshot(path, s)
        back = read_snapshot(path)
        assert isinstance(back, SpectralVectorField)
        assert np.array_equal(back.data, s.data)
        # re-written, the file keeps every byte, the signs of zeros included
        write_snapshot(tmp_path / "again.liens", back)
        assert (tmp_path / "again.liens").read_bytes() == path.read_bytes()

    def test_header_contents(self, grid2d, tmp_path):
        f = RealVectorField(grid2d, np.zeros((2, *grid2d.shape)))
        path = tmp_path / "field.liens"
        write_snapshot(path, f)
        header = path.read_bytes().split(b"\n", 1)[0].decode()
        parts = header.split()
        assert parts[0] == "LIENS1"
        assert parts[1] == "2"
        assert parts[2] == "32"
        assert float(parts[3]) == pytest.approx(2 * math.pi)
        assert parts[4] == "2"
        assert parts[5] == "physical"

    def test_full_spectrum_on_disk(self, grid3d, rng, tmp_path):
        # The payload holds the full spectrum, as the complex FFT gives it, and
        # a payload written from the complex FFT loads as the half spectrum.
        f = random_real_field(grid3d, rng)
        full = scipy.fft.fftn(f.data, axes=(1, 2, 3), norm="forward")
        path = tmp_path / "field.liens"
        write_snapshot(path, to_spectral(f))
        header, payload = path.read_bytes().split(b"\n", 1)
        values = np.frombuffer(payload, dtype="<f8")
        coeffs = np.split(values[0::2] + 1j * values[1::2], 3)
        on_disk = np.stack([np.reshape(c, grid3d.shape, order="F") for c in coeffs])
        assert np.max(np.abs(on_disk - full)) <= 1e-15 * np.max(np.abs(full))
        flat = np.concatenate([np.ravel(c, order="F") for c in full])
        values = np.empty(2 * flat.size, dtype="<f8")
        values[0::2], values[1::2] = flat.real, flat.imag
        path.write_bytes(header + b"\n" + values.tobytes())
        back = read_snapshot(path)
        assert np.array_equal(back.data, full[..., : grid3d.n // 2 + 1])

    def test_broken_symmetry_payload_rejected(self, grid2d, rng, tmp_path):
        path = tmp_path / "field.liens"
        write_snapshot(path, to_spectral(random_real_field(grid2d, rng)))
        header, payload = path.read_bytes().split(b"\n", 1)
        values = np.frombuffer(payload, dtype="<f8").copy()
        # component 0, mode (ix, iy) = (1, 20): its last-axis index lies in
        # the mirrored half, beyond n/2 = 16
        values[2 * (1 + grid2d.n * 20)] += 0.5
        path.write_bytes(header + b"\n" + values.tobytes())
        with pytest.raises(SnapshotFormatError, match="Hermitian"):
            read_snapshot(path)

    @staticmethod
    def _write_full_spectrum(path, grid, full):
        payload = np.transpose(full, (0, *range(grid.dim, 0, -1)))
        header = f"LIENS1 {grid.dim} {grid.n} {grid.length!r} {grid.dim} spectral\n"
        path.write_bytes(header.encode("ascii") + np.ascontiguousarray(payload, "<c16").tobytes())

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e150, 1e200])
    def test_overflowing_broken_symmetry_payload_rejected(self, rng, tmp_path, scale):
        # A full spectrum of complex normals is far from Hermitian (relative
        # defect 1.4); at 1e200 its norms overflow and the defect reads NaN.
        g = Grid(dim=2, n=16)
        full = rng.standard_normal((2, *g.shape)) + 1j * rng.standard_normal((2, *g.shape))
        path = tmp_path / "field.liens"
        self._write_full_spectrum(path, g, scale * full)
        with pytest.raises(SnapshotFormatError, match="Hermitian"):
            read_snapshot(path)

    def test_non_finite_payload_rejected(self, rng, tmp_path):
        # the NaN sits in the mirrored half, which the reader would drop
        g = Grid(dim=2, n=16)
        full = np.fft.fftn(rng.standard_normal((2, *g.shape)), axes=(1, 2), norm="forward")
        full[0, 3, 12] = np.nan
        path = tmp_path / "field.liens"
        self._write_full_spectrum(path, g, full)
        with pytest.raises(SnapshotFormatError, match="non-finite"):
            read_snapshot(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.liens"
        path.write_bytes(b"NOPE 2 32 6.28 2 physical\n")
        with pytest.raises(SnapshotFormatError, match="header"):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "header,needle",
        [
            ("LIENS1 2 12 6.28 2 physical", "grid n .*got 12"),
            ("LIENS1 4 8 6.28 4 physical", "grid dim .*got 4"),
            ("LIENS1 2 8 nan 2 physical", "grid length .*got nan"),
            ("LIENS1 2 x 6.28 2 physical", "unparseable snapshot header"),
            ("LIENS1 2 8 6.28 2 polar", "unknown snapshot kind 'polar'"),
            ("LIENS1 2 8 6.28 3 physical", "component count 3 does not match dim 2"),
        ],
        ids=["n", "dim", "length", "number", "kind", "components"],
    )
    def test_impossible_grid_header_rejected(self, tmp_path, header, needle):
        path = tmp_path / "grid.liens"
        path.write_bytes(header.encode("ascii") + b"\n")
        with pytest.raises(SnapshotFormatError, match=needle):
            read_snapshot(path)

    def test_truncated_payload_rejected(self, grid2d, tmp_path):
        f = RealVectorField(grid2d, np.zeros((2, *grid2d.shape)))
        path = tmp_path / "field.liens"
        write_snapshot(path, f)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(SnapshotFormatError, match="payload"):
            read_snapshot(path)

    @pytest.mark.parametrize("dim", [2, 3], ids=["2d", "3d"])
    def test_x_fastest_ordering(self, tmp_path, dim):
        g = Grid(dim=dim, n=8)
        # every sample distinct; data[0][ix, iy(, iz)] counts with ix slowest
        data = np.arange(dim * 8**dim, dtype=float).reshape(dim, *g.shape)
        path = tmp_path / "field.liens"
        write_snapshot(path, RealVectorField(g, data))
        payload = path.read_bytes().split(b"\n", 1)[1]
        first_row = np.frombuffer(payload[: 8 * 8], dtype="<f8")
        # x varies fastest: the first 8 values walk ix at iy (= iz) = 0
        assert np.array_equal(first_row, data[(0, slice(None)) + (0,) * (dim - 1)])
        # then y (then z), one component after another
        want = np.concatenate([np.ravel(c, order="F") for c in data]).astype("<f8")
        assert payload == want.tobytes()


@settings(max_examples=20, deadline=None)
@given(amplitude=st.floats(min_value=0.1, max_value=10.0), seed=st.integers(0, 2**16))
def test_roundtrip_property(amplitude, seed):
    g = Grid(dim=2, n=16)
    local = np.random.default_rng(seed)
    f = random_real_field(g, local)
    f = RealVectorField(g, amplitude * f.data)
    back = to_physical(to_spectral(f))
    scale = max(np.max(np.abs(f.data)), 1e-30)
    assert np.max(np.abs(back.data - f.data)) <= 1e-12 * scale
