"""Energy, enstrophy, balance residuals, spectra, and the CSV schema."""

import math

import numpy as np
import pytest

from liens import (
    AnalyticFlow,
    Grid,
    SpectralVectorField,
    TimeSeriesRecord,
    analytic_field,
    dissipativity_residual,
    energy,
    energy_balance,
    enstrophy_norm,
    shell_spectrum,
    to_physical,
)
from liens.diagnostics import (
    balance_residuals,
    format_float,
    read_series_csv,
    write_series_csv,
)
from liens.reference_oracles import random_divfree


def taylor_green(grid):
    return analytic_field(AnalyticFlow("taylor_green_2d"), 0.0, 0.0, grid)


class TestEnergy:
    def test_zero(self, zero_field_2d):
        assert energy(zero_field_2d) == 0.0

    def test_taylor_green_value(self):
        # int cos^2 x sin^2 y + sin^2 x cos^2 y over [0,2pi]^2 = 2 pi^2,
        # halved: pi^2. Quadrature oracle cross-checks the spectral value.
        g = Grid(dim=2, n=64)
        v = taylor_green(g)
        assert energy(v) == pytest.approx(math.pi**2, rel=1e-12)
        quad = energy(to_physical(v))
        assert energy(v) == pytest.approx(quad, rel=1e-12)

    def test_quadratic_scaling(self, random_divfree_2d):
        e1 = energy(random_divfree_2d)
        e2 = energy(2.0 * random_divfree_2d)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-14)


class TestEnstrophy:
    def test_zero(self, zero_field_2d):
        assert enstrophy_norm(zero_field_2d) == 0.0

    def test_taylor_green_value(self):
        # All four modes sit on |k|^2 = 2: enstrophy = 2 * (2 * energy).
        g = Grid(dim=2, n=64)
        v = taylor_green(g)
        assert enstrophy_norm(v) == pytest.approx(4.0 * math.pi**2, rel=1e-12)

    def test_taylor_green_quadrature_oracle(self):
        # Assemble sum_ij int (d_j v_i)^2 dx from analytic derivatives.
        g = Grid(dim=2, n=64)
        x, y = g.mesh()
        grads = [
            -np.sin(x) * np.sin(y),  # d1 v1
            np.cos(x) * np.cos(y),  # d2 v1
            -np.cos(x) * np.cos(y),  # d1 v2
            np.sin(x) * np.sin(y),  # d2 v2
        ]
        quad = g.cell_volume * sum(float(np.sum(gr**2)) for gr in grads)
        assert enstrophy_norm(taylor_green(g)) == pytest.approx(quad, rel=1e-12)

    def test_single_mode_eigenrelation(self):
        # |k| = 1 mode: enstrophy = |k|^2 * 2 * energy.
        g = Grid(dim=2, n=32)
        data = np.zeros((2, *g.spectral_shape), dtype=complex)
        data[1, 1, 0] = -0.5j
        data[1, -1, 0] = +0.5j
        v = SpectralVectorField(g, data)
        assert enstrophy_norm(v) == pytest.approx(2.0 * energy(v), rel=1e-14)


class TestDissipativityResidual:
    def test_zero_field(self, zero_field_2d):
        assert dissipativity_residual(zero_field_2d, 0.1) == 0.0

    @pytest.mark.parametrize("dim_n", [(2, 32), (3, 16)])
    def test_contract_on_random_fields(self, dim_n):
        dim, n = dim_n
        g = Grid(dim=dim, n=n)
        nu = 0.05
        for seed in range(10):
            v = random_divfree(seed=seed, grid=g, peak_k=3, amplitude=1.0)
            res = dissipativity_residual(v, nu)
            assert abs(res) <= 1e-10 * nu * enstrophy_norm(v)

    def test_inviscid_case(self, random_divfree_2d):
        res = dissipativity_residual(random_divfree_2d, 0.0)
        assert abs(res) <= 1e-12 * energy(random_divfree_2d)


class TestEnergyBalance:
    @staticmethod
    def _tg_records(nu, dt, steps):
        # Analytic Taylor-Green decay: E(t) = pi^2 e^{-4 nu t},
        # enstrophy(t) = 4 pi^2 e^{-4 nu t}.
        records = []
        for i in range(steps):
            t = i * dt
            e = math.pi**2 * math.exp(-4 * nu * t)
            records.append(
                TimeSeriesRecord(
                    t=t, energy=e, enstrophy=4 * e, div_max=0.0,
                    balance_residual=0.0, order_used=0, dt=dt,
                )
            )
        return records

    def test_taylor_green_records(self):
        nu = 0.1
        residual = energy_balance(self._tg_records(nu, dt=0.01, steps=101), nu)
        assert residual <= 1e-4

    def test_constant_zero_trajectory(self):
        records = [
            TimeSeriesRecord(t=0.1 * i, energy=0.0, enstrophy=0.0, div_max=0.0,
                             balance_residual=0.0, order_used=0, dt=0.1)
            for i in range(5)
        ]
        assert energy_balance(records, 0.1) == 0.0

    def test_needs_three_records(self):
        records = self._tg_records(0.1, 0.01, 2)
        with pytest.raises(ValueError, match="3 records"):
            energy_balance(records, 0.1)

    def test_unsorted_rejected(self):
        records = self._tg_records(0.1, 0.01, 5)
        records[2], records[3] = records[3], records[2]
        with pytest.raises(ValueError, match="increasing"):
            energy_balance(records, 0.1)

    def test_pointwise_residuals_shape(self):
        records = self._tg_records(0.1, 0.01, 6)
        res = balance_residuals(records, 0.1)
        assert len(res) == 6
        assert res[0] == 0.0 and res[-1] == 0.0
        assert max(res) <= 1e-4

    def test_nonuniform_spacing(self):
        nu = 0.2
        ts = [0.0, 0.01, 0.025, 0.03, 0.055, 0.06]
        records = []
        for i, t in enumerate(ts):
            e = math.pi**2 * math.exp(-4 * nu * t)
            records.append(
                TimeSeriesRecord(t=t, energy=e, enstrophy=4 * e, div_max=0.0,
                                 balance_residual=0.0, order_used=0,
                                 dt=t - ts[i - 1] if i else 0.01)
            )
        assert energy_balance(records, nu) <= 1e-3


class TestShellSpectrum:
    # Shells count the mode index, so the lowest mode of any box is shell 1.
    def test_single_mode(self):
        for length in (0.5, 2 * math.pi, 1000.0):
            g = Grid(dim=2, n=32, length=length)
            data = np.zeros((2, *g.spectral_shape), dtype=complex)
            data[0, 0, 1] = -0.5j  # sin(2 pi y / l): the mode (0, -1) is its conjugate
            v = SpectralVectorField(g, data)
            shells = dict(shell_spectrum(v))
            assert shells[1] == pytest.approx(energy(v), rel=1e-14)
            assert sum(e for s, e in shells.items() if s != 1) == 0.0

    def test_taylor_green_lands_in_shell_one(self):
        g = Grid(dim=2, n=64)
        v = taylor_green(g)
        shells = dict(shell_spectrum(v))
        # |k| = sqrt(2) rounds to 1
        assert shells[1] == pytest.approx(energy(v), rel=1e-12)

    def test_partition_of_energy(self, random_divfree_3d):
        shells = shell_spectrum(random_divfree_3d)
        total = sum(e for _, e in shells)
        assert total == pytest.approx(energy(random_divfree_3d), rel=1e-12)


    # One row per integer mode index up to the Nyquist corner, whatever the
    # box length.
    @pytest.mark.parametrize("dim,n,length", [(2, 8, 0.5), (2, 16, 0.1), (2, 64, 2 * math.pi),
                                              (3, 16, 2 * math.pi), (3, 8, 1e50),
                                              (2, 8, 1e-12), (3, 8, 1e-20)])
    def test_one_row_per_shell_count(self, dim, n, length):
        g = Grid(dim=dim, n=n, length=length)
        v = SpectralVectorField(g, np.ones((dim, *g.spectral_shape), dtype=complex))
        count = round(math.sqrt(dim) * n / 2) + 1
        assert [s for s, _ in shell_spectrum(v)] == list(range(count))


class TestSeriesCsv:
    def test_roundtrip(self, tmp_path):
        records = [
            TimeSeriesRecord(t=0.0, energy=1.0, enstrophy=2.0, div_max=1e-15,
                             balance_residual=0.0, order_used=0, dt=0.0),
            TimeSeriesRecord(t=0.125, energy=0.5, enstrophy=1.0, div_max=2e-15,
                             balance_residual=3e-7, order_used=9, dt=0.125),
        ]
        path = tmp_path / "series.csv"
        write_series_csv(path, records)
        text = path.read_text()
        assert text.splitlines()[0] == "t,energy,enstrophy,div_max,balance_residual,order_used,dt"
        # floats with 17 significant digits, order_used as an integer
        assert text.splitlines()[1:] == [
            "0,1,2,1.0000000000000001e-15,0,0,0",
            "0.125,0.5,1,2.0000000000000002e-15,2.9999999999999999e-07,9,0.125",
        ]
        assert text.endswith("0.125\n")
        back = read_series_csv(path)
        assert back == records

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("t,energy\n0,1\n", "bad series CSV header"),
            ("t,energy,enstrophy,div_max,balance_residual,order_used,dt\n0,1,2\n",
             "bad series CSV row: '0,1,2'"),
        ],
        ids=["header", "row"],
    )
    def test_read_rejects_malformed(self, tmp_path, text, needle):
        path = tmp_path / "series.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=needle):
            read_series_csv(path)

    def test_seventeen_digit_floats(self):
        x = 1.0 / 3.0
        assert float(format_float(x)) == x
        assert format_float(0.125) == "0.125"

    def test_record_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TimeSeriesRecord(t=0.0, energy=-1.0, enstrophy=0.0, div_max=0.0,
                             balance_residual=0.0, order_used=0, dt=0.1)
        with pytest.raises(ValueError, match="non-finite"):
            TimeSeriesRecord(t=float("nan"), energy=0.0, enstrophy=0.0, div_max=0.0,
                             balance_residual=0.0, order_used=0, dt=0.1)
