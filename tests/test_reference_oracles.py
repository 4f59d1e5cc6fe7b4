"""Closed-form flows, the RK4 oracle, and the random field generator."""

import math

import numpy as np
import pytest

from liens import (
    AnalyticFlow,
    SpectralVectorField,
    Grid,
    RealVectorField,
    analytic_field,
    energy,
    ns_rhs,
    rk4_propagate,
    shell_spectrum,
    to_spectral,
)
from liens.errors import StabilityError
from liens.grid_spectral import reflect_modes, relative_divergence
from liens.leray import leray_project
from liens.reference_oracles import random_divfree, rk4_advance, rk4_step


def rel_l2(a, b):
    denom = b.l2_norm()
    return (a - b).l2_norm() / denom if denom else (a - b).l2_norm()


class TestAnalyticFields:
    def test_taylor_green_solenoidal(self):
        g = Grid(dim=2, n=64)
        v = analytic_field(AnalyticFlow("taylor_green_2d"), 0.0, 0.1, g)
        assert relative_divergence(v) <= 1e-13

    def test_beltrami_is_laplacian_eigenfield(self):
        g = Grid(dim=3, n=32)
        v = analytic_field(AnalyticFlow("beltrami_abc"), 0.0, 0.05, g)
        lap = v.with_data(-g.ksq * v.data)
        assert np.max(np.abs(lap.data + v.data)) < 1e-12

    @pytest.mark.parametrize(
        "kind,dim,nu",
        [
            ("taylor_green_2d", 2, 0.1),
            ("taylor_green_3d_embedded", 3, 0.1),
            ("beltrami_abc", 3, 0.05),
        ],
    )
    def test_exact_solution_residual(self, kind, dim, nu):
        # d/dt of the closed form is -rate*v; it must match ns_rhs on the
        # discrete torus at sampled times.
        g = Grid(dim=dim, n=16 if dim == 3 else 32)
        flow = AnalyticFlow(kind)
        rate = flow.decay_rate(nu)
        for t in (0.0, 0.5):
            v = analytic_field(flow, t, nu, g)
            rhs = ns_rhs(v, nu)
            residual = (rhs - (-rate) * v).l2_norm()
            assert residual <= 1e-10

    @pytest.mark.parametrize(
        "kind", ["taylor_green_2d", "taylor_green_3d_embedded", "beltrami_abc"]
    )
    def test_matches_sampled_closed_form(self, kind):
        flow = AnalyticFlow(kind, amplitude=1.3, abc=(0.7, 1.1, 0.4))
        g = Grid(dim=flow.dim, n=16)
        mesh = g.mesh()
        x, y = mesh[0], mesh[1]
        if kind == "beltrami_abc":
            a, b, c = flow.abc
            z = mesh[2]
            closed = (a * np.sin(z) + c * np.cos(y), b * np.sin(x) + a * np.cos(z),
                      c * np.sin(y) + b * np.cos(x))
        else:
            a = flow.amplitude
            closed = (a * np.cos(x) * np.sin(y), -a * np.sin(x) * np.cos(y))
            if kind == "taylor_green_3d_embedded":
                closed += (np.zeros(g.shape),)
        want = to_spectral(RealVectorField(g, np.stack(closed)))
        got = analytic_field(flow, 0.0, 0.1, g)
        assert rel_l2(got, want) <= 1e-14

    def test_dimension_mismatch_rejected(self):
        g = Grid(dim=2, n=16)
        with pytest.raises(ValueError, match="grid"):
            analytic_field(AnalyticFlow("beltrami_abc"), 0.0, 0.1, g)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            AnalyticFlow("vortex_sheet")

    def test_rejects_box_other_than_two_pi(self):
        with pytest.raises(ValueError, match="2\\*pi periodic box"):
            analytic_field(AnalyticFlow("taylor_green_2d"), 0.0, 0.1, Grid(dim=2, n=16, length=1.0))

    @pytest.mark.parametrize("amplitude", [math.inf, math.nan])
    def test_rejects_non_finite_amplitude(self, amplitude):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            AnalyticFlow("taylor_green_2d", amplitude=amplitude)

    # A NaN coefficient used to pass, and analytic_field then failed with
    # "spectral field contains non-finite coefficients", naming nothing.
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_rejects_non_finite_abc(self, position):
        abc = [1.0, 1.0, 1.0]
        abc[position] = math.nan
        with pytest.raises(ValueError, match=rf"abc\[{position}\] must be finite, got nan"):
            AnalyticFlow("beltrami_abc", abc=tuple(abc))


class TestRk4:
    def test_taylor_green_decay(self):
        g = Grid(dim=2, n=32)
        nu = 0.1
        flow = AnalyticFlow("taylor_green_2d")
        u = analytic_field(flow, 0.0, nu, g)
        got = rk4_propagate(u, nu, t_end=1.0, dt=1e-3)
        want = analytic_field(flow, 1.0, nu, g)
        assert rel_l2(got, want) <= 1e-8

    def test_zero_field(self, zero_field_2d):
        out = rk4_propagate(zero_field_2d, 0.1, t_end=0.5, dt=1e-2)
        assert np.max(np.abs(out.data)) == 0.0

    def test_inviscid_energy_conservation(self):
        g = Grid(dim=2, n=16)
        u = analytic_field(AnalyticFlow("taylor_green_2d"), 0.0, 0.0, g)
        out = rk4_propagate(u, 0.0, t_end=0.1, dt=1e-3)
        assert energy(out) == pytest.approx(energy(u), rel=1e-8)

    def test_stability_rejection(self):
        g = Grid(dim=2, n=32)
        nu = 0.1
        u = analytic_field(AnalyticFlow("taylor_green_2d"), 0.0, nu, g)
        bound = 0.5 * g.spacing**2 / nu
        with pytest.raises(StabilityError) as err:
            rk4_propagate(u, nu, t_end=1.0, dt=2 * bound)
        assert err.value.suggested_dt == pytest.approx(bound)

    def test_self_convergence_slope(self):
        # Error against a Richardson-extrapolated fine solution scales as dt^4.
        g = Grid(dim=2, n=32)
        nu = 0.05
        u = random_divfree(seed=3, grid=g, peak_k=3, amplitude=1.0)
        t_end = 0.1
        fine = rk4_propagate(u, nu, t_end, dt=5.0e-4)
        finer = rk4_propagate(u, nu, t_end, dt=2.5e-4)
        reference = finer + (1.0 / 15.0) * (finer - fine)
        dts = [4.0e-3, 2.0e-3, 1.0e-3]
        errors = [rel_l2(rk4_propagate(u, nu, t_end, dt=dt), reference) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert abs(slope - 4.0) <= 0.3

    # rk4_advance reuses its stage buffers from step to step; a value left
    # in one from the step before would show here.
    def test_advance_reuses_buffers_exactly(self, random_divfree_3d):
        advance = rk4_advance(random_divfree_3d.grid, 0.02, 1e-3)
        fresh = reused = random_divfree_3d
        for _ in range(3):
            fresh = rk4_step(fresh, 0.02, 1e-3)
            reused, _ = advance(reused, 1.0)
            assert np.array_equal(reused.data, fresh.data)

    # rk4_step and rk4_burgers share one update; its operation order is the
    # textbook formula's, so the shared code reproduces it bit for bit.
    def test_step_matches_textbook_rk4(self, random_divfree_3d):
        nu, dt = 0.02, 1e-3
        grid = random_divfree_3d.grid

        def rhs(data):
            return ns_rhs(SpectralVectorField(grid, data), nu).data

        textbook = got = random_divfree_3d
        for _ in range(3):
            u = textbook.data
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * dt * k1)
            k3 = rhs(u + 0.5 * dt * k2)
            k4 = rhs(u + dt * k3)
            u_next = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            textbook = leray_project(SpectralVectorField(grid, u_next))
            got = rk4_step(got, nu, dt)
            assert np.array_equal(got.data, textbook.data)

    def test_step_preserves_divergence(self, random_divfree_3d):
        out = rk4_step(random_divfree_3d, 0.02, 1e-3)
        assert relative_divergence(out) <= 1e-12


class TestRandomDivfree:
    @pytest.mark.parametrize("amplitude", [0.0, -1.0])
    def test_rejects_nonpositive_amplitude(self, grid2d, amplitude):
        with pytest.raises(ValueError, match="amplitude must be positive and finite"):
            random_divfree(seed=1, grid=grid2d, peak_k=3, amplitude=amplitude)

    def test_by_construction_properties(self, grid3d):
        v = random_divfree(seed=11, grid=grid3d, peak_k=3, amplitude=2.0)
        assert relative_divergence(v) <= 1e-12
        assert energy(v) == pytest.approx(2.0**2 / 2.0, rel=1e-12)
        mean = v.data[(slice(None),) + (0,) * grid3d.dim]
        assert np.max(np.abs(mean)) == 0.0

    def test_matches_recorded_coefficients(self):
        # Recorded from the full-spectrum implementation: the Philox draws
        # and the field they make do not depend on the spectral layout.
        v = random_divfree(seed=7, grid=Grid(dim=3, n=32), peak_k=3, amplitude=1.0)
        recorded = {
            (0, 1, 2, 3): 0.00137935363036876 - 0.0008820737245221659j,
            (1, -2, 1, 0): -8.276688780004633e-05 + 0.00010399246609150871j,
            (2, 3, -1, 2): -0.00020779479494980417 + 0.0016323594973326697j,
        }
        for index, want in recorded.items():
            assert abs(v.data[index] - want) <= 1e-14 * abs(want)

    # The generator forms the Hermitian average on the half spectrum only; it
    # must reproduce, bit for bit, the average over the full grid of draws
    # and their reflection, cut to the half spectrum afterwards.
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16), (3, 64)])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_matches_full_grid_average_bitwise(self, dim, n, seed):
        grid = Grid(dim=dim, n=n)
        rng = np.random.Generator(np.random.Philox(seed))
        shape = (dim, *grid.shape)
        full = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coef = (0.5 * (full + np.conj(reflect_modes(grid, full))))[..., : n // 2 + 1]
        coef *= grid.mode_magnitude**4 * np.exp(-((grid.mode_magnitude / 3) ** 2)) * grid.dealias_keep
        coef[(slice(None),) + (0,) * dim] = 0.0
        field = leray_project(SpectralVectorField(grid, coef))
        want = (1.0 / field.l2_norm()) * field
        got = random_divfree(seed=seed, grid=grid, peak_k=3, amplitude=1.0)
        assert np.array_equal(got.data, want.data)

    def test_determinism(self, grid2d):
        a = random_divfree(seed=5, grid=grid2d, peak_k=4, amplitude=1.0)
        b = random_divfree(seed=5, grid=grid2d, peak_k=4, amplitude=1.0)
        assert np.array_equal(a.data, b.data)
        c = random_divfree(seed=6, grid=grid2d, peak_k=4, amplitude=1.0)
        assert not np.array_equal(a.data, c.data)

    def test_band_limited(self, grid2d):
        v = random_divfree(seed=9, grid=grid2d, peak_k=3, amplitude=1.0)
        outside = v.data * ~grid2d.dealias_keep
        assert np.max(np.abs(outside)) == 0.0

    # The weights read the mode index, so peak_k names the same modes in a
    # box of any length. With the physical |k| (50 pi per mode at length
    # 0.2) every weight underflowed and the field degenerated to zero.
    def test_small_box_spectrum_peaks_at_peak_k(self):
        grid = Grid(dim=3, n=32, length=0.2)
        v = random_divfree(seed=1, grid=grid, peak_k=1, amplitude=1.0)
        shells = dict(shell_spectrum(v))
        assert energy(v) == pytest.approx(0.5, rel=1e-12)
        assert shells[1] + shells[2] >= 0.99 * energy(v)

    def test_peak_k_validation(self, grid2d):
        with pytest.raises(ValueError, match="peak_k"):
            random_divfree(seed=1, grid=grid2d, peak_k=grid2d.n // 3 + 1, amplitude=1.0)
        with pytest.raises(ValueError, match="peak_k"):
            random_divfree(seed=1, grid=grid2d, peak_k=0, amplitude=1.0)
