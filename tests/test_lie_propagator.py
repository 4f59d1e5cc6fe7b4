"""Series coefficients, evaluation, radius estimation, stepping, propagation."""

import math
import mmap
import sys
import tracemalloc
from math import factorial

import numpy as np
import pytest

import liens.lie_propagator as lie_propagator
from liens import (
    AnalyticFlow,
    Grid,
    analytic_field,
    dealias,
    energy,
    estimate_radius,
    evaluate,
    lie_advance,
    ns_rhs,
    propagate,
    rk4_propagate,
    step,
    steps,
    taylor_coefficients,
    to_spectral,
)
from liens.burgers1d import rk4_burgers
from liens.errors import RadiusCollapseError, SolenoidalError
from liens.grid_spectral import (
    SpectralVectorField,
    gather_ball,
    ifftn_real,
    relative_divergence,
    scatter_ball,
)
from liens.leray import Kernel
from liens.lie_propagator import StepStats, fixed_step
from liens.reference_oracles import random_divfree, rk4_advance, rk4_step

from conftest import random_real_field


def rel_l2(a, b):
    denom = b.l2_norm()
    return (a - b).l2_norm() / denom if denom else (a - b).l2_norm()


def tg_field(grid, t=0.0, nu=0.0):
    return analytic_field(AnalyticFlow("taylor_green_2d"), t, nu, grid)


class TestTaylorCoefficients:
    def test_taylor_green_closed_form(self):
        # Exact solution u e^{-2 nu t}: c_n = (-2 nu)^n / n! * u. The error
        # scale is the base field's max-norm: coefficient noise floors are
        # set by the input magnitude, not by the decaying c_n themselves.
        g = Grid(dim=2, n=32)
        nu = 0.1
        u = tg_field(g)
        scale = np.max(np.abs(u.data))
        coeffs = taylor_coefficients(u, nu, order=10)
        for n, c in enumerate(coeffs):
            want = ((-2.0 * nu) ** n / factorial(n)) * u.data
            assert np.max(np.abs(c.data - want)) <= 1e-10 * scale

    def test_beltrami_closed_form(self):
        g = Grid(dim=3, n=16)
        nu = 0.05
        u = analytic_field(AnalyticFlow("beltrami_abc"), 0.0, nu, g)
        scale = np.max(np.abs(u.data))
        coeffs = taylor_coefficients(u, nu, order=8)
        for n, c in enumerate(coeffs):
            want = ((-nu) ** n / factorial(n)) * u.data
            assert np.max(np.abs(c.data - want)) <= 1e-10 * scale

    def test_returns_order_plus_one_fields_on_u_grid(self, random_divfree_2d):
        coeffs = taylor_coefficients(random_divfree_2d, 0.1, order=6)
        assert isinstance(coeffs, tuple) and len(coeffs) == 7
        assert coeffs[0] is random_divfree_2d
        assert all(c.grid == random_divfree_2d.grid for c in coeffs)

    def test_zero_field(self, zero_field_2d):
        coeffs = taylor_coefficients(zero_field_2d, 0.3, order=5)
        for c in coeffs:
            assert np.max(np.abs(c.data)) == 0.0

    def test_coefficients_divergence_free(self, random_divfree_2d, random_divfree_3d):
        for u in (random_divfree_2d, random_divfree_3d):
            coeffs = taylor_coefficients(u, 0.02, order=8)
            for c in coeffs:
                assert relative_divergence(c) <= 1e-10

    def test_rejects_bad_order(self, random_divfree_2d):
        with pytest.raises(ValueError, match="order"):
            taylor_coefficients(random_divfree_2d, 0.1, order=-1)

    def test_rejects_non_solenoidal(self, grid2d, rng):
        from liens import dealias, to_spectral

        w = dealias(to_spectral(random_real_field(grid2d, rng)))
        with pytest.raises(SolenoidalError):
            taylor_coefficients(w, 0.1, order=2)

    def test_coefficient_identity_vs_rk4_differences(self):
        # Independent oracle: n! c_n must equal the n-th time derivative at
        # t=0 of the RK4 trajectory, estimated by central differences with
        # step 1e-3 (9-point stencil, sub-integrated at dt=1e-5). A strongly
        # nonlinear field keeps the derivative magnitudes above the
        # difference-oracle noise floor; measured headroom ~2.6x at n=5.
        g = Grid(dim=2, n=32)
        nu = 0.02
        u = random_divfree(seed=21, grid=g, peak_k=4, amplitude=12.0)
        coeffs = taylor_coefficients(u, nu, order=5)

        h, half_width, sub = 1e-3, 4, 1e-5
        substeps = int(round(h / sub))
        traj = {0: u.data}
        v = u
        for k in range(1, half_width + 1):
            for _ in range(substeps):
                v = rk4_step(v, nu, sub)
            traj[k] = v.data
        v = u
        for k in range(1, half_width + 1):
            for _ in range(substeps):
                v = rk4_step(v, nu, -sub)
            traj[-k] = v.data

        offsets = list(range(-half_width, half_width + 1))

        def fd_weights(order):
            pts = np.array(offsets, float) * h
            vander = np.vander(pts, increasing=True).T
            rhs = np.zeros(len(pts))
            rhs[order] = factorial(order)
            return np.linalg.solve(vander, rhs)

        for n in range(1, 6):
            w = fd_weights(n)
            fd = sum(wk * traj[k] for wk, k in zip(w, offsets))
            exact = factorial(n) * coeffs[n].data
            rel = np.linalg.norm(fd - exact) / np.linalg.norm(exact)
            assert rel <= 1e-4, f"derivative order {n}: {rel:.3e}"


class TestEvaluate:
    def test_t_zero_returns_c0_bitwise(self, random_divfree_2d):
        coeffs = taylor_coefficients(random_divfree_2d, 0.05, order=4)
        out = evaluate(coeffs, 0.0)
        assert out is coeffs[0]

    def test_taylor_green_exponential(self):
        # n=16 keeps nu*k_max^2 small so the high-order coefficients stay
        # below the 1e-12 target instead of sitting on the amplified
        # roundoff floor a finer grid would carry.
        g = Grid(dim=2, n=16)
        nu = 0.1
        u = tg_field(g)
        coeffs = taylor_coefficients(u, nu, order=20)
        got = evaluate(coeffs, 1.0)
        want = analytic_field(AnalyticFlow("taylor_green_2d"), 1.0, nu, g)
        assert rel_l2(got, want) <= 1e-12

    def test_order_zero_is_constant(self, random_divfree_2d):
        coeffs = taylor_coefficients(random_divfree_2d, 0.1, order=0)
        out = evaluate(coeffs, 17.5)
        assert np.array_equal(out.data, random_divfree_2d.data)


class TestEstimateRadius:
    def test_taylor_green_ratio(self):
        # Ratios (n+1)/(2 nu) grow with n; the trailing minimum must exceed
        # the first ratio 1/(2 nu) = 5. Order 6 keeps the trailing
        # coefficients signal-dominated (beyond ~order 9 they are roundoff).
        g = Grid(dim=2, n=32)
        coeffs = taylor_coefficients(tg_field(g), 0.1, order=6)
        assert estimate_radius(coeffs) == pytest.approx(4.0 / 0.2)
        assert estimate_radius(coeffs) >= 5.0

    def test_zero_field_infinite(self, zero_field_2d):
        coeffs = taylor_coefficients(zero_field_2d, 0.1, order=4)
        assert estimate_radius(coeffs) == math.inf

    def test_random_field_finite_positive(self, grid2d):
        u = random_divfree(seed=8, grid=grid2d, peak_k=3, amplitude=1.0)
        coeffs = taylor_coefficients(u, 0.01, order=8)
        r = estimate_radius(coeffs)
        assert math.isfinite(r) and r > 0.0

    def test_too_few_coefficients(self, random_divfree_2d):
        coeffs = taylor_coefficients(random_divfree_2d, 0.1, order=2)
        with pytest.raises(ValueError, match="4 coefficients"):
            estimate_radius(coeffs)


class TestStep:
    def test_taylor_green_step(self):
        g = Grid(dim=2, n=32)
        nu = 0.1
        u = tg_field(g)
        out, stats = step(u, nu, dt=0.1, tol=1e-12)
        want = analytic_field(AnalyticFlow("taylor_green_2d"), stats.dt, nu, g)
        assert stats.dt == 0.1  # radius is huge; the whole request is taken
        assert rel_l2(out, want) <= 1e-11
        assert stats.truncation_estimate <= 1e-12 * u.l2_norm()

    def test_zero_field(self, zero_field_2d):
        out, stats = step(zero_field_2d, 0.1, dt=0.5, tol=1e-10)
        assert np.max(np.abs(out.data)) == 0.0
        assert stats.order_used == 0
        assert stats.truncation_estimate == 0.0
        assert stats.radius_estimate == math.inf

    def test_semigroup_law(self):
        g = Grid(dim=2, n=32)
        nu = 0.05
        tol = 1e-10
        u = random_divfree(seed=4, grid=g, peak_k=3, amplitude=1.0)
        radius = estimate_radius(taylor_coefficients(u, nu, order=10))
        # The first step may cover less than the request; T(dt)^2 is taken
        # over the length it reports, and each half must be taken whole.
        one, s1 = step(u, nu, dt=radius / 4.0, tol=tol)
        dt = s1.dt / 2
        half1, h1 = step(u, nu, dt=dt, tol=tol)
        two, h2 = step(half1, nu, dt=dt, tol=tol)
        assert h1.dt == dt and h2.dt == dt
        assert (two - one).l2_norm() <= 10 * tol * u.l2_norm()

    def test_output_divergence_free(self, random_divfree_3d):
        out, _ = step(random_divfree_3d, 0.02, dt=0.05, tol=1e-10)
        assert relative_divergence(out) <= 1e-10

    def test_energy_contraction(self, random_divfree_2d):
        out, _ = step(random_divfree_2d, 0.05, dt=0.1, tol=1e-10)
        assert out.l2_norm() <= random_divfree_2d.l2_norm()

    def test_long_request_respects_radius_safety(self):
        # A large requested dt must be cut to within 0.5 * radius.
        g = Grid(dim=2, n=32)
        nu = 0.02
        u = random_divfree(seed=13, grid=g, peak_k=3, amplitude=2.0)
        out, stats = step(u, nu, dt=50.0, tol=1e-10)
        assert stats.dt <= 0.5 * stats.radius_estimate
        assert math.isfinite(stats.radius_estimate)

    def test_radius_collapse_error(self, random_divfree_2d):
        # max_order 1 cannot meet a 1e-14 bound with any step of at least
        # 2^-20 of dt=1.
        with pytest.raises(RadiusCollapseError) as err:
            step(random_divfree_2d, 0.0, dt=1.0, tol=1e-14, max_order=1)
        assert err.value.dt_last == pytest.approx(2.0**-20)
        # with fewer than four coefficients the radius is never estimated: +inf,
        # as StepStats reports it
        assert err.value.radius_estimate == math.inf

    # The error carries the failed step's h_N for every order it read: at a
    # request of 1e6, every order's step lies below the floor of 0.95.
    def test_radius_collapse_carries_the_reach(self, random_divfree_2d):
        with pytest.raises(RadiusCollapseError) as err:
            step(random_divfree_2d, 0.0, dt=1e6, tol=1e-14, max_order=8)
        reach = err.value.reach
        assert isinstance(reach, tuple) and len(reach) == 9
        assert all(0.0 <= h < err.value.dt_last for h in reach)
        assert reach[:2] == (0.0, 0.0) and all(a < b for a, b in zip(reach[2:], reach[3:]))

    def test_radius_collapse_message_says_what_to_change(self, random_divfree_2d):
        with pytest.raises(RadiusCollapseError) as err:
            step(random_divfree_2d, 0.0, dt=1.0, tol=1e-14, max_order=1)
        message = str(err.value)
        assert "halving" not in message and "tried" not in message
        assert "no series order up to max_order 1" in message and "2^-20" in message
        assert "raise max_order or tol, or shorten the request" in message
        assert "last radius estimate inf" in message

    def test_parameter_validation(self, random_divfree_2d):
        with pytest.raises(ValueError, match="dt"):
            step(random_divfree_2d, 0.1, dt=0.0)
        with pytest.raises(ValueError, match="tol"):
            step(random_divfree_2d, 0.1, dt=0.1, tol=0.0)
        with pytest.raises(ValueError, match="max_order must be nonnegative"):
            step(random_divfree_2d, 0.1, dt=0.1, max_order=-1)
        with pytest.raises(ValueError, match="tol"):
            lie_advance(random_divfree_2d.grid, 0.1, tol=0.0)
        with pytest.raises(ValueError, match="max_order must be nonnegative"):
            lie_advance(random_divfree_2d.grid, 0.1, max_order=-1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="dt"):
                step(random_divfree_2d, 0.1, dt=bad)
            with pytest.raises(ValueError, match="tol"):
                step(random_divfree_2d, 0.1, dt=0.1, tol=bad)
            with pytest.raises(ValueError, match="tol"):
                lie_advance(random_divfree_2d.grid, 0.1, tol=bad)
            with pytest.raises(ValueError, match="rk4 step size"):
                rk4_advance(random_divfree_2d.grid, 0.1, bad)
            with pytest.raises(ValueError, match="dt"):
                rk4_burgers(np.sin(np.arange(16.0)), 0.1, 0.1, bad)


class TestPropagate:
    def test_zero_horizon(self, random_divfree_2d):
        out = propagate(random_divfree_2d, 0.1, t_end=0.0)
        assert np.array_equal(out.data, random_divfree_2d.data)

    # t_end 0 takes no step, and the field is still checked.
    @pytest.mark.parametrize("t_end", [0.0, 0.1])
    def test_rejects_non_solenoidal(self, grid2d, rng, t_end):
        from liens import dealias, to_spectral

        w = dealias(to_spectral(random_real_field(grid2d, rng)))
        with pytest.raises(SolenoidalError, match="propagate requires"):
            propagate(w, 0.1, t_end)

    def test_one_kernel_per_run(self, lie_kernels):
        u = random_divfree(seed=5, grid=Grid(dim=2, n=32), peak_k=3, amplitude=1.0)
        _, seen = run_observed(u, 0.02, 2.0)
        assert len(seen) == 3 and len(lie_kernels) == 1
        propagate(u, 0.02, 2.0)
        assert len(lie_kernels) == 2

    def test_taylor_green_long_run(self):
        g = Grid(dim=2, n=32)
        nu = 0.1
        u = tg_field(g)
        got = propagate(u, nu, t_end=1.0, tol=1e-10)
        want = analytic_field(AnalyticFlow("taylor_green_2d"), 1.0, nu, g)
        assert rel_l2(got, want) <= 1e-8

    def test_observer_times_and_energy_decay(self):
        g = Grid(dim=2, n=32)
        nu = 0.05
        u = random_divfree(seed=2, grid=g, peak_k=3, amplitude=1.0)
        seen = [(t, energy(v), s) for t, v, s in steps(u, 0.5, lie_advance(g, nu, tol=1e-10))]
        assert seen, "no step taken"
        times = [t for t, _, _ in seen]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(0.5, abs=1e-14)
        energies = [energy(u)] + [e for _, e, _ in seen]
        for before, after in zip(energies, energies[1:]):
            assert after <= before * (1 + 1e-12)

    def test_dt_accounting_is_exact(self):
        g = Grid(dim=2, n=32)
        u = tg_field(g)
        seen = [s.dt for _, _, s in steps(u, 0.7, lie_advance(g, 0.1, tol=1e-10))]
        assert sum(seen) == pytest.approx(0.7, abs=1e-15)


def run_observed(u, nu, t_end):
    """Series steps from u to t_end: the result and every (t, field, stats)."""
    seen = list(steps(u, t_end, lie_advance(u.grid, nu)))
    return seen[-1][1], seen


class TestRoundoffFloor:
    # On an exact eigenflow the projected nonlinear term vanishes; without
    # the floor its round-off residue grows order by order and sets the
    # radius estimate, so the run takes many short steps.
    @pytest.mark.parametrize("n", [64, 128])
    def test_taylor_green_takes_one_step(self, n):
        g = Grid(dim=2, n=n)
        out, seen = run_observed(tg_field(g), 0.1, 0.5)
        assert len(seen) == 1
        assert seen[0][2].order_used <= 8
        assert rel_l2(out, tg_field(g, 0.5, 0.1)) <= 1e-12

    @pytest.mark.parametrize("kind", ["beltrami_abc", "taylor_green_3d_embedded"])
    def test_3d_eigenflows_take_one_step(self, kind):
        g = Grid(dim=3, n=64)
        flow = AnalyticFlow(kind)
        out, seen = run_observed(analytic_field(flow, 0.0, 0.05, g), 0.05, 0.5)
        assert len(seen) == 1
        assert rel_l2(out, analytic_field(flow, 0.5, 0.05, g)) <= 5e-13

    # The 16^3 eigenflows at nu 0.1 take one step to t 1, whose late orders
    # are summed from complex64 balls and projected: every mode outside the
    # flow's support stays exactly +0.0, and the sum stays within 1e-12 of
    # the closed form (5.5e-14 and 8.8e-13; 3.1e-15 and 3.4e-14 with every
    # ball complex128).
    @pytest.mark.parametrize("kind", ["beltrami_abc", "taylor_green_3d_embedded"])
    def test_3d_eigenflow_zeros_stay_positive(self, kind):
        g = Grid(dim=3, n=16)
        flow = AnalyticFlow(kind)
        out, seen = run_observed(analytic_field(flow, 0.0, 0.1, g), 0.1, 1.0)
        assert len(seen) == 1 and seen[0][2].float32_grows > 0
        want = analytic_field(flow, 1.0, 0.1, g)
        outside = out.data[want.data == 0.0]
        assert np.count_nonzero(outside) == 0
        assert not np.signbit(outside.real).any() and not np.signbit(outside.imag).any()
        assert rel_l2(out, want) <= 1e-12

    def test_floor_off_takes_more_steps(self, monkeypatch):
        monkeypatch.setattr(lie_propagator, "SERIES_FLOOR", 0.0)
        _, seen = run_observed(tg_field(Grid(dim=2, n=128)), 0.1, 0.5)
        assert len(seen) > 1

    # The 2-D field's spectrum falls by nine decades inside the dealias
    # ball, so a floor that cut genuine modes would show there.
    @pytest.mark.parametrize("dim,n,peak_k", [(3, 32, 3), (2, 64, 4)])
    def test_genuine_coefficients_unchanged(self, monkeypatch, dim, n, peak_k):
        u = random_divfree(seed=7, grid=Grid(dim=dim, n=n), peak_k=peak_k, amplitude=1.0)
        floored = taylor_coefficients(u, 0.02, order=16)
        monkeypatch.setattr(lie_propagator, "SERIES_FLOOR", 0.0)
        plain = taylor_coefficients(u, 0.02, order=16)
        for a, b in zip(floored, plain):
            assert np.max(np.abs(a.data - b.data)) <= 1e-13 * np.max(np.abs(b.data))


class TestControllerRobustness:
    # Each run must end exactly at t_end, stay divergence-free and not gain
    # energy (1e-12 relative slack per step).
    @staticmethod
    def check_run(u, nu, t_end):
        _, seen = run_observed(u, nu, t_end)
        assert seen[-1][0] == t_end
        energies = [energy(u)] + [energy(v) for _, v, _ in seen]
        for before, after in zip(energies, energies[1:]):
            assert after <= before * (1 + 1e-12)
        for _, v, _ in seen:
            assert relative_divergence(v) <= 1e-10
        return energies

    def test_inviscid_random_field_conserves_energy(self):
        u = random_divfree(seed=5, grid=Grid(dim=2, n=32), peak_k=3, amplitude=1.0)
        energies = self.check_run(u, 0.0, 0.5)
        assert abs(energies[-1] - energies[0]) <= 1e-12 * energies[0]

    def test_field_at_dealias_edge(self):
        g = Grid(dim=2, n=32)
        u = random_divfree(seed=5, grid=g, peak_k=g.n // 3, amplitude=1.0)
        self.check_run(u, 0.02, 0.5)

    def test_zero_field(self, zero_field_2d):
        _, seen = run_observed(zero_field_2d, 0.1, 0.7)
        assert seen[-1][0] == 0.7
        assert all(np.max(np.abs(v.data)) == 0.0 for _, v, _ in seen)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_large_amplitude_collapses(self):
        # The coefficients overflow, so no order meets the bound and the
        # radius estimate is nan at every attempt.
        u = random_divfree(seed=3, grid=Grid(dim=2, n=32), peak_k=3, amplitude=1e7)
        with pytest.raises(RadiusCollapseError) as err:
            step(u, 0.01, 1.0)
        assert math.isnan(err.value.radius_estimate)
        assert err.value.dt_last == 2.0**-20


class TestSeriesWorkspace:
    def test_output_outside_dealias_ball_is_zero(self, random_divfree_3d):
        v, stats = step(random_divfree_3d, 0.02, 0.5)
        assert stats.order_used > 0
        assert np.all(v.data[:, ~v.grid.dealias_keep] == 0.0)

    # tol 2 accepts order 0 at once; with the default max_order the radius
    # rule has grown four coefficients and shortens the step first.
    @pytest.mark.parametrize("max_order", [0, 30])
    def test_order_zero_step_returns_input(self, random_divfree_2d, max_order):
        v, stats = step(random_divfree_2d, 0.02, 0.5, tol=2.0, max_order=max_order)
        assert stats.order_used == 0
        assert np.array_equal(v.data, random_divfree_2d.data)

    # An order-0 step sums the ball of c_0 alone: a fresh field, zero outside
    # the dealias ball even when its input carries round-off there.
    def test_order_zero_step_is_masked(self):
        g = Grid(dim=2, n=32)
        u = random_divfree(seed=11, grid=g, peak_k=3, amplitude=1.0)
        noisy = u.with_data(u.data + 1e-12 * ~g.dealias_keep)
        v, stats = lie_advance(g, 0.05, tol=1.0)(noisy, 1.0)
        assert stats.order_used == 0
        assert not np.shares_memory(v.data, noisy.data)
        assert np.all(v.data[:, ~g.dealias_keep] == 0.0)
        assert np.array_equal(v.data, u.data)

    # The stack holds min(max_order, DEFAULT_MAX_ORDER) + 1 velocities, so a
    # huge max_order allocates nothing more and changes no bit of a step that
    # stops below order 30.
    def test_huge_max_order_changes_nothing(self):
        u = random_divfree(seed=7, grid=Grid(dim=3, n=16), peak_k=3, amplitude=1.0)
        want, stats = step(u, 0.02, 1.0, max_order=30)
        assert stats.dt == 1.0 and stats.order_used <= 30
        got, huge_stats = step(u, 0.02, 1.0, max_order=10**7)
        assert huge_stats == stats
        assert np.array_equal(got.data, want.data)

    # One grow transforms the last coefficient from its ball into the stack
    # one component at a time (0.92 half-spectrum vector fields at its peak
    # at 32^3, 1.54 at 64^2; the whole vector at once took 1.72 and 1.66),
    # then streams T_n one component at a time through the kernel's reused
    # buffers into the new coefficient's ball. Transforming whole half
    # spectra took 3.06; the whole-tensor kernel took 6.7 (3-D) and 6.5 (2-D).
    @pytest.mark.parametrize("dim,n", [(3, 32), (2, 64)])
    def test_grow_transient_is_bounded(self, dim, n):
        grid = Grid(dim=dim, n=n)
        u = random_divfree(seed=7, grid=grid, peak_k=3, amplitude=1.0)
        builder = lie_propagator._SeriesBuilder(Kernel(grid, 0.02), u.data, 30)
        for _ in range(3):
            builder.grow()
        tracemalloc.start()
        try:
            builder.grow()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * u.data.nbytes

    # Coefficient n is transformed into the stack only when grow n + 1
    # needs it, and the step sums its balls without a transform: one inverse
    # transform of a ball per grow, c_0's included. At dt
    # 3 the step grows look-ahead coefficients past its order; at dt 0.1 it
    # stops on the order whose reach covers dt.
    @pytest.mark.parametrize("dt,look_ahead", [(3.0, True), (0.1, False)])
    def test_no_transform_of_the_look_ahead(self, monkeypatch, dt, look_ahead):
        u = random_divfree(seed=7, grid=Grid(dim=3, n=32), peak_k=3, amplitude=1.0)
        transforms = []

        def counting(*args, **kwargs):
            transforms.append(kwargs.get("ball", False))
            return ifftn_real(*args, **kwargs)

        monkeypatch.setattr(lie_propagator, "ifftn_real", counting)
        _, stats = lie_advance(u.grid, 0.02)(u, dt)
        built, order = stats.coefficients_built, stats.order_used
        assert (order < built) == look_ahead
        assert (stats.dt == dt) != look_ahead
        assert len(transforms) == built
        assert transforms == [True] * len(transforms)

    def test_stack_growth_keeps_coefficients(self, monkeypatch):
        u = random_divfree(seed=7, grid=Grid(dim=2, n=16), peak_k=3, amplitude=1.0)
        grown = taylor_coefficients(u, 0.02, order=40)
        monkeypatch.setattr(lie_propagator, "DEFAULT_MAX_ORDER", 40)
        preallocated = taylor_coefficients(u, 0.02, order=40)
        for a, b in zip(grown, preallocated, strict=True):
            assert np.array_equal(a.data, b.data)

    # A stack of 9 slots switches to float32 after c_6 and doubles to 18 at
    # grow 9: the step copies its float32 slots into a new mapping, bit for
    # bit, and takes the step of a stack preallocated for all 31 slots.
    def test_float32_stack_growth_keeps_the_step(self, monkeypatch):
        u = random_divfree(seed=7, grid=Grid(dim=3, n=32), peak_k=3, amplitude=1.0)
        want, want_stats = step(u, 0.02, 0.5)
        restacks = []
        restack = lie_propagator._SeriesBuilder._restack

        def recording(builder, capacity, shift):
            restacks.append((builder.stack.dtype, len(builder.stack), capacity))
            restack(builder, capacity, shift)

        monkeypatch.setattr(lie_propagator._SeriesBuilder, "_restack", recording)
        monkeypatch.setattr(lie_propagator, "DEFAULT_MAX_ORDER", 8)
        got, stats = step(u, 0.02, 0.5)
        assert restacks == [(np.float64, 9, 9), (np.float32, 9, 18)]
        assert stats == want_stats and stats.float32_grows > 0  # (order, dt) included
        assert got.data.tobytes() == want.data.tobytes()


def recorded_step(monkeypatch, u, nu, dt):
    """One lie step from ``u`` with its grows recorded: (output, stats, the
    builder, the complex128 ball of each of c_0..c_N as it was made, the
    builder's ``shift`` after each grow, so entry n is that of slot n's)."""
    grid, made, shifts, builders = u.grid, [], [], []
    made.append(gather_ball(grid, u.data, np.empty((grid.dim, *grid.ball_shape), complex)))
    grow = lie_propagator._SeriesBuilder.grow

    def recording(builder):
        grow(builder)
        builders.append(builder)
        made.append(builder.balls[-1])
        shifts.append(builder.shift)

    monkeypatch.setattr(lie_propagator._SeriesBuilder, "grow", recording)
    v, stats = lie_advance(grid, nu)(u, dt)
    return v, stats, builders[-1], made, shifts


def half_spectrum(grid, ball):
    out = np.empty((grid.dim, *grid.spectral_shape), dtype=np.complex128)
    return SpectralVectorField(grid, scatter_ball(grid, ball, out))


class TestFloat32Grows:
    # Late orders of a step run in float32 once their rounding fits the
    # step's error budget; every grow's output and the sum stay complex128,
    # and a ball transformed into a float32 slot is then kept as that
    # slot's complex64 input (TestComplex64Balls). Every grow, in either
    # precision, floors whole modes, so every ball a step makes is
    # solenoidal, and the sum of a switched step is projected.
    @pytest.mark.parametrize("dim,n,peak_k,nu,dt", [
        (3, 32, 3, 0.02, 3.0), (2, 64, 4, 0.01, 2.0), (2, 128, 3, 0.01, 2.0)])
    def test_balls_are_divergence_free(self, monkeypatch, dim, n, peak_k, nu, dt):
        u = random_divfree(seed=7, grid=Grid(dim=dim, n=n), peak_k=peak_k, amplitude=1.0)
        v, stats, _, made, shifts = recorded_step(monkeypatch, u, nu, dt)
        assert stats.coefficients_built == len(shifts)
        assert 0 < stats.float32_grows == sum(bool(shift) for shift in shifts) < len(shifts)
        for ball in made[1:]:
            assert relative_divergence(half_spectrum(u.grid, ball)) <= 1e-14
        assert relative_divergence(v) <= 1e-15

    def test_only_a_step_switches(self, monkeypatch):
        # taylor_coefficients (criterion 8, the exact generator), ns_rhs and
        # RK4 stay in float64 bit for bit; a lie step does switch.
        dtypes = []
        apply = Kernel.apply

        def recording(kernel, stack, *args):
            dtypes.append(stack.dtype)
            return apply(kernel, stack, *args)

        monkeypatch.setattr(Kernel, "apply", recording)
        u = random_divfree(seed=7, grid=Grid(dim=3, n=16), peak_k=3, amplitude=1.0)
        taylor_coefficients(u, 0.02, order=20)
        ns_rhs(u, 0.02)
        _, rk4_stats = rk4_advance(u.grid, 0.02, 1e-3)(u, 1e-3)
        assert rk4_stats.float32_grows == 0
        assert set(dtypes) == {np.dtype(np.float64)}
        _, stats = step(u, 0.02, 1.0)
        assert stats.float32_grows > 0 and np.dtype(np.float32) in dtypes

    # (v, t, nu) -> (A v, t / A, A nu) maps solutions onto solutions. The
    # float32 slots are scaled by powers of two from max|c_0| and the step
    # length, so a power-of-two A changes no decision and no float32 value;
    # max_order 7 keeps every float64 norm of c_n ~ A^(n+1) finite.
    @pytest.mark.parametrize("exponent", [60, -60])
    def test_navier_stokes_scaling(self, exponent):
        scale = 2.0**exponent
        u = random_divfree(seed=11, grid=Grid(dim=2, n=32), peak_k=3, amplitude=1.0)
        want = list(steps(u, 0.1, lie_advance(u.grid, 0.05, 1e-10, max_order=7)))
        got = list(steps(u * scale, 0.1 / scale,
                         lie_advance(u.grid, 0.05 * scale, 1e-10, max_order=7)))
        assert [(s.order_used, s.dt * scale) for _, _, s in got] == [
            (s.order_used, s.dt) for _, _, s in want]
        assert all(s.float32_grows > 0 for _, _, s in got)
        for (_, a, _), (_, b, _) in zip(got, want):
            assert rel_l2(a * (1.0 / scale), b) <= 1e-12

    # A float32 slot must stay below 2^FLOAT32_RANGE: with no range at all
    # the switch is refused and the step is the all-float64 one.
    def test_switch_refused_when_slots_do_not_fit(self, monkeypatch):
        u = random_divfree(seed=7, grid=Grid(dim=3, n=16), peak_k=3, amplitude=1.0)
        monkeypatch.setattr(lie_propagator, "FLOAT32_BUDGET", 0.0)
        want, want_stats = step(u, 0.02, 1.0)
        monkeypatch.setattr(lie_propagator, "FLOAT32_BUDGET", 0.1)
        monkeypatch.setattr(lie_propagator, "FLOAT32_RANGE", -200)
        got, stats = step(u, 0.02, 1.0)
        assert stats == want_stats and stats.float32_grows == 0
        assert np.array_equal(got.data, want.data)

    # A later slot that would not fit sends the stack back to float64 for
    # the rest of the step: no float32 grow follows it.
    def test_slot_that_does_not_fit_ends_float32(self, monkeypatch):
        u = random_divfree(seed=7, grid=Grid(dim=3, n=16), peak_k=3, amplitude=1.0)
        fits = lie_propagator._SeriesBuilder._fits
        monkeypatch.setattr(lie_propagator._SeriesBuilder, "_fits",
                            lambda builder, m, shift: m < 12 and fits(builder, m, shift))
        precisions = []
        grow = lie_propagator._SeriesBuilder.grow

        def recording(builder):
            grow(builder)
            precisions.append(32 if builder.shift else 64)

        monkeypatch.setattr(lie_propagator._SeriesBuilder, "grow", recording)
        want, want_stats = step(u, 0.02, 1.0)
        # float64 up to the switch after c_8, float32 for grows 8..11, and
        # float64 again from grow 12, whose slot would not fit
        rest = len(precisions) - 12
        assert rest > 0 and precisions == [64] * 8 + [32] * 4 + [64] * rest
        assert want_stats.float32_grows == 4
        monkeypatch.undo()
        got, stats = step(u, 0.02, 1.0)
        assert stats.float32_grows > want_stats.float32_grows
        assert stats.order_used == want_stats.order_used and stats.dt == want_stats.dt
        assert rel_l2(got, want) <= 1e-12


# The switch rule's budget for the float32 rounding of a step, relative to
# ||u||, at the default tol.
FLOAT32_BUDGET_TOL = lie_propagator.FLOAT32_BUDGET * lie_propagator.DEFAULT_TOL


def complex128_sum(grid, made, order, t):
    """The step's sum from the grows' complex128 balls: the output of every
    step when all balls stayed complex128."""
    acc = lie_propagator._horner(made[order::-1], t, np.empty_like(made[0]))
    return half_spectrum(grid, acc)


class TestComplex64Balls:
    # A 32^3 step (seed 7, peak_k 3, nu 0.02, dt 0.5) of order 17 whose last
    # 10 grows run in float32; its norms and stats as recorded with every
    # ball complex128.
    NORMS = [
        "0x1.0000000000000p+0", "0x1.1d8938f3cba07p-1", "0x1.ee3dfbe3e28b9p-3",
        "0x1.ef9cf7cf971fdp-4", "0x1.10c957049fc72p-4", "0x1.25b4237a08d8dp-5",
        "0x1.32c213eeff36ap-6", "0x1.378b296ed091bp-7", "0x1.314c60ebfa0c3p-8",
        "0x1.1e937285db091p-9", "0x1.00fe8da258400p-10", "0x1.b86db561a88cfp-12",
        "0x1.6908d37b016bfp-13", "0x1.1bdc545113b21p-14", "0x1.aeb7b3c5187acp-16",
        "0x1.3f0c7e9633c45p-17", "0x1.d5ed240214221p-19", "0x1.5f27d983c1cbbp-20",
    ]
    STATS = StepStats(order_used=17, dt=0.5, truncation_estimate=9.98044421182148e-12,
                      radius_estimate=2.676455945469021, coefficients_built=17,
                      float32_grows=10, reach=(
                          0.0, 0.0, 1.793118747483909e-10, 2.0356124440979815e-05,
                          0.0009384382634320766, 0.006224927173947731, 0.01945790663335978,
                          0.0418090833686739, 0.07248962805181443, 0.11001944086997688,
                          0.15292358206245046, 0.19992248201554805, 0.24996778448202317,
                          0.30223176172524946, 0.35604443920216594, 0.4107798123799558,
                          0.4657213894483531, 0.5))

    @staticmethod
    def switched_step(monkeypatch):
        u = random_divfree(seed=7, grid=Grid(dim=3, n=32), peak_k=3, amplitude=1.0)
        return recorded_step(monkeypatch, u, 0.02, 0.5)

    # Each ball transformed into a float32 slot is kept as the slot's input,
    # c_n times its power of two rounded once; every other ball, the last
    # one included, is the complex128 ball its grow made.
    def test_float32_slots_keep_their_input(self, monkeypatch):
        _, _, builder, made, shifts = self.switched_step(monkeypatch)
        slots = [n for n, shift in enumerate(shifts) if shift]
        assert slots == list(range(7, 17))
        assert builder.exponents == {n: builder._exponent(n, shifts[n]) for n in slots}
        for n, (ball, c) in enumerate(zip(builder.balls, made, strict=True)):
            if n in slots:
                want = np.ldexp(c.view(np.float64), builder.exponents[n]).astype(np.float32)
                assert ball.dtype == np.complex64
                assert np.array_equal(ball.view(np.float32), want)
            else:
                assert ball.dtype == np.complex128 and np.array_equal(ball, c)

    # Every grow reads the complex128 ball of c_n, so every norm and every
    # step decision is that of complex128 storage, bit for bit.
    def test_norms_and_stats_are_those_of_complex128_balls(self, monkeypatch):
        _, stats, builder, _, _ = self.switched_step(monkeypatch)
        assert [norm.hex() for norm in builder.norms] == self.NORMS
        assert stats == self.STATS

    # Rounding each component on its own leaves k.c nonzero; the sum is
    # projected (3.6e-17; 3.6e-12 unprojected) and moves from the complex128
    # sum (by 2.0e-12) within the switch rule's budget.
    def test_sum_is_projected(self, monkeypatch):
        v, stats, _, made, _ = self.switched_step(monkeypatch)
        assert relative_divergence(v) <= 1e-15
        want = complex128_sum(v.grid, made, stats.order_used, stats.dt)
        assert 0.0 < rel_l2(v, want) <= FLOAT32_BUDGET_TOL

    # Under test_slot_that_does_not_fit_ends_float32's patch, the balls of
    # slots 8..11 stay complex64 with the exponents of the switch after the
    # stack has gone back to float64, and the sum un-scales them by those:
    # it lies 1.1e-12 from the complex128 sum, within the switch's budget.
    def test_return_to_float64_keeps_exponents(self, monkeypatch):
        u = random_divfree(seed=7, grid=Grid(dim=3, n=16), peak_k=3, amplitude=1.0)
        fits = lie_propagator._SeriesBuilder._fits
        monkeypatch.setattr(lie_propagator._SeriesBuilder, "_fits",
                            lambda builder, m, shift: m < 12 and fits(builder, m, shift))
        v, stats, builder, made, shifts = recorded_step(monkeypatch, u, 0.02, 1.0)
        assert builder.shift is False
        assert builder.exponents == {n: builder._exponent(n, shifts[n]) for n in range(8, 12)}
        assert {n for n, ball in enumerate(builder.balls) if ball.dtype == np.complex64} == set(
            range(8, 12))
        want = complex128_sum(u.grid, made, stats.order_used, stats.dt)
        assert rel_l2(v, want) <= FLOAT32_BUDGET_TOL

    # A float64 grow adds its complex128 ball; a float32 grow adds its own
    # and puts the complex64 input of its slot in place of the previous
    # ball's complex128 one: half a complex128 ball less.
    def test_float32_grow_keeps_half_a_ball_less(self):
        u = random_divfree(seed=7, grid=Grid(dim=3, n=32), peak_k=3, amplitude=1.0)
        ball = 3 * math.prod(u.grid.ball_shape) * 16
        builder = lie_propagator._SeriesBuilder(Kernel(u.grid, 0.02), u.data, 30)
        builder.grow()  # the first grow also allocates once-only buffers
        sizes, float32 = [], []
        tracemalloc.start()
        try:
            for _ in range(12):
                if len(builder.norms) > 4 and builder.shift is None:
                    builder.lower_precision(len(builder.norms) - 1, 1e-10 * builder.norms[0], 0.5)
                before = tracemalloc.get_traced_memory()[0]
                builder.grow()
                sizes.append(tracemalloc.get_traced_memory()[0] - before)
                float32.append(bool(builder.shift))
        finally:
            tracemalloc.stop()
        assert 0 < sum(float32) < len(float32)
        for added, low in zip(sizes, float32):
            assert abs(added - (0.5 if low else 1.0) * ball) <= 0.01 * ball


def resident_pages(address, nbytes):
    """How many pages of the byte range are resident in this process: the
    present bit, bit 63, of their ``/proc/self/pagemap`` entries."""
    first, end = address // mmap.PAGESIZE, -(-(address + nbytes) // mmap.PAGESIZE)
    with open("/proc/self/pagemap", "rb") as pagemap:
        pagemap.seek(8 * first)
        entries = np.frombuffer(pagemap.read(8 * (end - first)), np.uint64)
    return np.count_nonzero(entries >> np.uint64(63))


def smaps_entry(address):
    """The kB fields (Rss, Anonymous, ...) of the ``/proc/self/smaps`` entry
    of the mapping that holds ``address``."""
    fields, found = {}, False
    with open("/proc/self/smaps", encoding="utf-8", errors="replace") as smaps:
        for line in smaps:
            key, *rest = line.split()
            if not key.endswith(":"):  # the next mapping's header
                if found:
                    break
                start, end = (int(bound, 16) for bound in key.split("-"))
                found = start <= address < end
            elif found and rest[-1:] == ["kB"]:
                fields[key[:-1]] = int(rest[0])
    return fields


def switched_builder():
    """A 32^3 builder (seed 7, peak_k 3, nu 0.02) with 8 coefficients grown,
    then offered the switch at orders 4..8, as a step at dt 0.5 offers it:
    (builder, its float64 stack's buffer, a copy of its filled slots, the
    ``tracemalloc`` peak of the offers in float64 slots)."""
    u = random_divfree(seed=7, grid=Grid(dim=3, n=32), peak_k=3, amplitude=1.0)
    builder = lie_propagator._SeriesBuilder(Kernel(u.grid, 0.02), u.data, 30)
    for _ in range(8):
        builder.grow()
    buffer, filled = builder.stack, len(builder.norms) - 1
    saved = buffer[:filled].copy()
    tracemalloc.start()
    try:
        for k in range(4, 9):
            if builder.shift is None:
                builder.lower_precision(k, 1e-10 * builder.norms[0], 0.5)
        peak = tracemalloc.get_traced_memory()[1] / buffer[0].nbytes
    finally:
        tracemalloc.stop()
    assert builder.shift and builder.stack.dtype == np.float32
    return builder, buffer, saved, peak


class TestStackBuffer:
    # The switch to float32 casts the filled slots into a float32 view of
    # the step's float64 buffer, bit for bit as an allocating cast would,
    # slot 0 included, which overlaps its own source.
    def test_in_place_cast_is_the_allocating_cast(self):
        builder, buffer, saved, _ = switched_builder()
        assert np.shares_memory(builder.stack, buffer)
        assert len(saved) == 8
        for m, slot in enumerate(saved):
            want = np.ldexp(slot, builder._exponent(m, builder.shift)).astype(np.float32)
            assert np.array_equal(builder.stack[m], want)

    # The switch casts slot 0 in pieces that lie below their source, so
    # numpy copies one element of it, and allocates no second stack (31 float32
    # slots, 15.5 float64 ones, at this capacity): what tracemalloc sees is
    # numpy's cast buffer, 0.09 slots. The stack's own mapping is not traced.
    def test_switch_allocates_one_slot(self):
        _, _, _, peak = switched_builder()
        assert peak <= 0.1

    # The switch gives back the pages that held only cast float64 slots: of
    # the buffer, a private anonymous mapping (a shared one reads Anonymous:
    # 0 in smaps), no more stays resident than its 8 float32 slots.
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self")
    def test_switch_releases_the_float64_pages(self):
        builder, buffer, _, _ = switched_builder()
        address = buffer.ctypes.data
        float32_slots = -(-builder.stack[:8].nbytes // mmap.PAGESIZE)
        assert 0 < resident_pages(address, buffer.nbytes) <= float32_slots
        smaps = smaps_entry(address)
        assert smaps["Rss"] > 0 and smaps["Anonymous"] == smaps["Rss"]

    # A spent builder holds no stack: the step's sum allocates without it.
    def test_no_stack_after_evaluate(self):
        builder, _, _, _ = switched_builder()
        builder.evaluate(6, 0.1)
        assert builder.stack is None


class TestControllerDecisions:
    # The (order_used, dt) that the step controller chooses, recorded when
    # the cost-per-unit-time rule replaced the halving loop; a new step-size
    # rule re-records them.
    def test_random_run_orders_and_steps(self):
        u = random_divfree(seed=3, grid=Grid(dim=2, n=64), peak_k=4, amplitude=1.0)
        _, seen = run_observed(u, 0.01, 2.0)
        assert [(s.order_used, s.dt) for _, _, s in seen] == [(23, 0.5), (27, 0.75), (22, 0.75)]

    # One advance for the run reuses its kernel across steps and changes no
    # bit of any step: each equals ``step`` from the same field.
    def test_advance_equals_chained_steps(self):
        u = random_divfree(seed=3, grid=Grid(dim=2, n=64), peak_k=4, amplitude=1.0)
        _, seen = run_observed(u, 0.01, 2.0)
        assert len(seen) == 3
        v, remaining = u, 2.0
        for _, want, want_stats in seen:
            v, stats = step(v, 0.01, remaining)
            remaining -= stats.dt
            assert stats == want_stats
            assert v.data.tobytes() == want.data.tobytes()

    # A request of 50 is covered by equal steps, 50/k, the order and k
    # minimising the work; the step is the first of them.
    @pytest.mark.parametrize(
        "kwargs,want",
        [
            ({"tol": 1e-2}, (6, 50.0 / 94)),
            ({"tol": 1e-10}, (22, 50.0 / 105)),
            ({"tol": 1e-6, "max_order": 6}, (6, 50.0 / 588)),
        ],
    )
    def test_large_request_is_evened(self, kwargs, want):
        u = random_divfree(seed=13, grid=Grid(dim=2, n=32), peak_k=3, amplitude=2.0)
        _, stats = step(u, 0.02, dt=50.0, **kwargs)
        assert (stats.order_used, stats.dt) == want

    # The 2-D benchmark-sized run: the halving controller made 233 grows
    # for 154 retained orders, and growing two past each step's best order
    # 168 for 142. Each step now stops at its best order once the norms it
    # holds rule out every higher one (test_skipped_orders_cost_more): 158.
    def test_grows_track_retained_orders(self):
        u = random_divfree(seed=7, grid=Grid(dim=2, n=128), peak_k=4, amplitude=1.0)
        _, seen = run_observed(u, 0.01, 2.0)
        built = sum(s.coefficients_built for _, _, s in seen)
        retained = sum(s.order_used for _, _, s in seen)
        assert built <= retained + 2 * len(seen) + 3
        assert built <= 158
        _, rk4_stats = rk4_advance(u.grid, 0.01, 1e-3)(u, 1e-3)
        assert rk4_stats.coefficients_built == 0 and rk4_stats.reach == ()

    # The 2-D 64^2 run keeps its steps, and each stops at its order: 46
    # grows, where growing two past the best order made 48.
    def test_steps_stop_at_their_order(self):
        u = random_divfree(seed=7, grid=Grid(dim=2, n=64), peak_k=4, amplitude=1.0)
        _, seen = run_observed(u, 0.01, 1.0)
        assert [(s.order_used, s.dt) for _, _, s in seen] == [(25, 0.5), (21, 0.5)]
        assert [s.coefficients_built for _, _, s in seen] == [25, 21]
        assert [len(s.reach) for _, _, s in seen] == [26, 22]

    # A step stops after order n once h_{n+1} and h_{n+2}, bounded by the
    # norms of c_0..c_n (``_SeriesBuilder.ceilings``), and h_N extrapolated
    # past them cannot beat its best cover. A fresh builder repeats each
    # step's grows and switch, which gives its ``reach`` bit for bit, then
    # grows on to max_order: h_{n+1} and h_{n+2} lie within their bounds,
    # and no skipped order covers the request for less than the chosen one.
    @pytest.mark.parametrize("dim,n,peak_k,nu,t_end", [
        (2, 64, 4, 0.01, 1.0), (3, 32, 3, 0.02, 3.0)])
    def test_skipped_orders_cost_more(self, dim, n, peak_k, nu, t_end):
        u = random_divfree(seed=7, grid=Grid(dim=dim, n=n), peak_k=peak_k, amplitude=1.0)
        tol, max_order = lie_propagator.DEFAULT_TOL, lie_propagator.DEFAULT_MAX_ORDER
        kernel, v, dt = Kernel(u.grid, nu), u, t_end
        for _, after, stats in run_observed(u, nu, t_end)[1]:
            builder = lie_propagator._SeriesBuilder(kernel, v.data, max_order)
            bound, last = tol * builder.norms[0], len(stats.reach) - 1
            reach = []
            for order in range(max_order + 1):
                while len(builder.norms) <= max(order, 3):
                    builder.grow()
                reach.append(builder.reach(order, bound, dt))
                if order == last:
                    ceilings = builder.ceilings(order, bound, dt)
                if builder.shift is None:
                    builder.lower_precision(order, bound, dt)
            assert tuple(reach[: last + 1]) == stats.reach
            assert all(h <= ceiling for h, ceiling in zip(reach[last + 1:], ceilings))
            best_cost = lie_propagator._cover_cost(stats.order_used, reach[stats.order_used], dt)
            for order in range(last + 1, max_order + 1):
                assert lie_propagator._cover_cost(order, reach[order], dt) >= best_cost
            v, dt = after, dt - stats.dt

    # RK4 at dt 2.5e-3 ends at this energy; dt 5e-3 agrees to 4e-13. The
    # series run ends 3.2e-14 off, the halving controller's 5.4e-13.
    def test_long_run_matches_rk4_energy(self):
        u = random_divfree(seed=7, grid=Grid(dim=3, n=32), peak_k=3, amplitude=1.0)
        got = energy(propagate(u, 0.02, 3.0))
        assert abs(got - 0.046926468229971) <= 1e-11 * 0.046926468229971

    # Covering dt costs at least one step, so no order whose own step costs
    # the best cover can do better: the search stops there, without pricing
    # a single cover.
    def test_search_stops_at_the_best_cost(self, monkeypatch):
        priced = []

        def cover_cost(order, h, dt):
            priced.append(order)
            return math.inf

        monkeypatch.setattr(lie_propagator, "_cover_cost", cover_cost)
        best = lie_propagator._step_cost(2)
        assert lie_propagator._may_improve([0.1, 0.2], (1.0, 1.0), 1.0, best, 1.0, 30) is False
        assert priced == []


class TestSteps:
    def test_negative_horizon_rejected(self, random_divfree_2d):
        with pytest.raises(ValueError, match="t_end"):
            next(steps(random_divfree_2d, -1.0, lie_advance(random_divfree_2d.grid, 0.1)))

    @pytest.mark.parametrize(
        "run",
        [
            lambda u: propagate(u, 0.1, math.nan),
            lambda u: rk4_propagate(u, 0.1, math.nan, 1e-3),
            lambda u: rk4_burgers(np.sin(np.arange(16.0)), 0.1, math.nan, 1e-3),
        ],
        ids=["propagate", "rk4_propagate", "rk4_burgers"],
    )
    def test_nan_horizon_rejected(self, random_divfree_2d, run):
        with pytest.raises(ValueError, match="t_end"):
            run(random_divfree_2d)

    def test_infinite_horizon_rejected(self):
        calls = []

        def advance(v, remaining):
            calls.append(remaining)
            assert len(calls) < 3, "steps kept stepping towards an infinite t_end"
            return v, StepStats(order_used=4, dt=1e-3)

        with pytest.raises(ValueError, match="t_end"):
            for _ in steps(0.0, math.inf, advance):
                pass

    def test_nan_step_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            StepStats(order_used=4, dt=math.nan)

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError, match="truncation estimate must be nonnegative"):
            StepStats(order_used=4, dt=0.1, truncation_estimate=-1e-12)

    @pytest.mark.parametrize("t_end,dt,count", [(0.7, 0.1, 7), (1.0, 1e-4, 10000)])
    def test_fixed_step_run_ends_without_sliver(self, t_end, dt, count):
        # Subtracting dt count times leaves 2.8e-17 (9.4e-14) of t_end to go;
        # the last step absorbs it instead of taking a sliver step.
        def advance(v, remaining):
            return v, StepStats(order_used=4, dt=fixed_step(dt, remaining))

        times = [t for t, _, _ in steps(0.0, t_end, advance)]
        assert len(times) == count
        assert times[-1] == t_end


def non_solenoidal(grid):
    return dealias(to_spectral(random_real_field(grid, np.random.default_rng(1234))))


VISCOSITY = "viscosity must be finite and nonnegative"


# ``Kernel`` checks nu; the last two cases fix the order of the checks on a
# field that fails its own: ns_rhs checks nu first, taylor_coefficients the
# field.
@pytest.mark.parametrize(
    "call,field,message",
    [
        (lambda u: step(u, -0.1, 0.1), tg_field, VISCOSITY),
        (lambda u: propagate(u, -0.1, 0.1), tg_field, VISCOSITY),
        (lambda u: taylor_coefficients(u, -0.1, 4), tg_field, VISCOSITY),
        (lambda u: lie_advance(u.grid, -0.1), tg_field, VISCOSITY),
        (lambda u: ns_rhs(u, -0.1), tg_field, VISCOSITY),
        (lambda u: rk4_step(u, -0.1, 1e-3), tg_field, VISCOSITY),
        (lambda u: rk4_advance(u.grid, -0.1, 1e-3), tg_field, VISCOSITY),
        (lambda u: rk4_propagate(u, -0.1, 0.1, 1e-3), tg_field, VISCOSITY),
        (lambda u: Kernel(u.grid, -0.1), tg_field, VISCOSITY),
        (lambda u: ns_rhs(u, -1.0), non_solenoidal, VISCOSITY),
        (lambda u: taylor_coefficients(u, -1.0, 4), non_solenoidal,
         "requires a divergence-free field"),
    ],
    ids=["step", "propagate", "taylor_coefficients", "lie_advance", "ns_rhs", "rk4_step",
         "rk4_advance", "rk4_propagate", "Kernel", "ns_rhs-nu-before-field",
         "taylor_coefficients-field-before-nu"],
)
def test_negative_viscosity_rejected(call, field, message):
    with pytest.raises(ValueError, match=message):
        call(field(Grid(dim=2, n=32)))
