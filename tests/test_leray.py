"""Pressure solve, projection, and the Navier-Stokes right-hand side."""

import numpy as np
import pytest

from liens import (
    AnalyticFlow,
    Grid,
    RealVectorField,
    analytic_field,
    compute_pressure,
    leray_project,
    ns_rhs,
    to_physical,
    to_spectral,
)
from liens.errors import SolenoidalError
from liens.grid_spectral import ifftn_real, inner_product, relative_divergence, zero_vector_field
from liens.leray import CAUCHY_CHUNK, TENSOR_INDEX, cauchy_component, viscosity_value
from liens.reference_oracles import ns_rhs_via_pressure, random_divfree

from conftest import random_real_field


def taylor_green(grid):
    return analytic_field(AnalyticFlow("taylor_green_2d"), 0.0, 0.0, grid)


class TestViscosity:
    def test_nonnegative(self):
        assert viscosity_value(0.0) == 0.0
        assert viscosity_value(0.1) == 0.1
        with pytest.raises(ValueError):
            viscosity_value(-0.5)
        with pytest.raises(ValueError):
            viscosity_value(float("nan"))


class TestComputePressure:
    def test_zero_field(self, grid2d):
        p = compute_pressure(zero_vector_field(grid2d))
        assert np.max(np.abs(p.data)) == 0.0

    def test_taylor_green_pressure(self):
        # (v.grad)v for Taylor-Green is a pure gradient; the matching
        # zero-mean pressure is -(cos 2x + cos 2y)/4 (hand expansion).
        g = Grid(dim=2, n=64)
        p = compute_pressure(taylor_green(g))
        x, y = g.mesh()
        expected = -(np.cos(2 * x) + np.cos(2 * y)) / 4.0
        phys = ifftn_real(g, p.data)
        assert np.max(np.abs(phys - expected)) < 1e-12

    def test_taylor_green_poisson_fd_oracle(self):
        # Independent check on 128^2: a second-order finite-difference
        # Laplacian applied to the spectral pressure reproduces the source
        # -sum_ij d_i v_j d_j v_i to FD accuracy (~(kh)^2/12 ~ 8e-4).
        g = Grid(dim=2, n=128)
        v = taylor_green(g)
        p_phys = ifftn_real(g, compute_pressure(v).data)
        h = g.spacing
        lap_fd = (
            np.roll(p_phys, 1, axis=0)
            + np.roll(p_phys, -1, axis=0)
            + np.roll(p_phys, 1, axis=1)
            + np.roll(p_phys, -1, axis=1)
            - 4.0 * p_phys
        ) / h**2
        x, y = g.mesh()
        source = np.cos(2 * x) + np.cos(2 * y)  # -S for Taylor-Green
        scale = np.max(np.abs(source))
        assert np.max(np.abs(lap_fd - source)) < 2e-3 * scale

    def test_beltrami_pressure_balances_advection(self):
        # The ABC nonlinearity is a pure gradient: grad p + (v.grad)v = 0.
        g = Grid(dim=3, n=32)
        v = analytic_field(AnalyticFlow("beltrami_abc"), 0.0, 0.0, g)
        p = compute_pressure(v)
        from liens.reference_oracles import advection_hat

        adv = advection_hat(g, v.data)
        residual = adv.copy()
        for a in range(g.dim):
            residual[a] += 1j * g.k_deriv[a] * p.data
        norm = np.sqrt(g.volume * np.sum(g.weight * np.abs(residual) ** 2))
        assert norm < 1e-10

    def test_zero_mean_gauge(self, random_divfree_2d):
        p = compute_pressure(random_divfree_2d)
        assert abs(p.mean_coefficient) == 0.0

    def test_rejects_non_solenoidal(self, grid2d, rng):
        w = to_spectral(random_real_field(grid2d, rng))
        from liens import dealias

        w = dealias(w)
        assert relative_divergence(w) > 1e-6
        with pytest.raises(SolenoidalError):
            compute_pressure(w)


class TestLerayProject:
    def test_annihilates_gradients(self):
        g = Grid(dim=2, n=32)
        x, y = g.mesh()
        phi_grad = np.stack(
            (-np.sin(x) * np.cos(2 * y), -2 * np.cos(x) * np.sin(2 * y))
        )  # grad of cos(x)cos(2y)
        out = leray_project(to_spectral(RealVectorField(g, phi_grad)))
        assert np.max(np.abs(out.data)) < 1e-12

    def test_fixes_divergence_free(self, random_divfree_2d):
        out = leray_project(random_divfree_2d)
        diff = np.max(np.abs(out.data - random_divfree_2d.data))
        assert diff <= 1e-12 * max(np.max(np.abs(random_divfree_2d.data)), 1e-30)

    def test_hand_decomposition(self):
        # w = (sin y, 0, 0) + grad(cos x): projection recovers (sin y, 0, 0).
        g = Grid(dim=3, n=16)
        x, y, _ = g.mesh()
        w = np.stack((np.sin(y) - np.sin(x), np.zeros(g.shape), np.zeros(g.shape)))
        out = to_physical(leray_project(to_spectral(RealVectorField(g, w))))
        assert np.max(np.abs(out.data[0] - np.sin(y))) < 1e-12
        assert np.max(np.abs(out.data[1:])) < 1e-13

    def test_idempotent(self, grid2d, rng):
        w = to_spectral(random_real_field(grid2d, rng))
        once = leray_project(w)
        twice = leray_project(once)
        assert np.max(np.abs(twice.data - once.data)) <= 1e-14 * max(
            np.max(np.abs(once.data)), 1e-30
        )

    def test_output_divergence(self, grid2d, grid3d, rng):
        for g in (grid2d, grid3d):
            w = to_spectral(random_real_field(g, rng))
            out = leray_project(w)
            from liens.grid_spectral import div_max

            assert div_max(out) <= 1e-12 * w.l2_norm()


class TestNsRhs:
    def test_zero_field(self, grid2d):
        out = ns_rhs(zero_vector_field(grid2d), 0.3)
        assert np.max(np.abs(out.data)) == 0.0

    def test_taylor_green_is_eigenfield(self):
        # Projected advection vanishes, leaving nu*lap(v) = -2 nu v.
        g = Grid(dim=2, n=64)
        v = taylor_green(g)
        nu = 0.1
        out = ns_rhs(v, nu)
        expected = -2.0 * nu * v.data
        assert np.max(np.abs(out.data - expected)) < 1e-12
        # and the projected nonlinear part alone is negligible:
        out_inviscid = ns_rhs(v, 0.0)
        assert np.max(np.abs(out_inviscid.data)) < 1e-12

    def test_beltrami_is_eigenfield(self):
        g = Grid(dim=3, n=32)
        v = analytic_field(AnalyticFlow("beltrami_abc"), 0.0, 0.0, g)
        nu = 0.05
        out = ns_rhs(v, nu)
        assert np.max(np.abs(out.data + nu * v.data)) < 1e-12

    def test_two_paths_agree(self, random_divfree_2d, random_divfree_3d):
        for v in (random_divfree_2d, random_divfree_3d):
            nu = 0.07
            a = ns_rhs(v, nu)
            b = ns_rhs_via_pressure(v, nu)
            scale = max(np.max(np.abs(a.data)), 1e-30)
            assert np.max(np.abs(a.data - b.data)) <= 1e-12 * scale

    def test_output_divergence_free(self, random_divfree_3d):
        out = ns_rhs(random_divfree_3d, 0.02)
        assert relative_divergence(out) < 1e-12

    def test_mean_mode_conserved(self, random_divfree_2d, random_divfree_3d):
        for v in (random_divfree_2d, random_divfree_3d):
            out = ns_rhs(v, 0.1)
            mean = out.data[(slice(None),) + (0,) * v.grid.dim]
            assert np.max(np.abs(mean)) <= 1e-13

    # At 1e200 the norms overflow and the relative divergence reads NaN; the
    # check fails on it rather than letting the field into the kernel.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e150, 1e200])
    def test_rejects_overflowing_non_solenoidal(self, scale):
        from liens import dealias

        g = Grid(dim=2, n=16)
        x, _ = g.mesh()
        w = dealias(to_spectral(RealVectorField(g, np.stack([np.sin(x), 0 * x]))))
        with pytest.raises(SolenoidalError, match="requires a divergence-free field") as err:
            ns_rhs(scale * w, 0.1)
        if scale > 1e154:
            assert "norms overflow float64" in str(err.value)

    def test_rejects_non_solenoidal(self, grid2d, rng):
        from liens import dealias

        w = dealias(to_spectral(random_real_field(grid2d, rng)))
        with pytest.raises(SolenoidalError):
            ns_rhs(w, 0.1)


class TestDissipativity:
    @pytest.mark.parametrize("dim_n", [(2, 32), (3, 16)])
    def test_identity_on_random_fields(self, dim_n):
        dim, n = dim_n
        g = Grid(dim=dim, n=n)
        nu = 0.1
        from liens import enstrophy_norm

        for seed in range(10):
            v = random_divfree(seed=seed, grid=g, peak_k=3, amplitude=1.0)
            lhs = inner_product(ns_rhs(v, nu), v)
            ens = enstrophy_norm(v)
            assert abs(lhs + nu * ens) <= 1e-10 * nu * ens
            assert lhs <= 0.0

    def test_inviscid_skew_symmetry(self, random_divfree_2d):
        from liens import energy

        lhs = inner_product(ns_rhs(random_divfree_2d, 0.0), random_divfree_2d)
        assert abs(lhs) <= 1e-12 * energy(random_divfree_2d)

    def test_flipped_pressure_sign_negative_control(self, random_divfree_2d):
        # Gradients are exactly orthogonal to divergence-free fields, so the
        # energy inner product cannot see the pressure sign; what the flip
        # does break is the solenoidality of the output (div F = 2 div(adv)),
        # which the dissipativity verification case asserts alongside the
        # inner-product identity.
        nu = 0.1
        v = random_divfree_2d
        good = ns_rhs(v, nu)
        bad = ns_rhs_via_pressure(v, nu, pressure_sign=-1.0)
        assert relative_divergence(good) <= 1e-12
        assert relative_divergence(bad) > 1e-3


class TestCauchyTensor:
    @staticmethod
    def direct(stack, n):
        """sum_m sum_(i, j) (v_m)_i (v_{n-m})_j, one product at a time."""
        index = TENSOR_INDEX[stack.shape[1]]
        want = np.zeros((len(index), *stack.shape[2:]))
        for m in range(n + 1):
            for c, (i, j) in enumerate(index):
                want[c] += stack[m, i] * stack[n - m, j]
        return want

    # 8^2 and 8^3 points fit in one chunk; 96^2 and 24^3 take two, the last
    # one partial.
    @pytest.mark.parametrize("shape", [(2, 8, 8), (2, 96, 96), (3, 8, 8, 8), (3, 24, 24, 24)])
    @pytest.mark.parametrize("n", [0, 1, 4, 7])
    def test_matches_direct_sum(self, shape, n):
        assert (np.prod(shape[1:]) > CAUCHY_CHUNK) == (shape[1] > 8)
        rng = np.random.default_rng(n)
        # a spare slot beyond v_n, which the sum must not read
        stack = rng.standard_normal((n + 2, *shape))
        want = self.direct(stack, n)
        got = np.full_like(want, np.nan)
        for c, (i, j) in enumerate(TENSOR_INDEX[shape[0]]):
            cauchy_component(stack, n, i, j, got[c])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
