"""1-D Burgers bench: recursion, series evaluation, RK4 reference."""

import numpy as np
import pytest

import liens.operator_calculus as operator_calculus
from liens.burgers1d import (
    burgers_rhs,
    cross_check,
    rk4_burgers,
    taylor_coefficients_burgers,
)
from liens.errors import FieldError
from liens.lie_propagator import _horner


@pytest.fixture
def u0():
    x = 2 * np.pi * np.arange(64) / 64
    return np.sin(x) + 0.3 * np.cos(2 * x)


class TestRecursion:
    def test_c0_is_initial_data(self, u0):
        coeffs = taylor_coefficients_burgers(u0, 0.1, 3)
        assert np.array_equal(coeffs[0], u0)

    def test_c1_is_rhs(self, u0):
        coeffs = taylor_coefficients_burgers(u0, 0.1, 1)
        assert np.max(np.abs(coeffs[1] - burgers_rhs(u0, 0.1))) < 1e-13

    def test_heat_limit(self):
        # With the nonlinearity negligible (tiny amplitude), c_n tends to
        # (-nu k^2)^n / n! times the single-mode initial data.
        from math import factorial

        n = 64
        x = 2 * np.pi * np.arange(n) / n
        eps = 1e-8
        u = eps * np.sin(3 * x)
        nu = 0.2
        coeffs = taylor_coefficients_burgers(u, nu, 4)
        lam = -nu * 9.0
        for k, c in enumerate(coeffs):
            want = (lam**k / factorial(k)) * u
            # allowance covers the O(eps^2) advection correction
            assert np.max(np.abs(c - want)) <= 10 * eps**2 * (1 + abs(lam)) ** k

    def test_rejects_bad_input(self, u0):
        with pytest.raises(ValueError):
            taylor_coefficients_burgers(u0, 0.1, -2)
        with pytest.raises(FieldError):
            taylor_coefficients_burgers(np.array([1.0, np.nan]), 0.1, 1)

    def test_rejects_empty_samples(self):
        with pytest.raises(FieldError, match="at least one sample"):
            taylor_coefficients_burgers(np.array([]), 0.1, 2)


class TestSeriesVsRk4:
    def test_monotone_convergence(self, u0):
        # Frozen behavior at nu=0.1, t=0.1: errors decrease monotonically
        # for N = 2..10 and reach <= 1e-8 (measured 9.6e-9).
        nu, t = 0.1, 0.1
        ref = rk4_burgers(u0, nu, t, dt=1e-4)
        coeffs = taylor_coefficients_burgers(u0, nu, 10)
        errors = []
        for order in range(2, 11):
            approx = _horner(coeffs[order::-1], t, np.empty_like(u0))
            errors.append(np.linalg.norm(approx - ref) / np.linalg.norm(ref))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-8

    def test_rk4_short_step_invariance(self, u0):
        a = rk4_burgers(u0, 0.1, 0.05, dt=1e-3)
        b = rk4_burgers(u0, 0.1, 0.05, dt=5e-4)
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-10

    def test_rk4_matches_textbook_rk4(self, u0):
        # Ten steps of 2^-10: the remaining time stays exact, so every step
        # is a whole dt.
        nu, dt = 0.1, 2.0**-10
        u = u0
        for _ in range(10):
            k1 = burgers_rhs(u, nu)
            k2 = burgers_rhs(u + 0.5 * dt * k1, nu)
            k3 = burgers_rhs(u + 0.5 * dt * k2, nu)
            k4 = burgers_rhs(u + dt * k3, nu)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(rk4_burgers(u0, nu, 10 * dt, dt), u)

    def test_evaluate_series_horner(self, u0):
        coeffs = taylor_coefficients_burgers(u0, 0.1, 4)
        t = 0.03
        direct = sum(c * t**k for k, c in enumerate(coeffs))
        assert np.max(np.abs(_horner(coeffs[::-1], t, np.empty_like(u0)) - direct)) < 1e-14

    def test_under_resolution_is_detectable(self):
        # On n=32 the order-8 coefficients exceed the resolvable bandwidth;
        # the symbolic route (exact pointwise) then disagrees beyond 1e-8.
        from fractions import Fraction
        from math import factorial

        from liens import DiffPoly, a_power_u, eval_diffpoly

        n = 32
        x = 2 * np.pi * np.arange(n) / n
        u = np.sin(x) + 0.3 * np.cos(2 * x)
        nu = Fraction(1, 10)
        coeffs = taylor_coefficients_burgers(u, 0.1, 8)
        sym = eval_diffpoly(a_power_u(DiffPoly.u(2) * nu - DiffPoly.u(0) * DiffPoly.u(1), 8), u)
        num = factorial(8) * coeffs[8]
        rel = np.linalg.norm(sym - num) / np.linalg.norm(num)
        assert rel > 1e-8


class TestDerivativeFloor:
    # The symbolic route takes the 2k-th spectral derivative of the samples;
    # without the floor, round-off at |j| ~ n/2 is multiplied by j^{2k}.
    def test_high_derivatives_match_closed_form(self, u0):
        x = 2 * np.pi * np.arange(64) / 64
        derivs = operator_calculus.spectral_derivatives(u0, 16)
        for k, got in enumerate(derivs):
            want = np.sin(x + k * np.pi / 2) + 0.3 * 2**k * np.cos(2 * x + k * np.pi / 2)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_symbolic_powers_agree_to_round_off(self):
        symbolic, _ = cross_check(10, 64)
        assert max(symbolic) <= 1e-13

    def test_floor_off_amplifies_noise(self, monkeypatch):
        monkeypatch.setattr(operator_calculus, "DERIVATIVE_FLOOR", 0.0)
        symbolic, _ = cross_check(10, 64)
        assert max(symbolic) > 1e-8
