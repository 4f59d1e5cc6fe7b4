"""Exact generator calculus: action, powers, Leibniz law, text round-trip.

The independent oracle here is a little sympy prolongation engine: same
mathematics, entirely different term representation and arithmetic.
"""

import dataclasses
import hashlib
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from liens import (
    DiffPoly,
    a_power_u,
    apply_A,
    derivation_check,
    eval_diffpoly,
    parse_diffpoly,
)
import liens.operator_calculus as operator_calculus
from liens.errors import FieldError
from liens.operator_calculus import EVAL_BLOCK, MAX_EXPONENT, MAX_TERMS, spectral_derivatives

U = DiffPoly.u


def heat():
    return U(2)


def inviscid_burgers():
    return -(U(0) * U(1))


def viscous_burgers(nu=Fraction(1, 10)):
    return U(2) * nu - U(0) * U(1)


# -- sympy oracle -----------------------------------------------------------


def _sympy_symbols(max_order):
    return sp.symbols([f"v{k}" for k in range(max_order + 1)])


def to_sympy(p: DiffPoly, syms):
    expr = sp.Integer(0)
    for mono in p.monomials():
        term = sp.Rational(mono.coeff.numerator, mono.coeff.denominator)
        for order, exp in mono.powers:
            term *= syms[order] ** exp
        expr += term
    return sp.expand(expr)


def sympy_generator_action(f_expr, g_expr, syms):
    """Prolongation formula evaluated with sympy arithmetic end to end."""
    top = len(syms) - 1

    def total_d(expr):
        return sp.expand(
            sum(sp.diff(expr, syms[k]) * syms[k + 1] for k in range(top))
        )

    present = [k for k, s in enumerate(syms) if g_expr.has(s)]
    out = sp.Integer(0)
    dkf = f_expr
    for k in range((max(present) if present else 0) + 1):
        if k > 0:
            dkf = total_d(dkf)
        out += dkf * sp.diff(g_expr, syms[k])
    return sp.expand(out)


def sympy_apply_A(f: DiffPoly, g: DiffPoly, headroom=12):
    top = max(f.max_order, g.max_order) + headroom
    syms = _sympy_symbols(top)
    return sympy_generator_action(to_sympy(f, syms), to_sympy(g, syms), syms)


def assert_matches_sympy(p: DiffPoly, expr):
    syms = _sympy_symbols(max(p.max_order, 0) + 2)
    assert sp.expand(to_sympy(p, syms) - expr) == 0


# -- construction and arithmetic -------------------------------------------


class TestDiffPoly:
    def test_canonical_merging(self):
        p = U(1) * U(0) + U(0) * U(1)
        assert p == 2 * (U(0) * U(1))

    def test_zero_coefficients_dropped(self):
        p = U(2) - U(2)
        assert p.is_zero
        assert p == DiffPoly.zero()

    def test_normalization_idempotent(self):
        p = 3 * U(0) ** 2 * U(1) - DiffPoly.constant(Fraction(1, 2))
        q = DiffPoly({m.powers: m.coeff for m in p.monomials()})
        assert p == q

    def test_colliding_keys_add_up(self):
        # Two spellings of u_0*u_1 name one monomial; their coefficients add.
        p = DiffPoly({((1, 1), (0, 1)): 1, ((0, 1), (1, 1)): Fraction(1, 2)})
        assert p == Fraction(3, 2) * (U(0) * U(1))
        assert DiffPoly({((1, 1), (0, 1)): 1, ((0, 1), (1, 1)): -1}).is_zero

    @pytest.mark.parametrize("coeff", [0.1, 1.0, np.float64(0.5), np.int64(2), "1/2"])
    def test_rejects_inexact_coefficients(self, coeff):
        # Fraction(0.1) would silently store 3602879701896397/2^55.
        with pytest.raises(TypeError, match="int or Fraction"):
            DiffPoly({((0, 1),): coeff})
        with pytest.raises(TypeError, match="int or Fraction"):
            DiffPoly.constant(coeff)
        with pytest.raises(TypeError, match="int or Fraction"):
            DiffPoly({((1, 2),): coeff})

    def test_rejects_bad_powers(self):
        with pytest.raises(ValueError):
            DiffPoly({((-1, 2),): 1})
        with pytest.raises(ValueError):
            DiffPoly({((0, 0),): 1})
        with pytest.raises(ValueError, match="once"):
            DiffPoly({((0, 1), (0, 1)): 1})  # would otherwise read as u_0
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            U(1) ** -1

    def test_monomial_ordering(self):
        p = U(0) ** 3 + U(2) + U(0) * U(1)
        degrees = [m.total_degree for m in p.monomials()]
        assert degrees == sorted(degrees)

    def test_total_derivative_leibniz(self):
        p = U(0) * U(1)
        assert p.total_derivative() == U(1) ** 2 + U(0) * U(2)

    def test_partial(self):
        p = 3 * U(0) ** 2 * U(1)
        assert p.partial(0) == 6 * (U(0) * U(1))
        assert p.partial(1) == 3 * U(0) ** 2
        assert p.partial(5).is_zero


class TestApplyA:
    def test_heat_on_u(self):
        assert apply_A(heat(), U(0)) == U(2)

    def test_heat_twice(self):
        once = apply_A(heat(), U(0))
        assert apply_A(heat(), once) == U(4)

    def test_a_u_equals_f(self):
        # The generator sends u to its defining right-hand side.
        for f in (heat(), inviscid_burgers(), viscous_burgers(), U(1) ** 2 - U(3)):
            assert apply_A(f, U(0)) == f

    def test_inviscid_burgers_second_power(self):
        # Hand computation: A(-u u1) = -(Au) u1 - u D_x(Au)
        #                = 2 u u1^2 + u^2 u2.
        expected = 2 * (U(0) * U(1) ** 2) + U(0) ** 2 * U(2)
        assert a_power_u(inviscid_burgers(), 2) == expected

    def test_viscous_burgers_second_power(self):
        # nu^2 u4 - 2 nu u u3 - 4 nu u1 u2 + 2 u u1^2 + u^2 u2 (hand
        # computation, confirmed against the sympy oracle below).
        nu = Fraction(1, 10)
        expected = (
            nu**2 * U(4)
            - 2 * nu * (U(0) * U(3))
            - 4 * nu * (U(1) * U(2))
            + 2 * (U(0) * U(1) ** 2)
            + U(0) ** 2 * U(2)
        )
        assert a_power_u(viscous_burgers(nu), 2) == expected

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_powers_match_sympy_oracle(self, n):
        # Iterate the generator action entirely on the sympy side, then
        # compare once at the end; the two engines share no representation.
        f = viscous_burgers()
        syms = _sympy_symbols(2 * n + 4)
        f_expr = to_sympy(f, syms)
        expr = syms[0]
        for _ in range(n):
            expr = sympy_generator_action(f_expr, expr, syms)
        assert_matches_sympy(a_power_u(f, n), expr)

    def test_a_power_u_base_cases(self):
        assert a_power_u(heat(), 0) == U(0)
        assert a_power_u(viscous_burgers(), 1) == viscous_burgers()
        with pytest.raises(ValueError, match="nonnegative"):
            a_power_u(heat(), -1)


class TestDerivationAndLinearity:
    def test_heat_leibniz(self):
        assert derivation_check(heat(), U(0), U(1))

    def test_burgers_square_identity(self):
        # A(u^2) = 2 u A(u)
        assert derivation_check(inviscid_burgers(), U(0), U(0))

    def test_broken_operator_fails(self):
        def broken(f, g):
            return apply_A(f, g) + U(1)  # additive defect is not a derivation

        assert derivation_check(heat(), U(0), U(1), operator=broken) is False

    def test_linearity(self):
        f = viscous_burgers()
        g = U(0) * U(1)
        h = U(2) ** 2
        assert apply_A(f, g + h) == apply_A(f, g) + apply_A(f, h)
        c = Fraction(7, 3)
        assert apply_A(f, c * g) == c * apply_A(f, g)


# -- random exactness (acceptance criterion 9 counterpart) ------------------


@st.composite
def diff_polys(draw, max_order=3, max_degree=3, max_terms=3):
    n_terms = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n_terms):
        n_factors = draw(st.integers(1, max_degree))
        powers: dict[int, int] = {}
        for _ in range(n_factors):
            order = draw(st.integers(0, max_order))
            powers[order] = powers.get(order, 0) + 1
        coeff = Fraction(
            draw(st.integers(-4, 4).filter(lambda v: v != 0)), draw(st.integers(1, 4))
        )
        key = tuple(sorted(powers.items()))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return DiffPoly(terms)


@settings(max_examples=40, deadline=None)
@given(f=diff_polys(), g=diff_polys(), h=diff_polys())
def test_derivation_law_random(f, g, h):
    assert derivation_check(f, g, h)


@settings(max_examples=40, deadline=None)
@given(f=diff_polys(), g=diff_polys(), h=diff_polys())
def test_linearity_random(f, g, h):
    assert apply_A(f, g + h) == apply_A(f, g) + apply_A(f, h)
    assert apply_A(f, Fraction(-5, 2) * g) == Fraction(-5, 2) * apply_A(f, g)


@settings(max_examples=25, deadline=None)
@given(f=diff_polys(max_order=2, max_degree=2, max_terms=2),
       g=diff_polys(max_order=2, max_degree=2, max_terms=2))
def test_apply_matches_sympy_random(f, g):
    assert_matches_sympy(apply_A(f, g), sympy_apply_A(f, g))


def sympy_power_u(f: DiffPoly, n: int):
    """A^n u by n generator actions on the sympy side."""
    syms = _sympy_symbols((n + 1) * max(f.max_order, 1) + 2)
    f_expr, expr = to_sympy(f, syms), syms[0]
    for _ in range(n):
        expr = sympy_generator_action(f_expr, expr, syms)
    return expr


@settings(max_examples=25, deadline=None)
@given(f=diff_polys(max_order=2, max_degree=2, max_terms=2))
def test_total_derivative_and_partials_match_sympy(f):
    syms = _sympy_symbols(f.max_order + 2)
    expr = to_sympy(f, syms)
    d_expr = sum(sp.diff(expr, syms[k]) * syms[k + 1] for k in range(len(syms) - 1))
    assert_matches_sympy(f.total_derivative(), d_expr)
    for k in range(len(syms)):
        assert_matches_sympy(f.partial(k), sp.diff(expr, syms[k]))


# -- the integer kernel of a_power_u ----------------------------------------

def assert_canonical(p: DiffPoly):
    """Canonical storage: sorted keys of distinct orders, positive exponents,
    nonzero Fraction coefficients, and the same value and hash as the terms
    passed through the public constructor."""
    for mono in p.monomials():
        assert type(mono.coeff) is Fraction and mono.coeff != 0
        orders = [order for order, _ in mono.powers]
        assert orders == sorted(set(orders)) and all(order >= 0 for order in orders)
        assert all(type(exp) is int and exp > 0 for _, exp in mono.powers)
    rebuilt = DiffPoly({mono.powers: mono.coeff for mono in p.monomials()})
    assert rebuilt == p and hash(rebuilt) == hash(p)


MIXED_COEFFS = (Fraction(1, 10), Fraction(2, 3), Fraction(-7, 4))


@st.composite
def mixed_generators(draw):
    """Generators whose coefficients mix the denominators 10, 3 and 4."""
    terms = {}
    for coeff in draw(st.lists(st.sampled_from(MIXED_COEFFS), min_size=2, max_size=3)):
        powers: dict[int, int] = {}
        for order in draw(st.lists(st.integers(0, 2), min_size=1, max_size=2)):
            powers[order] = powers.get(order, 0) + 1
        key = tuple(sorted(powers.items()))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return DiffPoly(terms)


@settings(max_examples=15, deadline=None)
@given(f=mixed_generators(), n=st.integers(0, 4))
def test_a_power_u_matches_sympy_mixed_denominators(f, n):
    # a_power_u scales f to integers by the lcm of its denominators; the
    # oracle iterates the action in sympy rationals.
    assert_matches_sympy(a_power_u(f, n), sympy_power_u(f, n))


class TestPowerEdgeCases:
    def test_zero_generator(self):
        zero = DiffPoly.zero()
        assert a_power_u(zero, 0) == U(0)
        for n in (1, 2, 5):
            assert a_power_u(zero, n).is_zero

    def test_constant_generator(self):
        c = DiffPoly.constant(Fraction(-7, 4))
        assert a_power_u(c, 1) == c
        for n in (2, 3):
            assert a_power_u(c, n).is_zero

    def test_terms_cancel_after_one_action(self):
        # f = 2/3 (u u_2 - u_1^2): in A f the u u_2^2 terms of f df/du and
        # D_x^2(f) df/du_2 cancel, as do the u_1 u_2 terms inside D_x f.
        f = Fraction(2, 3) * (U(0) * U(2) - U(1) ** 2)
        expected = Fraction(4, 9) * (U(1) ** 2 * U(2) - 2 * (U(0) * U(1) * U(3)) + U(0) ** 2 * U(4))
        assert f.total_derivative() == Fraction(2, 3) * (U(0) * U(3) - U(1) * U(2))
        assert a_power_u(f, 2) == expected
        assert_canonical(a_power_u(f, 2))
        assert_matches_sympy(a_power_u(f, 3), sympy_power_u(f, 3))


# -- the power each generator keeps -------------------------------------------
#
# a_power_u keeps its integer recursion on the generator: a call at or above
# the kept order continues from the kept power, a lower one restarts from u,
# and one whose terms need wider slots repacks what is kept.

CACHE_GENERATORS = {
    "zero": DiffPoly.zero,
    "constant": lambda: DiffPoly.constant(Fraction(-7, 4)),
    "linear": lambda: parse_diffpoly("u_3 - 2/3*u_1 + 5*u_0"),
    "quadratic": viscous_burgers,
    # degree 3: the terms of order n have degree 2n + 1, so the width grows
    "cubic": lambda: parse_diffpoly("u_0^2*u_1 - 1/3*u_2"),
}
ORDER_PATTERNS = {
    "ascending": (0, 1, 2, 3, 4, 5),
    "repeated": (3, 3, 3),
    "lower after higher": (5, 2, 4, 1),
    "jump past the width": (1, 6),
}


@pytest.mark.parametrize("pattern", sorted(ORDER_PATTERNS))
@pytest.mark.parametrize("generator", sorted(CACHE_GENERATORS))
def test_kept_power_gives_the_apply_chain(generator, pattern):
    f = CACHE_GENERATORS[generator]()
    orders = ORDER_PATTERNS[pattern]
    chain = [U(0)]
    for _ in range(max(orders)):
        chain.append(apply_A(f, chain[-1]))
    for n in orders:
        power = a_power_u(f, n)
        assert power == chain[n]
        assert_canonical(power)
        assert f._powers.order == n


def count_actions(monkeypatch) -> list:
    """Patch the action kernel to record each call; returns the record."""
    calls = []
    act = operator_calculus._act

    def counted(*args):
        calls.append(args)
        return act(*args)

    monkeypatch.setattr(operator_calculus, "_act", counted)
    return calls


def test_one_action_per_order(monkeypatch):
    calls = count_actions(monkeypatch)
    f = viscous_burgers()
    for k in range(12):
        a_power_u(f, k)
    assert len(calls) == 11  # the width grew at orders 3 and 7 without a restart
    a_power_u(f, 11)
    assert len(calls) == 11
    assert a_power_u(f, 3) == a_power_u(viscous_burgers(), 3)
    assert len(calls) == 14 + 3  # a restart from u, and the fresh generator's 3


def test_jump_past_the_width_repacks(monkeypatch):
    f = CACHE_GENERATORS["cubic"]()
    a_power_u(f, 1)
    width = f._powers.width  # order 2 fits: degree 5
    calls = count_actions(monkeypatch)
    power = a_power_u(f, 6)  # degree 13 needs a wider slot
    assert f._powers.width > width
    assert len(calls) == 5
    assert_matches_sympy(power, sympy_power_u(f, 6))


def test_slot_holds_one_power():
    f = viscous_burgers()
    for k in range(12):
        power = a_power_u(f, k)
    state = f._powers
    assert list(vars(state)) == [field.name for field in dataclasses.fields(state)] == [
        "scale", "width", "dxf", "order", "power"]
    assert (state.scale, state.order) == (10, 11)
    width = state.width

    def unpacked(packed, den=1):
        return DiffPoly({key: Fraction(c, den)
                         for key, c in operator_calculus._unpack(packed, width).items()})

    assert unpacked(state.power, 10**11) == power
    derivative = 10 * f  # D f, then its x-derivatives: f's alone, no power
    for packed in state.dxf:
        assert unpacked(packed) == derivative
        derivative = derivative.total_derivative()


# -- the width of the packed keys ---------------------------------------------
#
# The kernels pack a monomial into one int with a slot of d.bit_length() bits
# per derivative order, d the largest total degree the operation can reach.
# These cases put exponents on both sides of a slot boundary (255 | 256) and
# compare with polynomials built from tuple keys by the constructor.


class TestPackedWidth:
    def test_product_crosses_slot_boundary(self):
        assert U(0) ** 255 * U(0) == DiffPoly({((0, 256),): 1})
        assert U(0) ** 300 * U(0) ** 300 == DiffPoly({((0, 600),): 1})
        assert str(U(0) ** 255 * U(0) * U(1)) == "u_0^256*u_1"
        assert (U(0) ** 255 * U(1)) * (U(1) ** 255 * U(2)) == DiffPoly(
            {((0, 255), (1, 256), (2, 1)): 1})

    def test_calculus_crosses_slot_boundary(self):
        p = U(0) ** 255 * U(1)
        assert p.total_derivative() == DiffPoly(
            {((0, 254), (1, 2)): 255, ((0, 255), (2, 1)): 1})
        assert p.partial(0) == DiffPoly({((0, 254), (1, 1)): 255})
        assert p.partial(1) == DiffPoly({((0, 255),): 1})
        assert (U(0) ** 256).partial(0) == 256 * U(0) ** 255
        # deg f + deg g - 1 = 511: the action needs a wider slot than either
        # argument alone.
        assert apply_A(U(0) ** 256, U(0) ** 256) == 256 * U(0) ** 511

    @pytest.mark.parametrize("text,orders", [("u_0^3", 4), ("u_0^40*u_1", 4)])
    def test_a_power_u_of_high_degree(self, text, orders):
        # A term of A^n u has degree (deg f - 1) n + 1: for u_0^40*u_1 that
        # is 121 at n = 3 (7-bit slots) and 161 at n = 4 (8-bit slots).
        f = parse_diffpoly(text)
        chain = U(0)
        for n in range(orders + 1):
            power = a_power_u(f, n)
            assert power == chain
            assert_matches_sympy(power, sympy_power_u(f, n))
            assert_canonical(power)
            chain = apply_A(f, chain)


@st.composite
def high_power_polys(draw):
    """Up to three monomials in u_0..u_3 with exponents up to 300."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        orders = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
        key = tuple((order, draw(st.integers(1, 300))) for order in sorted(orders))
        terms[key] = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
    return DiffPoly(terms)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(f=high_power_polys(), g=high_power_polys(), n=st.integers(0, 3))
def test_products_and_powers_match_sympy_at_high_exponents(f, g, n):
    syms = _sympy_symbols(5)
    f_expr, g_expr = to_sympy(f, syms), to_sympy(g, syms)
    assert_matches_sympy(f * g, f_expr * g_expr)
    assert_matches_sympy(f**n, f_expr**n)
    assert_matches_sympy(f.total_derivative(),
                         sum(sp.diff(f_expr, syms[k]) * syms[k + 1] for k in range(4)))


# SHA-256 of str(a_power_u(f, 11)) for the benchmark's two generators, as
# stored in perfbench/refs.json: the canonical text is the benchmark's gate.
BENCHMARK_DIGESTS = {
    "1/10*u_2 - u_0*u_1": "285cb4bcdb0553b6bab4119ed4c1a83d61c9b0ed8e4efc7f2d84b094d487670b",
    "u_3 + 6*u_0*u_1": "400678b5b423a59128b1ea776d537238f10554701b2a12a938d6f60e1d835113",
}


@pytest.mark.parametrize("text", sorted(BENCHMARK_DIGESTS))
def test_benchmark_power_digest(text):
    p = a_power_u(parse_diffpoly(text), 11)
    assert hashlib.sha256(str(p).encode("utf-8")).hexdigest() == BENCHMARK_DIGESTS[text]
    assert_canonical(p)


@settings(max_examples=40, deadline=None)
@given(f=diff_polys(), g=diff_polys(), n=st.integers(0, 3), k=st.integers(0, 4),
       c=st.sampled_from([0, 1, -3, Fraction(0), Fraction(-5, 2)]))
def test_every_result_is_canonical(f, g, n, k, c):
    results = [
        f + g, f - g, -f, f - f, f * g, c * f, f * c, f**2, f**0,
        f.partial(k), f.total_derivative(), apply_A(f, g), a_power_u(f, n),
        parse_diffpoly(str(f)), DiffPoly.zero(), DiffPoly.constant(c),
        DiffPoly.u(k), DiffPoly({((k, 2),): Fraction(1, 3)}),
    ]
    for p in results:
        assert_canonical(p)


# -- grid evaluation ---------------------------------------------------------


class TestEvalDiffPoly:
    def setup_method(self):
        self.n = 64
        self.x = 2 * np.pi * np.arange(self.n) / self.n

    def test_identity(self):
        samples = np.sin(self.x)
        out = eval_diffpoly(U(0), samples)
        assert np.array_equal(out, samples)

    def test_product_with_derivative(self):
        samples = np.sin(self.x)
        out = eval_diffpoly(U(0) * U(1), samples)
        want = np.sin(self.x) * np.cos(self.x)
        assert np.max(np.abs(out - want)) <= 1e-12

    def test_third_power_matches_taylor_recursion(self):
        # Cross-module oracle: 3! c_3 of the 1-D Burgers recursion.
        from math import factorial

        from liens.burgers1d import taylor_coefficients_burgers

        nu = 0.1
        samples = np.sin(self.x)
        symbolic = eval_diffpoly(a_power_u(viscous_burgers(Fraction(1, 10)), 3), samples)
        numeric = factorial(3) * taylor_coefficients_burgers(samples, nu, 3)[3]
        rel = np.linalg.norm(symbolic - numeric) / np.linalg.norm(numeric)
        assert rel <= 1e-8

    def test_rejects_bad_samples(self):
        with pytest.raises(FieldError):
            eval_diffpoly(U(0), np.array([[1.0, 2.0]]))
        bad = np.zeros(8)
        bad[3] = np.inf
        with pytest.raises(FieldError):
            eval_diffpoly(U(0), bad)

    # An empty sample used to reach the spectral derivative's 1/n and raise
    # ZeroDivisionError.
    def test_rejects_empty_samples(self):
        with pytest.raises(FieldError, match="at least one sample"):
            eval_diffpoly(parse_diffpoly("u_1"), np.array([]))


# -- text syntax -------------------------------------------------------------


class TestTextSyntax:
    @pytest.mark.parametrize(
        "text,poly",
        [
            ("u_0", U(0)),
            ("u_2", U(2)),
            ("-u_0*u_1", inviscid_burgers()),
            ("1/10*u_2 - u_0*u_1", viscous_burgers()),
            ("2*u_0*u_1^2 + u_0^2*u_2", a_power_u(inviscid_burgers(), 2)),
            ("0", DiffPoly.zero()),
            ("3/4", DiffPoly.constant(Fraction(3, 4))),
            ("(u_0 + u_1)*(u_0 - u_1)", U(0) ** 2 - U(1) ** 2),
        ],
    )
    def test_parse(self, text, poly):
        assert parse_diffpoly(text) == poly

    @pytest.mark.parametrize(
        "text",
        ["u_0 +", "2 ** u_1", "u_", "(u_0", "u_0 ^ 1/2", "3//4", "u_0 u_1", "1/0",
         "u_1*3/0"],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_diffpoly(text)

    def test_unclosed_group_names_the_missing_paren(self):
        with pytest.raises(ValueError, match="expected '\\)'"):
            parse_diffpoly("(u_0 u_1)")

    def test_deep_nesting_is_a_value_error(self):
        # Past the nesting limit the recursive parser would hit Python's
        # recursion limit; the library raises only ValueError.
        assert parse_diffpoly("(" * 100 + "u_0" + ")" * 100) == U(0)
        with pytest.raises(ValueError, match="nest"):
            parse_diffpoly("(" * 2000 + "u_0" + ")" * 2000)

    # A power is expanded by repeated multiplication, so its time grows with
    # the exponent: u_0^99999999999 would run for days.
    def test_exponent_past_bound_is_a_value_error(self):
        assert parse_diffpoly(f"u_0^{MAX_EXPONENT}") == U(0) ** MAX_EXPONENT
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            parse_diffpoly(f"u_0^{MAX_EXPONENT + 1}")
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            parse_diffpoly("u_0^99999999999")

    # A product or power of sums is refused by the terms it could have, before
    # it is expanded: (u_0+u_1+u_2+u_3)^100, within MAX_EXPONENT, used to run
    # for minutes.
    def test_power_of_a_sum_past_term_bound_is_a_value_error(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"4-term sum \^100 could have 176851 terms, more than MAX_TERMS = {MAX_TERMS}"):
            parse_diffpoly("(u_0+u_1+u_2+u_3)^100")
        assert time.perf_counter() - start < 0.1
        with pytest.raises(ValueError, match="a product could have 4356 terms"):
            parse_diffpoly("(u_0+u_1+u_2)^10*(u_0+u_1+u_2)^10")
        assert parse_diffpoly("(u_0+u_1)^100") == (U(0) + U(1)) ** 100

    def test_str_examples(self):
        assert str(DiffPoly.zero()) == "0"
        assert str(U(0)) == "u_0"
        assert str(viscous_burgers()) == "1/10*u_2 - u_0*u_1"

    @settings(max_examples=60, deadline=None)
    @given(p=diff_polys(max_order=4, max_degree=4, max_terms=4))
    def test_roundtrip_random(self, p):
        assert parse_diffpoly(str(p)) == p


# The grammar's alphabet in pieces: the jet prefix ``u_`` whole, so that
# jet variables are drawn often, and every other character alone (digits, the
# operators, the rational bar, parentheses and a blank).
GRAMMAR_PIECES = ["u_", "u", "_", *"0123456789+-*^/() "]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=12).map(
    lambda pieces: "".join(pieces)[:12]))
def test_parse_diffpoly_returns_a_poly_or_value_error(text):
    """Any short string over the grammar's alphabet parses to a DiffPoly or
    raises ValueError; nothing else escapes and nothing runs away."""
    try:
        result = parse_diffpoly(text)
    except ValueError:
        return
    assert isinstance(result, DiffPoly)


# -- the integer text and the blocked sum against the former formulas --------


def fraction_str(p: DiffPoly) -> str:
    """``str`` as it was written with Fraction ``abs``, ``<`` and ``str``."""
    if p.is_zero:
        return "0"
    parts = []
    for i, mono in enumerate(p.monomials()):
        mag = abs(mono.coeff)
        factors = []
        if mag != 1 or not mono.powers:
            factors.append(str(mag))
        for order, exp in mono.powers:
            factors.append(f"u_{order}" + (f"^{exp}" if exp > 1 else ""))
        body = "*".join(factors)
        if i == 0:
            parts.append(f"-{body}" if mono.coeff < 0 else body)
        else:
            parts.append(f" - {body}" if mono.coeff < 0 else f" + {body}")
    return "".join(parts)


def termwise_eval(p: DiffPoly, samples: np.ndarray) -> np.ndarray:
    """``eval_diffpoly`` as it was written: one term at a time, added to a
    sum that starts at 0.0."""
    derivs = spectral_derivatives(samples, p.max_order)
    out = np.zeros(samples.size)
    for mono in p.monomials():
        term = np.full(samples.size, float(mono.coeff))
        for order, exp in mono.powers:
            term *= derivs[order] ** exp
        out += term
    return out


TEXT_COEFFS = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-1000, 1000),
    st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 60)),
)


@st.composite
def text_polys(draw):
    """Zero, constants, and sums of up to four terms whose coefficients are
    +-1, integers or p/q."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        orders = draw(st.lists(st.integers(0, 3), max_size=3, unique=True))
        key = tuple((order, draw(st.integers(1, 3))) for order in sorted(orders))
        terms[key] = draw(TEXT_COEFFS)
    return DiffPoly(terms)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=text_polys())
def test_str_is_the_fraction_text(p):
    assert str(p) == fraction_str(p)


def test_str_edge_cases_are_the_fraction_text():
    for p in (DiffPoly.zero(), DiffPoly.constant(1), DiffPoly.constant(-1),
              DiffPoly.constant(Fraction(-3, 7)), -U(0), U(0) - DiffPoly.constant(1),
              DiffPoly.constant(1) - U(0) * U(1) ** 2,
              Fraction(-1, 2) * U(2) + DiffPoly.constant(Fraction(3, 2))):
        assert str(p) == fraction_str(p)


def assert_same_bits(p: DiffPoly, samples: np.ndarray):
    assert eval_diffpoly(p, samples).tobytes() == termwise_eval(p, samples).tobytes()


def smooth_samples(seed: int, points: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = 2 * np.pi * np.arange(points) / points
    return rng.uniform(0.5, 1.0) * np.sin(x + rng.uniform(0, 6)) + 0.2 * np.cos(2 * x)


@pytest.mark.parametrize("text", sorted(BENCHMARK_DIGESTS))
def test_eval_is_the_termwise_sum_on_the_benchmark(text):
    """Both benchmark generators to order 11 (up to 2517 terms, 40 blocks)
    on the benchmark's 64 samples."""
    f = parse_diffpoly(text)
    for k in range(12):
        power = a_power_u(f, k)
        for seed in (1, 7):
            assert_same_bits(power, smooth_samples(seed, 64))


def test_eval_is_the_termwise_sum_across_blocks():
    """More than two blocks of terms that cancel, so that any other order of
    the sum would change the last bits, also on a single sample (whose
    derivatives vanish), where ``np.add.reduce`` would sum pairwise; the zero
    polynomial; and terms that evaluate to -0.0, which the sum from 0.0 turns
    into +0.0."""
    rng = np.random.default_rng(5)

    def coeff():
        return Fraction(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 999)))

    terms = {key: coeff() for e in range(1, EVAL_BLOCK + 4)
             for key in (((0, e),), ((0, e), (1, 1)))}
    wide = DiffPoly(terms)
    assert len(wide.monomials()) > 2 * EVAL_BLOCK
    for seed, points in ((2, 64), (4, 1), (6, 3)):
        assert_same_bits(wide, 1.3 * smooth_samples(seed, points))
    assert_same_bits(DiffPoly.zero(), smooth_samples(1, 16))
    zeros = np.zeros(8)
    for p in (-U(0), -U(0) * U(1) - U(0) ** 2, -U(0) + DiffPoly.constant(0)):
        out = eval_diffpoly(p, zeros)
        assert out.tobytes() == termwise_eval(p, zeros).tobytes() == np.zeros(8).tobytes()
    assert eval_diffpoly(DiffPoly.constant(Fraction(-2, 3)), zeros).tobytes() == \
        termwise_eval(DiffPoly.constant(Fraction(-2, 3)), zeros).tobytes()
