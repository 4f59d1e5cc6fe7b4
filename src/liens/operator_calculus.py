"""Exact calculus of differential polynomials in one scalar field.

A differential polynomial is a rational-coefficient sum of monomials in the
jet variables u_0, u_1, u_2, ... (u_k the k-th spatial derivative of u). The
central operation is the evolutionary vector-field action

    apply_A(F, G) = sum_k D_x^k(F) * dG/du_k,

the generator induced by the flow du/dt = F: it is linear, satisfies the
Leibniz law, sends u to F, and its powers applied to u are exactly the scaled
time-Taylor coefficients of the flow, n! c_n. All arithmetic here is exact;
floats appear only in grid evaluation, and ``DiffPoly`` refuses float
coefficients (pass an ``int`` or ``Fraction``).

``DiffPoly`` stores ``{powers key: coefficient}`` with canonical tuple keys
((order, exponent), ...). Every operation that builds monomials runs on one
set of private kernels (a multiply-accumulate, a one-pass D_x and all
partials dg/du_k in one pass over g) over packed keys: the monomial
prod_k u_k^e_k is the Python int sum_k e_k * 2^(W k), so a product of
monomials is one integer addition. The slot width W is d.bit_length(), d the
largest total degree the operation can reach (deg a + deg b for a product,
max(deg f, deg g, deg f + deg g - 1) for ``apply_A``); a slot's exponent
never exceeds its monomial's total degree, so no slot carries into the next.
Each operation packs its arguments at entry and unpacks its result at exit.
The ring methods and ``apply_A`` run the kernels on ``Fraction``
coefficients. ``a_power_u(f, n)`` packs f once, scales it by the lcm D of its
coefficient denominators and iterates on Python ints (the action is linear in
f, so A_f^n u = A_{Df}^n u / D^n), then divides by D^n and unpacks once; the
result is the exact ``Fraction`` polynomial that n ``apply_A`` calls give.
Each generator keeps that recursion in a private slot: D, the width,
D_x^k(D f) for the orders used so far, and only the last power computed. A
call at or above that order continues from it, so asking for n = 0, 1, ...,
N in turn costs N actions; a lower order restarts from u. When the terms of
order n need wider slots than the kept width, the kept terms are repacked at
the width for order 2n, so a rising sequence of orders repacks O(log N)
times.

``eval_diffpoly`` raises each distinct factor u_k^e once and forms the terms
a fixed block of monomials at a time, with the running sum as the block's
first row; the sum stays sequential from 0.0 in monomial order, so the values
are the bits that adding one term at a time gives.

A plain-text syntax (``u_k``, ``+``, ``-``, ``*``, ``^``, rationals ``p/q``)
round-trips through ``parse_diffpoly`` / ``str``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import FieldError, nonnegative_count

PowersKey = tuple[tuple[int, int], ...]

RationalLike = Fraction | int

# Raw terms {powers key: coefficient}: the form ``DiffPoly`` stores, with
# canonical keys.
Terms = dict[PowersKey, RationalLike]

# Packed terms {sum_k e_k << (width * k): coefficient}: the form the kernels
# below work on, with the width rule of the module docstring. They are exact
# for any rational coefficient type: Fraction in the ring methods, int in
# ``a_power_u``'s scaled recursion.
Packed = dict[int, RationalLike]


def _normalize_powers(powers: Iterable[tuple[int, int]]) -> PowersKey:
    pairs = list(powers)
    items = dict(pairs)
    if len(items) != len(pairs):
        raise ValueError(f"each derivative order may appear once in a key, got {pairs}")
    for order, exp in items.items():
        if order < 0:
            raise ValueError(f"derivative order must be nonnegative, got {order}")
        if exp <= 0:
            raise ValueError(f"exponents must be positive, got u_{order}^{exp}")
    return tuple(sorted(items.items()))


def _nonzero(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if c}


def _degree(terms: Terms) -> int:
    """Largest total degree of a term (0 for constants and zero)."""
    return max((sum(e for _, e in key) for key in terms), default=0)


def _pack(terms: Terms, width: int) -> Packed:
    return {sum(e << width * k for k, e in key): c for key, c in terms.items()}


def _unpack(packed: Packed, width: int) -> Terms:
    """Canonical terms of packed ones; slots are read in increasing order."""
    mask = (1 << width) - 1
    out: Terms = {}
    for key, c in packed.items():
        powers = []
        order = 0
        while key:
            if exp := key & mask:
                powers.append((order, exp))
            key >>= width
            order += 1
        out[tuple(powers)] = c
    return out


def _mul_acc(out: Packed, a: Packed, b: Packed) -> None:
    """out += a * b; coefficients in out may cancel to zero."""
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            out[key] = out.get(key, 0) + ca * cb


def _dx(terms: Packed, width: int) -> Packed:
    """Total x-derivative, one pass: D_x(u_k^e) = e u_k^(e-1) u_{k+1}, which
    moves one unit from slot k to slot k+1."""
    mask = (1 << width) - 1
    out: Packed = {}
    for key, c in terms.items():
        rest, unit = key, 1
        while rest:
            if exp := rest & mask:
                new = key + (unit << width) - unit
                out[new] = out.get(new, 0) + c * exp
            rest >>= width
            unit <<= width
    return _nonzero(out)


def _partials(terms: Packed, width: int) -> dict[int, Packed]:
    """Every nonzero dg/du_k in one pass over g, keyed by k: one unit off
    slot k. Distinct keys of g stay distinct in each partial, so no
    coefficient merges or cancels."""
    mask = (1 << width) - 1
    out: dict[int, Packed] = {}
    for key, c in terms.items():
        rest, unit, order = key, 1, 0
        while rest:
            if exp := rest & mask:
                out.setdefault(order, {})[key - unit] = c * exp
            rest >>= width
            unit <<= width
            order += 1
    return out


def _act(dxf: list[Packed], g: Packed, width: int) -> Packed:
    """Generator action on packed terms, sum_k D_x^k(f) * dg/du_k. ``dxf``
    holds f, D_x f, D_x^2 f, ... and grows in place as higher orders are
    needed."""
    out: Packed = {}
    for order, pg in _partials(g, width).items():
        while len(dxf) <= order:
            dxf.append(_dx(dxf[-1], width))
        _mul_acc(out, dxf[order], pg)
    return _nonzero(out)


@dataclass(frozen=True)
class DiffMonomial:
    """One term coeff * prod_k u_k^e_k in canonical form."""

    coeff: Fraction
    powers: PowersKey

    @property
    def total_degree(self) -> int:
        return sum(e for _, e in self.powers)


class DiffPoly:
    """Immutable canonical sum of differential monomials."""

    __slots__ = ("_terms", "_monomials", "_powers")

    def __init__(self, terms: Mapping[PowersKey, RationalLike] | None = None):
        clean: Terms = {}
        for key, coeff in (terms or {}).items():
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(
                    f"coefficients must be exact rationals: pass an int or Fraction,"
                    f" not {type(coeff).__name__} {coeff!r}"
                )
            key = _normalize_powers(key)
            clean[key] = clean.get(key, 0) + Fraction(coeff)
        object.__setattr__(self, "_terms", _nonzero(clean))
        object.__setattr__(self, "_monomials", None)
        object.__setattr__(self, "_powers", None)

    @staticmethod
    def _of(terms: Terms) -> "DiffPoly":
        """Wrap raw terms that are already canonical, with Fraction values."""
        poly = object.__new__(DiffPoly)
        object.__setattr__(poly, "_terms", terms)
        object.__setattr__(poly, "_monomials", None)
        object.__setattr__(poly, "_powers", None)
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return DiffPoly()

    @staticmethod
    def constant(c: RationalLike) -> "DiffPoly":
        return DiffPoly({(): c})

    @staticmethod
    def u(order: int = 0) -> "DiffPoly":
        return DiffPoly({((order, 1),): 1})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def monomials(self) -> tuple[DiffMonomial, ...]:
        """Terms sorted by total degree, then lexicographic powers; sorted on
        the first call and kept, since the polynomial is immutable."""
        if self._monomials is None:
            keys = sorted(self._terms, key=lambda k: (sum(e for _, e in k), k))
            object.__setattr__(
                self, "_monomials", tuple(DiffMonomial(self._terms[k], k) for k in keys)
            )
        return self._monomials

    @property
    def max_order(self) -> int:
        """Highest derivative order appearing (0 for constants and zero)."""
        orders = [k for key in self._terms for k, _ in key]
        return max(orders, default=0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return DiffPoly._of(_nonzero(terms))

    def __neg__(self) -> "DiffPoly":
        return DiffPoly._of({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DiffPoly._of(_nonzero({k: c * other for k, c in self._terms.items()}))
        if not isinstance(other, DiffPoly):
            return NotImplemented
        width = (_degree(self._terms) + _degree(other._terms)).bit_length()
        packed: Packed = {}
        _mul_acc(packed, _pack(self._terms, width), _pack(other._terms, width))
        return DiffPoly._of(_unpack(_nonzero(packed), width))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DiffPoly":
        nonnegative_count("n", n)
        out = DiffPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    # -- calculus ----------------------------------------------------------

    def partial(self, order: int) -> "DiffPoly":
        """Partial derivative with respect to the jet variable u_order."""
        width = _degree(self._terms).bit_length()
        partials = _partials(_pack(self._terms, width), width)
        return DiffPoly._of(_unpack(partials.get(order, {}), width))

    def total_derivative(self) -> "DiffPoly":
        """Total x-derivative: D_x(u_k) = u_{k+1}, extended by Leibniz."""
        width = _degree(self._terms).bit_length()
        return DiffPoly._of(_unpack(_dx(_pack(self._terms, width), width), width))

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for mono in self.monomials():
            num, den = mono.coeff.numerator, mono.coeff.denominator
            factors = [f"u_{order}^{exp}" if exp > 1 else f"u_{order}"
                       for order, exp in mono.powers]
            mag = -num if num < 0 else num
            if den != 1:
                factors.insert(0, f"{mag}/{den}")
            elif mag != 1 or not factors:
                factors.insert(0, str(mag))
            parts += (" - " if num < 0 else " + ", "*".join(factors))
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def __repr__(self) -> str:
        return f"DiffPoly({self})"


# ---------------------------------------------------------------------------
# the generator action
# ---------------------------------------------------------------------------


def apply_A(f: DiffPoly, g: DiffPoly) -> DiffPoly:
    """Action of the generator of du/dt = f on g: sum_k D_x^k(f) * dg/du_k."""
    deg_f, deg_g = _degree(f._terms), _degree(g._terms)
    width = max(deg_f, deg_g, deg_f + deg_g - 1).bit_length()
    packed = _act([_pack(f._terms, width)], _pack(g._terms, width), width)
    return DiffPoly._of(_unpack(packed, width))


@dataclass
class _Powers:
    """``a_power_u``'s integer recursion on one generator f: the lcm D of f's
    denominators, the slot width, D_x^k(D f) for the orders used so far, and
    the last power A_{Df}^order u, the only one kept."""

    scale: int
    width: int
    dxf: list[Packed]
    order: int
    power: Packed


# u_0 packed at any width: exponent 1 in slot 0.
_U0: Packed = {1: 1}


def _power_width(deg: int, n: int) -> int:
    """Slot width for A_f^m u, m <= n, f of total degree ``deg``: a term of
    A_f^m u has total degree at most max(deg - 1, 0) m + 1."""
    return max(deg, max(deg - 1, 0) * n + 1).bit_length()


def a_power_u(f: DiffPoly, n: int) -> DiffPoly:
    """n-fold generator action starting from g = u (n = 0 gives u itself).

    The action is linear in f, so A_f^n u = A_{Df}^n u / D^n: with D the lcm
    of f's denominators the recursion runs on Python ints, and the result is
    divided by D^n once at the end. f keeps the recursion's last power, so a
    call at or above that order continues from it and a lower one restarts
    from u. When order n needs wider slots than the kept ones, the kept terms
    are repacked at the width for order 2n."""
    nonnegative_count("n", n)
    deg = _degree(f._terms)
    state = f._powers
    if state is None:
        scale = math.lcm(*(c.denominator for c in f._terms.values()))
        width = _power_width(deg, 2 * n)
        scaled = {key: c.numerator * (scale // c.denominator) for key, c in f._terms.items()}
        state = _Powers(scale, width, [_pack(scaled, width)], 0, _U0)
        object.__setattr__(f, "_powers", state)
    if n < state.order:
        state.order, state.power = 0, _U0
    if _power_width(deg, n) > state.width:
        old, width = state.width, _power_width(deg, 2 * n)
        state.dxf = [_pack(_unpack(d, old), width) for d in state.dxf]
        state.power = _pack(_unpack(state.power, old), width)
        state.width = width
    g = state.power
    for _ in range(n - state.order):
        g = _act(state.dxf, g, state.width)
    state.order, state.power = n, g
    den = state.scale**n
    return DiffPoly._of(_unpack({key: Fraction(c, den) for key, c in g.items()}, state.width))


def derivation_check(
    f: DiffPoly,
    g: DiffPoly,
    h: DiffPoly,
    operator: Callable[[DiffPoly, DiffPoly], DiffPoly] = apply_A,
) -> bool:
    """Exact Leibniz test: operator(f, g*h) == operator(f,g)*h + g*operator(f,h).

    ``operator`` is injectable so deliberately broken maps can be shown to
    fail the law (negative control)."""
    defect = operator(f, g * h) - operator(f, g) * h - g * operator(f, h)
    return defect.is_zero


# ---------------------------------------------------------------------------
# grid evaluation
# ---------------------------------------------------------------------------

# Multiplier of the round-off floor of ``spectral_derivatives``. Swept over
# 0.5..1024: the Burgers cross-check at n = 64 and 128 (orders <= 10) agrees
# to <= 2.1e-15 from 2 up, to 1.4e-10 at 1 and to 7.6e-6 without the floor;
# 8 sits 4x above the lowest value that works.
DERIVATIVE_FLOOR = 8.0
_EPS = float(np.finfo(float).eps)
# Monomials per block of ``eval_diffpoly``: a block holds (EVAL_BLOCK + 1) x
# samples floats, 33 KiB at 64 samples.
EVAL_BLOCK = 64


def _check_samples(u: np.ndarray) -> np.ndarray:
    """``u`` as a finite, nonempty 1-D float64 array; raises ``FieldError``
    otherwise."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise FieldError(f"expected 1-D samples, got shape {u.shape}")
    if u.size == 0:
        raise FieldError("expected at least one sample, got none")
    if not np.isfinite(u).all():
        raise FieldError("samples contain non-finite values")
    return u


def spectral_derivatives(u: np.ndarray, order: int) -> list[np.ndarray]:
    """[u, u_x, ..., d^order u/dx^order] of periodic samples on [0, 2*pi).

    Derivatives use the signed-index wavenumbers with the Nyquist mode
    zeroed, matching the field-level derivative convention. Every mode of
    the spectrum below DERIVATIVE_FLOOR * eps * max|u_hat| is zeroed first:
    it is transform round-off, which the k-th derivative would multiply by
    j^k until it outweighs the signal.
    """
    n = u.size
    j = np.fft.fftfreq(n, d=1.0 / n)
    j[n // 2] = 0.0
    u_hat = np.fft.fft(u)
    mag = np.abs(u_hat)
    u_hat[mag < DERIVATIVE_FLOOR * _EPS * mag.max()] = 0.0
    out = [u]
    for _ in range(order):
        u_hat *= 1j * j
        out.append(np.real(np.fft.ifft(u_hat)))
    return out


def eval_diffpoly(p: DiffPoly, u_samples: np.ndarray) -> np.ndarray:
    """Evaluate ``p`` on 1-D periodic samples of u, with the derivatives of
    ``spectral_derivatives``.

    Each distinct factor u_k^e is raised once, into a table whose row 0 is
    ones. The monomials are taken EVAL_BLOCK at a time: row i of a block is
    coeff_i times its factors, in the order of ``powers`` (shorter monomials
    are padded with the ones row, an exact product), and row 0 carries the
    running sum, which ``np.add.accumulate`` extends one row at a time. The
    sum is therefore sequential from 0.0 in the order of ``monomials()``.
    ``np.add.reduce`` would not do: on a single sample it sums pairwise."""
    u = _check_samples(u_samples)
    derivs = spectral_derivatives(u, p.max_order)
    monos = p.monomials()
    rows = {factor: i for i, factor in
            enumerate(dict.fromkeys(f for mono in monos for f in mono.powers), 1)}
    table = np.ones((len(rows) + 1, u.size))
    for (order, exp), i in rows.items():
        table[i] = derivs[order] ** exp
    index = np.zeros((len(monos), max((len(m.powers) for m in monos), default=0)), np.intp)
    for i, mono in enumerate(monos):
        index[i, : len(mono.powers)] = [rows[factor] for factor in mono.powers]
    coeffs = np.array([float(mono.coeff) for mono in monos])
    block = np.zeros((EVAL_BLOCK + 1, u.size))
    for start in range(0, len(monos), EVAL_BLOCK):
        terms = block[: min(len(monos) - start, EVAL_BLOCK) + 1]
        terms[1:] = coeffs[start : start + EVAL_BLOCK, None]
        for column in index[start : start + EVAL_BLOCK].T:
            terms[1:] *= table[column]
        np.add.accumulate(terms, axis=0, out=terms)
        block[0] = terms[-1]
    return block[0].copy()


# ---------------------------------------------------------------------------
# plain-text syntax
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+\s*/\s*\d+|\d+)|(u_\d+)|([+\-*^()]))")
# Deepest parenthesis nesting ``parse_diffpoly`` takes: the parser recurses
# four frames per level, well inside Python's default limit of 1000.
MAX_NESTING = 100
# Largest exponent ``parse_diffpoly`` takes. A power is expanded by repeated
# multiplication, so its time grows with the exponent: u_0^1000 takes about
# 0.01 s, (u_0 + u_1)^100 0.05 s and ^300 0.4 s (2-core x86 VM), and
# u_0^99999999999 would run for days. The powers the calculus writes stay far
# below the bound: a term of A_f^n u has degree (deg f - 1) n + 1, 12 for the
# order-11 powers of the quadratic generators the benchmark expands.
MAX_EXPONENT = 100
# Most terms a product (t1 * t2) or a power (C(t + e - 1, e) for a t-term sum)
# in ``parse_diffpoly`` may have, checked before it is expanded: a 4-term sum
# to the power 20 (1771 terms) takes 0.27 s on a 2-core x86 VM, and to the
# power 100 (176851 terms) it would take minutes.
MAX_TERMS = 2000


def _bound_terms(bound: int, what: str) -> None:
    if bound > MAX_TERMS:
        raise ValueError(f"{what} could have {bound} terms, more than MAX_TERMS = {MAX_TERMS}")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"unexpected input at {text[pos:]!r}")
        if m.group(1):
            tokens.append(("rational", m.group(1).replace(" ", "")))
        elif m.group(2):
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over: expr := ['-'] term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := primary ['^' INT],
    primary := rational | u_k | '(' expr ')'."""

    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses around the current position

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ValueError(f"expected {op!r}, got {tok[1]!r}")

    def parse(self) -> DiffPoly:
        poly = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()[1]!r}")
        return poly

    def expr(self) -> DiffPoly:
        sign = 1
        if self.peek() == ("op", "-"):
            self.take()
            sign = -1
        poly = self.term() * sign
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term(self) -> DiffPoly:
        poly = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            rhs = self.factor()
            _bound_terms(len(poly._terms) * len(rhs._terms), "a product")
            poly = poly * rhs
        return poly

    def factor(self) -> DiffPoly:
        base = self.primary()
        if self.peek() == ("op", "^"):
            self.take()
            kind, text = self.take()
            if kind != "rational" or "/" in text:
                raise ValueError(f"exponent must be a nonnegative integer, got {text!r}")
            exponent = int(text)
            if exponent > MAX_EXPONENT:
                raise ValueError(f"exponent {text} exceeds MAX_EXPONENT = {MAX_EXPONENT}")
            t = len(base._terms)
            bound = math.comb(max(t, 1) + exponent - 1, exponent)
            _bound_terms(bound, f"a {t}-term sum ^{exponent}")
            return base ** exponent
        return base

    def primary(self) -> DiffPoly:
        kind, text = self.take()
        if kind == "rational":
            if "/" in text:
                num, den = (int(part) for part in text.split("/"))
                if den == 0:
                    raise ValueError(f"zero denominator in {text!r}")
                return DiffPoly.constant(Fraction(num, den))
            return DiffPoly.constant(int(text))
        if kind == "name":
            return DiffPoly.u(int(text[2:]))
        if (kind, text) == ("op", "("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ValueError(f"parentheses nest more than {MAX_NESTING} levels deep")
            poly = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return poly
        raise ValueError(f"unexpected token {text!r}")


def parse_diffpoly(text: str) -> DiffPoly:
    """Parse the plain-text syntax, with parentheses nested at most
    MAX_NESTING deep, exponents at most MAX_EXPONENT and every product or
    power at most MAX_TERMS terms; inverse of ``str`` on canonical forms whose
    exponents stay within that bound."""
    return _Parser(_tokenize(text)).parse()
