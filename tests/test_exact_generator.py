"""An exact oracle for the Taylor coefficients of the 2-D Leray generator.

The series recursion that ``taylor_coefficients`` implements,

    c_{n+1} = (-nu |k|^2 c_n - P[i k_j (T_n)_ij]) / (n+1),
    T_n = sum_{m=0}^{n} c_m (x) c_{n-m},

is run here in exact Gaussian-rational arithmetic (pairs of ``Fraction``)
on the Fourier coefficients of a real divergence-free field in the 2*pi
box, so that n! c_n = A^n u holds with no round-off and no dealiasing:
the convolution is the exact one. The datum comes from a streamfunction
with four modes, |k|_inf <= 1, so c_n lives on |k|_inf <= n + 1.

While n + 1 <= m = grid.n // 3 the dealias ball holds that support, and
the float coefficients must agree with the exact ones to round-off; at
16^2 (m = 5) the ball cuts the support from order 5 on, which the
negative control shows the comparison can see.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from liens import Grid, SpectralVectorField, taylor_coefficients

NU = Fraction(1, 10)
ORDER = 6
ZERO = (Fraction(0), Fraction(0))

# psi_hat on half the modes with |k|_inf = 1; the other half are conjugates.
STREAM = {
    (1, 0): (Fraction(1, 2), Fraction(0)),
    (0, 1): (Fraction(0), Fraction(-1, 3)),
    (1, 1): (Fraction(1, 4), Fraction(1, 5)),
    (1, -1): (Fraction(-2, 7), Fraction(1, 6)),
}


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_scale(s, a):
    """The rational ``s`` times the Gaussian rational ``a``."""
    return (s * a[0], s * a[1])


def g_times_i(a):
    return (-a[1], a[0])


def initial_coefficients():
    """u = (d_y psi, -d_x psi) as {k: (u_1, u_2)}, psi real."""
    psi = dict(STREAM)
    psi.update({(-k1, -k2): (re, -im) for (k1, k2), (re, im) in STREAM.items()})
    return {k: (g_times_i(g_scale(k[1], p)), g_times_i(g_scale(-k[0], p)))
            for k, p in psi.items()}


def upper_half(k):
    """Whether k is one of a pair k, -k chosen once: k_2 > 0, or k_2 = 0 and k_1 >= 0."""
    return k[1] > 0 or (k[1] == 0 and k[0] >= 0)


def integer_form(c):
    """c as (d, {k: (u_1, u_2)}) with every part of d * u_a an integer; the
    products then run on Python integers, not ``Fraction``."""
    d = math.lcm(*(x.denominator for v in c.values() for part in v for x in part))
    return d, {k: tuple((int(re * d), int(im * d)) for re, im in v) for k, v in c.items()}


def cauchy_product(coeffs, n):
    """T_n as {(i, j): {k: T_ij(k)}} on the upper half of k; the other half
    are the conjugates. T is symmetric: (1, 0) is (0, 1)."""
    ints = [integer_form(c) for c in coeffs]
    scales = [ints[m][0] * ints[n - m][0] for m in range(n + 1)]
    d = math.lcm(*scales)
    tensor = {}
    for i, j in ((0, 0), (0, 1), (1, 1)):
        out = {}
        for m in range(n + 1):
            w = d // scales[m]
            for p, a in ints[m][1].items():
                ar, ai = w * a[i][0], w * a[i][1]
                for q, b in ints[n - m][1].items():
                    k = (p[0] + q[0], p[1] + q[1])
                    if upper_half(k):
                        (br, bi), (re, im) = b[j], out.get(k, (0, 0))
                        out[k] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
        tensor[i, j] = {k: (Fraction(re, d), Fraction(im, d)) for k, (re, im) in out.items()}
    tensor[1, 0] = tensor[0, 1]
    return tensor


def next_coefficient(coeffs):
    """c_{n+1} from c_0..c_n by the exact recursion."""
    n = len(coeffs) - 1
    tensor = cauchy_product(coeffs, n)
    new = {}
    for k in tensor[0, 0]:  # every component has the same support
        div = [g_times_i(g_add(g_scale(k[0], tensor[a, 0][k]), g_scale(k[1], tensor[a, 1][k])))
               for a in (0, 1)]
        ksq = k[0] ** 2 + k[1] ** 2
        if ksq:
            k_dot = g_scale(Fraction(1, ksq), g_add(g_scale(k[0], div[0]), g_scale(k[1], div[1])))
            div = [g_add(div[a], g_scale(-k[a], k_dot)) for a in (0, 1)]
        c = coeffs[n].get(k, (ZERO, ZERO))
        new[k] = tuple(g_scale(Fraction(-1, n + 1), g_add(g_scale(NU * ksq, c[a]), div[a]))
                       for a in (0, 1))
    new.update({(-k1, -k2): tuple((re, -im) for re, im in c)
                for (k1, k2), c in new.items()})
    return new


@pytest.fixture(scope="module")
def exact():
    """c_0..c_ORDER, exact."""
    coeffs = [initial_coefficients()]
    for _ in range(ORDER):
        coeffs.append(next_coefficient(coeffs))
    return coeffs


def half_spectrum(grid, coeffs, transpose=False):
    """The exact coefficients in the grid's half-spectrum layout; with
    ``transpose``, those of the field with x and y exchanged."""
    data = np.zeros((2, *grid.spectral_shape), dtype=np.complex128)
    for (k1, k2), c in coeffs.items():
        if transpose:
            k1, k2, c = k2, k1, c[::-1]
        if k2 >= 0:
            for a in (0, 1):
                data[a, k1 % grid.n, k2] = complex(float(c[a][0]), float(c[a][1]))
    return data


def relative_errors(grid, exact, transpose=False):
    """Per order, the l2 distance of ``taylor_coefficients`` from the exact
    coefficients over the l2 norm of the exact ones."""
    wants = [half_spectrum(grid, c, transpose) for c in exact]
    got = taylor_coefficients(SpectralVectorField(grid, wants[0]), float(NU), len(exact) - 1)
    return [np.linalg.norm(c.data - want) / np.linalg.norm(want)
            for c, want in zip(got, wants)]


@pytest.mark.parametrize("transpose", [False, True])
def test_series_matches_exact_recursion_while_the_ball_holds_the_support(exact, transpose):
    grid = Grid(dim=2, n=32)
    assert grid.ball_radius >= ORDER + 1
    errors = relative_errors(grid, exact, transpose)
    assert max(errors) < 1e-13, errors


def test_ball_cutting_the_support_is_seen(exact):
    """Negative control: at 16^2 the ball (m = 5) holds the support of
    c_0..c_4 only, and c_5 differs from the exact one by what it drops."""
    grid = Grid(dim=2, n=16)
    errors = relative_errors(grid, exact[:6])
    assert max(errors[:5]) < 1e-13, errors
    assert errors[5] > 1e-2, errors
