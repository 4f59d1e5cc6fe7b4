"""1-D viscous Burgers bench: the scalar specialization of the series
propagator (no projection) plus an independent RK4 reference, on the same
update ``rk4_update`` as the Navier-Stokes oracle.

``cross_check`` compares the symbolic generator powers with the numeric
Taylor recursion: n! * c_n of dv/dt = nu*v_xx - v*v_x must equal the n-fold
generator action on u evaluated on the grid. Products are formed pointwise
without dealiasing, so both routes discretize the same n-dimensional ODE
system; under-resolution shows up as honest disagreement.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import nonnegative_count, positive_finite
from .lie_propagator import StepStats, _horner, final_state, fixed_step, rk4_update
from .operator_calculus import (
    DiffPoly,
    _check_samples,
    a_power_u,
    eval_diffpoly,
    spectral_derivatives,
)

CROSS_CHECK_NU = 0.1
CROSS_CHECK_BOUND = 1e-8  # on each symbolic error and on the order-10 series error


def taylor_coefficients_burgers(
    u0: np.ndarray, nu: float, order: int
) -> list[np.ndarray]:
    """Time-Taylor coefficients c_0..c_order of Burgers around u0:
    (n+1) c_{n+1} = nu * c_n'' - sum_m c_m * c_{n-m}'."""
    nonnegative_count("order", order)
    u0 = _check_samples(u0)
    derivs = [spectral_derivatives(u0, 2)]  # [c_m, c_m', c_m''] for each m
    for m in range(order):
        advection = sum(derivs[p][0] * derivs[m - p][1] for p in range(m + 1))
        derivs.append(spectral_derivatives((nu * derivs[m][2] - advection) / (m + 1), 2))
    return [d[0] for d in derivs]


def burgers_rhs(u: np.ndarray, nu: float, out: np.ndarray | None = None) -> np.ndarray:
    _, u_x, u_xx = spectral_derivatives(u, 2)
    return np.subtract(nu * u_xx, u * u_x, out=out)


def rk4_burgers(u0: np.ndarray, nu: float, t_end: float, dt: float) -> np.ndarray:
    """Classical RK4 (``rk4_update``) on the same pseudospectral Burgers
    system, through one set of slope buffers for the whole run."""
    positive_finite("dt", dt)
    u = _check_samples(u0).copy()
    buf = np.empty((4, *u.shape))

    def advance(v: np.ndarray, remaining: float):
        h = fixed_step(dt, remaining)
        k1 = burgers_rhs(v, nu)
        u_next = rk4_update(v, h, k1, lambda x, out: burgers_rhs(x, nu, out), buf)
        return u_next, StepStats(order_used=4, dt=h)

    return final_state(u, t_end, advance)


def cross_check(order: int, n: int) -> tuple[list[float], list[float]]:
    """For u0 = sin x + 0.3 cos 2x on n points: relative errors of the
    symbolic A^k u against k! c_k, k = 0..order (0 where c_k vanishes), and at
    t = 0.1 of the series cut after c_N, N = 2..10, against RK4 (dt 1e-4)."""
    x = 2.0 * math.pi * np.arange(n) / n
    u0 = np.sin(x) + 0.3 * np.cos(2 * x)
    f = DiffPoly.u(2) * Fraction(1, 10) - DiffPoly.u(0) * DiffPoly.u(1)  # nu = 1/10
    coeffs = taylor_coefficients_burgers(u0, CROSS_CHECK_NU, max(order, 10))
    symbolic = []
    for k in range(order + 1):
        numeric = math.factorial(k) * coeffs[k]
        denom = float(np.linalg.norm(numeric))
        diff = float(np.linalg.norm(eval_diffpoly(a_power_u(f, k), u0) - numeric))
        symbolic.append(diff / denom if denom else 0.0)
    reference = rk4_burgers(u0, CROSS_CHECK_NU, 0.1, dt=1e-4)
    truncation = [
        float(np.linalg.norm(_horner(coeffs[trunc::-1], 0.1, np.empty_like(u0)) - reference)
              / np.linalg.norm(reference))
        for trunc in range(2, 11)
    ]
    return symbolic, truncation
