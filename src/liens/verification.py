"""Acceptance checks: every numerically testable claim, run end to end.

Each check yields a ``CheckResult`` whose pass condition is uniformly
``measured <= threshold``; the command-line ``verify`` subcommand prints them
as a table and the acceptance test suite asserts them one by one. The quick
level runs the 2-D subset; full adds the 32^3 cases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .burgers1d import cross_check
from .diagnostics import energy, enstrophy_norm
from .grid_spectral import Grid, SpectralVectorField, _sfft, inner_product, relative_divergence
from .leray import ns_rhs
from .lie_propagator import (
    StepStats,
    estimate_radius,
    evaluate,
    step,
    steps,
    taylor_coefficients,
)
from .operator_calculus import DiffPoly, apply_A, derivation_check
from .reference_oracles import (
    AnalyticFlow,
    analytic_field,
    ns_rhs_via_pressure,
    random_divfree,
    rk4_propagate,
)

QUICK = "quick"
FULL = "full"


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    name: str
    measured: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.threshold

    def row(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.criterion:<4} {self.name:<46} "
            f"{self.measured:>12.3e} <= {self.threshold:>9.1e}  {status}"
        )


def _tracked_propagate(
    u: SpectralVectorField, nu: float, t_end: float
) -> list[tuple[SpectralVectorField, SpectralVectorField, StepStats]]:
    """(start, out, stats) of every accepted series step (tol 1e-10) of the
    run from ``u`` to ``t_end``; later checks re-read the steps."""
    run, start = [], u
    for _, out, stats in steps(u, t_end, lambda v, dt: step(v, nu, dt, tol=1e-10)):
        run.append((start, out, stats))
        start = out
    return run


# nu and the steps of one tracked run, as criteria 4 and 10 re-read them
TrackedRun = tuple[float, list[tuple[SpectralVectorField, SpectralVectorField, StepStats]]]


def _rel_l2(a: SpectralVectorField, b: SpectralVectorField) -> float:
    denom = b.l2_norm()
    return (a - b).l2_norm() / denom if denom else (a - b).l2_norm()


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def _exact_flow_check(
    criterion: str, label: str, kind: str, grid: Grid, nu: float, t_end: float,
    error_bound: float, time_bound: float,
) -> tuple[list[CheckResult], TrackedRun]:
    """Criteria 1 and 2: the series run from the closed-form flow ``kind`` at
    t = 0 ends within ``error_bound`` of the flow at ``t_end`` (relative L2)
    and within ``time_bound`` seconds. Returns the checks and the run."""
    flow = AnalyticFlow(kind)
    u = analytic_field(flow, 0.0, nu, grid)
    _sfft()  # the one-time scipy.fft import is not part of the run
    t0 = time.perf_counter()
    run = _tracked_propagate(u, nu, t_end)
    runtime = time.perf_counter() - t0
    err = _rel_l2(run[-1][1], analytic_field(flow, t_end, nu, grid))
    return [
        CheckResult(criterion, f"{label} relative L2 error", err, error_bound),
        CheckResult(criterion, f"{label} runtime [s]", runtime, time_bound),
    ], (nu, run)


def criterion_3_dissipativity(level: str, pressure_sign: float = 1.0) -> list[CheckResult]:
    """Exact energy identity plus solenoidality of the generator output.

    A ``pressure_sign`` other than 1 evaluates the right-hand side by
    ``ns_rhs_via_pressure`` with that sign, the negative control. The
    output-divergence assertion is what makes it observable: gradients are
    orthogonal to solenoidal fields, so the inner product alone cannot see
    the flipped sign.
    """
    cases = [(Grid(dim=2, n=32), range(10 if level == FULL else 20))]
    if level == FULL:
        cases.append((Grid(dim=3, n=16), range(10)))
    worst_identity = 0.0
    worst_div = 0.0
    nu = 0.1
    for grid, seeds in cases:
        for seed in seeds:
            v = random_divfree(seed=seed, grid=grid, peak_k=3, amplitude=1.0)
            if pressure_sign == 1.0:
                rhs = ns_rhs(v, nu)
            else:
                rhs = ns_rhs_via_pressure(v, nu, pressure_sign)
            ens = enstrophy_norm(v)
            worst_identity = max(
                worst_identity, abs(inner_product(rhs, v) + nu * ens) / (nu * ens)
            )
            worst_div = max(worst_div, relative_divergence(rhs))
    return [
        CheckResult("3", "dissipativity identity (relative)", worst_identity, 1e-10),
        CheckResult("3", "generator output solenoidality", worst_div, 1e-12),
    ]


def criterion_4_divergence_preservation(runs: list[TrackedRun]) -> list[CheckResult]:
    worst = 0.0
    for nu, run in runs:
        for start, out, stats in run:
            expansion = taylor_coefficients(start, nu, stats.order_used)
            for c in expansion.coefficients:
                worst = max(worst, relative_divergence(c))
            worst = max(worst, relative_divergence(out))
    return [CheckResult("4", "divergence of coefficients and steps", worst, 1e-10)]


def criterion_5_oracle_agreement() -> tuple[list[CheckResult], TrackedRun]:
    grid = Grid(dim=3, n=32)
    nu = 0.02
    u = random_divfree(seed=7, grid=grid, peak_k=3, amplitude=1.0)
    run = _tracked_propagate(u, nu, 0.5)
    reference = rk4_propagate(u, nu, 0.5, dt=1e-3)
    return [
        CheckResult(
            "5", "lie vs rk4 relative L2 distance", _rel_l2(run[-1][1], reference), 1e-6
        )
    ], (nu, run)


def criterion_6_semigroup(u: SpectralVectorField, nu: float) -> list[CheckResult]:
    tol = 1e-10
    radius = estimate_radius(taylor_coefficients(u, nu, 10))
    dt = radius / 8.0  # the 2*dt step stays within half the radius estimate
    one, _ = step(u, nu, dt=2 * dt, tol=tol)
    half, _ = step(u, nu, dt=dt, tol=tol)
    two, _ = step(half, nu, dt=dt, tol=tol)
    return [
        CheckResult(
            "6", "semigroup law |T(dt)^2 - T(2dt)| u", (two - one).l2_norm(),
            10 * tol * u.l2_norm(),
        )
    ]


def criterion_7_convergence_order() -> list[CheckResult]:
    # Errors are scaled by the initial norm: a decaying denominator would
    # bias the fitted slope by about +2*nu*dt. The n=16 grid keeps the
    # in-ball nu*k^2 small so high-order coefficients stay signal-dominated.
    grid = Grid(dim=2, n=16)
    nu = 0.1
    flow = AnalyticFlow("taylor_green_2d")
    u = analytic_field(flow, 0.0, nu, grid)
    u_norm = u.l2_norm()
    dt_sets = {2: [0.25, 0.5, 1.0, 2.0], 4: [0.25, 0.5, 1.0, 2.0], 8: [0.75, 1.5, 3.0, 6.0]}
    results = []
    for order, dts in dt_sets.items():
        expansion = taylor_coefficients(u, nu, order)
        errors = []
        for dt in dts:
            got = evaluate(expansion, dt)
            errors.append((got - analytic_field(flow, dt, nu, grid)).l2_norm() / u_norm)
        slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
        results.append(
            CheckResult("7", f"single-step slope, order {order}", abs(slope - (order + 1)), 0.3)
        )
    return results


def criterion_8_linear_representation() -> list[CheckResult]:
    symbolic, errors = cross_check(5, 64)
    worst_ratio = max(b / a for a, b in zip(errors, errors[1:]))
    return [
        CheckResult("8", "symbolic vs numeric coefficients n<=5", max(symbolic), 1e-8),
        CheckResult("8", "series error monotone (max ratio)", worst_ratio, 1.0),
        CheckResult("8", "series error at order 10", errors[-1], 1e-8),
    ]


def criterion_9_exact_laws() -> list[CheckResult]:
    rng = np.random.default_rng(2718)

    def random_poly():
        terms = {}
        for _ in range(rng.integers(1, 4)):
            powers: dict[int, int] = {}
            for _ in range(rng.integers(1, 4)):
                order = int(rng.integers(0, 4))
                powers[order] = powers.get(order, 0) + 1
            coeff = Fraction(int(rng.integers(-4, 5)) or 1, int(rng.integers(1, 5)))
            key = tuple(sorted(powers.items()))
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return DiffPoly(terms)

    failures = 0
    for _ in range(100):
        f, g, h = random_poly(), random_poly(), random_poly()
        if not derivation_check(f, g, h):
            failures += 1
        if apply_A(f, g + h) != apply_A(f, g) + apply_A(f, h):
            failures += 1
        c = Fraction(3, 7)
        if apply_A(f, c * g) != c * apply_A(f, g):
            failures += 1
    return [CheckResult("9", "derivation/linearity failures of 100", float(failures), 0.0)]


def criterion_10_energy_monotonicity(runs: list[TrackedRun]) -> list[CheckResult]:
    worst = 0.0
    for _, run in runs:
        for start, out, _ in run:
            before, after = energy(start), energy(out)
            if before > 0:
                worst = max(worst, (after - before) / before)
    return [CheckResult("10", "max relative energy increase", worst, 1e-12)]


def run_acceptance(level: str = FULL) -> list[CheckResult]:
    if level not in (QUICK, FULL):
        raise ValueError(f"unknown verify level {level!r}")
    results, run = _exact_flow_check(
        "1", "taylor-green 2d", "taylor_green_2d", Grid(dim=2, n=64), 0.1, 1.0, 1e-8, 5.0
    )
    runs = [run]  # criterion 4 reads the runs of 1 and 2, criterion 10 also 5's
    if level == FULL:
        rows, run = _exact_flow_check(
            "2", "beltrami abc 3d", "beltrami_abc", Grid(dim=3, n=32), 0.05, 0.5, 1e-7, 120.0
        )
        results += rows
        runs.append(run)
    results += criterion_3_dissipativity(level)
    results += criterion_4_divergence_preservation(runs)
    if level == FULL:
        rows, (nu, run) = criterion_5_oracle_agreement()
        results += rows
        runs.append((nu, run))
        results += criterion_6_semigroup(run[0][0], nu)  # criterion 5's start field
    results += criterion_7_convergence_order()
    results += criterion_8_linear_representation()
    results += criterion_9_exact_laws()
    results += criterion_10_energy_monotonicity(runs)
    return results


def format_table(results: list[CheckResult]) -> str:
    header = f"{'crit':<4} {'check':<46} {'measured':>12}    {'threshold':>9}  status"
    lines = [header, "-" * len(header)]
    lines += [r.row() for r in results]
    n_fail = sum(not r.passed for r in results)
    lines.append("-" * len(header))
    lines.append(
        f"{len(results)} checks, {len(results) - n_fail} passed, {n_fail} failed"
    )
    return "\n".join(lines)
