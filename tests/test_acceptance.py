"""Acceptance gate: every criterion at its stated tolerance.

Runs the full verification level once and asserts criterion by criterion,
printing one pass/fail line per check (visible with ``pytest -s`` or on
failure). The negative control at the end ensures the harness can fail.
"""

import time

import pytest

from liens import verification
from liens.operator_calculus import DiffPoly, apply_A
from liens.verification import (
    FULL,
    QUICK,
    criterion_3_dissipativity,
    criterion_9_exact_laws,
    format_table,
    run_acceptance,
)


@pytest.fixture(scope="module")
def results():
    return run_acceptance(FULL)


def _assert_criterion(results, cid):
    rows = [r for r in results if r.criterion == cid]
    assert rows, f"criterion {cid} produced no checks"
    for r in rows:
        print(r.row())
    failed = [r for r in rows if not r.passed]
    assert not failed, "failed checks:\n" + "\n".join(r.row() for r in failed)


def test_criterion_01_taylor_green_exactness(results):
    _assert_criterion(results, "1")


def test_criterion_02_beltrami_exactness(results):
    _assert_criterion(results, "2")


def test_criterion_03_dissipativity_identity(results):
    _assert_criterion(results, "3")


def test_criterion_04_divergence_preservation(results):
    _assert_criterion(results, "4")


def test_criterion_05_uniqueness_oracle_agreement(results):
    _assert_criterion(results, "5")


def test_criterion_06_semigroup_law(results):
    _assert_criterion(results, "6")


def test_criterion_07_convergence_order(results):
    _assert_criterion(results, "7")


def test_criterion_08_linear_representation(results):
    _assert_criterion(results, "8")


def test_criterion_09_exact_derivation_linearity(results):
    _assert_criterion(results, "9")


def test_criterion_10_energy_monotonicity(results):
    _assert_criterion(results, "10")


def test_full_table_prints(results):
    print()
    print(format_table(results))
    assert all(r.passed for r in results)


def test_quick_level_complete_and_fast():
    t0 = time.perf_counter()
    quick = run_acceptance(QUICK)
    elapsed = time.perf_counter() - t0
    assert all(r.passed for r in quick)
    # 2-D subset only: no 32^3 criteria at the quick level
    ids = {r.criterion for r in quick}
    assert "2" not in ids and "5" not in ids and "6" not in ids
    assert elapsed < 60.0


def test_negative_control_flipped_pressure_sign():
    # The injected bug must trip the dissipativity case (via the
    # solenoidality assertion; gradients are invisible to the inner product).
    rows = criterion_3_dissipativity(QUICK, pressure_sign=-1.0)
    assert any(not r.passed for r in rows)


def test_negative_control_affine_generator(monkeypatch):
    # A generator off by the constant u_0 is no longer linear in g: both
    # linearity checks fail in each of the 100 draws, and only they see it
    # (derivation_check calls the unpatched apply_A).
    monkeypatch.setattr(verification, "apply_A", lambda f, g: apply_A(f, g) + DiffPoly.u(0))
    [row] = criterion_9_exact_laws()
    assert row.measured == 200.0 and not row.passed
