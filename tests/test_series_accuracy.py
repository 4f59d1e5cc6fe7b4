"""The verdicts of ``tools/series_accuracy.py`` on stubbed runs."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "series_accuracy.py"


@pytest.fixture(scope="module")
def series_accuracy():
    spec = importlib.util.spec_from_file_location("series_accuracy", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def run(final=(1.0, 0.0), divergence=1e-15, pairs=((15, 0.25), (13, 0.25))):
    return {"pairs": list(pairs), "final": np.array(final), "divergence": divergence}


def test_cases_are_the_five_flows(series_accuracy):
    cases = series_accuracy.CASES
    assert list(cases) == ["rand3d-lie seed 1", "rand3d-lie seed 7", "2-D nu 0.01 seed 7",
                           "2-D nu 0 seed 7", "32^3 nu 0.02 seed 7"]
    shapes = [(spec.dim, spec.n, spec.nu, spec.t_end, spec.integrator, seed)
              for spec, seed in cases.values()]
    assert shapes == [(3, 64, 0.02, 0.5, "lie", 1), (3, 64, 0.02, 0.5, "lie", 7),
                      (2, 128, 0.01, 2.0, "lie", 7), (2, 128, 0.0, 2.0, "lie", 7),
                      (3, 32, 0.02, 3.0, "lie", 7)]
    assert all(spec.tol == 1e-10 for spec, _ in cases.values())


def test_problems_name_each_failed_gate(series_accuracy):
    problems = series_accuracy.problems
    reference = run()
    assert problems(1e-10, reference, run(), run(final=(1.0, 9e-10))) == []
    assert problems(1e-10, reference, run(), run(final=(1.0, 2e-9))) == ["error"]
    assert problems(1e-10, reference, run(), run(divergence=2e-12)) == ["divergence"]
    assert problems(1e-10, reference, run(), run(pairs=((15, 0.25), (14, 0.25)))) == [
        "pairs moved"]
    assert problems(1e-10, reference, run(), run(final=(np.nan, 0.0), divergence=np.nan)) == [
        "error", "divergence"]


def test_one_line_per_case_and_exit_1_on_any_failure(series_accuracy, monkeypatch,
                                                     tmp_path, capsys):
    calls = []

    def run_case(checkout, spec, seed, workdir):
        assert workdir.is_dir() and not any(workdir.iterdir())
        calls.append((checkout.name, spec.tol, seed))
        if checkout.name == "change" and spec.n == 32:
            return run(final=(1.0, 1e-8))
        return run()

    monkeypatch.setattr(series_accuracy, "run_case", run_case)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    assert series_accuracy.main(argv) == 1
    assert calls[:3] == [("parent", 1e-13, 1), ("parent", 1e-10, 1), ("change", 1e-10, 1)]
    assert len(calls) == 15
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0] == ("rand3d-lie seed 1    error 0.00e+00 [0.00e+00]  divergence 1.0e-15"
                        "  pairs (15, 0.25) (13, 0.25)  ok")
    assert lines[-1].startswith("32^3 nu 0.02 seed 7  error 1.00e-08 [0.00e+00]")
    assert lines[-1].endswith("fails: error")

    monkeypatch.setattr(series_accuracy, "run_case",
                        lambda checkout, spec, seed, workdir: run())
    assert series_accuracy.main(argv) == 0
