"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import BURGERS, SimSpec, SymbolicSpec, load_refs  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "tg2d-lie": SimSpec(dim=2, n=64, nu=0.1, t_end=1.0, initial="taylor_green_2d",
                        integrator="lie"),
    "rand3d-lie": SimSpec(dim=3, n=16, nu=0.02, t_end=0.05, initial="random", peak_k=2,
                          integrator="lie"),
    "rand3d-rk4": SimSpec(dim=3, n=16, nu=0.02, t_end=0.004, initial="random", peak_k=2,
                          integrator="rk4", rk4_dt=1e-3, snapshot_cadence=2),
    "symbolic-powers": SymbolicSpec(generators=(BURGERS, "u_3 + 6*u_0*u_1"), order=3,
                                    points=32, burgers=BURGERS, burgers_nu=0.1,
                                    cross_order=3),
}
# Tiny fields have no stored oracle values: an empty store makes the run
# compute them.
TINY_REFS = {"rand3d-lie": {}}


def tiny_run(workload: str, traced: bool, refs: dict | None = None, seed: int = 7) -> dict:
    if refs is None:
        refs = TINY_REFS.get(workload)
    return run.run(workload, seed, 0.001, traced, spec=TINY[workload], refs=refs)["result"]


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(run.WORKLOADS)
    assert set(TINY) == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics_emitted_with_units(workload):
    result = tiny_run(workload, traced=False)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] == run.MIN_REPEATS * (1 + run.SETUPS_PER_REPEAT)
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["pass_frac"]["value"] == 1.0


def test_per_layer_metrics_emitted_and_measured():
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    seen_nonzero = set()
    for workload in sorted(TINY):
        result = tiny_run(workload, traced=True)
        assert result["correct"], result
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        seen_nonzero |= {k for k, v in result["metrics"].items() if v["value"] != 0}
        assert (run.OUT_DIR / f"spans-{workload}-s7.json").is_file()
    # Every per-layer metric is measured on at least one workload.
    assert seen_nonzero == set(expected)


def test_wrong_oracle_reference_counts_as_failure():
    wrong = {"7": {"energy": 1.0, "enstrophy": 1.0}}
    result = tiny_run("rand3d-lie", traced=False, refs=wrong)
    reps = result["attempted"] // (1 + run.SETUPS_PER_REPEAT)
    assert not result["correct"]
    assert result["failed"] == reps
    assert result["metrics"]["pass_frac"]["value"] == pytest.approx(
        1.0 - reps / result["attempted"])


def test_wrong_symbolic_digest_counts_as_failure():
    refs = load_refs()["symbolic-powers"]
    wrong = {gen: ["0" * 64] + digests[1:] for gen, digests in refs.items()}
    result = tiny_run("symbolic-powers", traced=False, refs=wrong)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // (1 + run.SETUPS_PER_REPEAT)
    assert result["metrics"]["pass_frac"]["value"] < 1.0


def test_second_seed_passes_its_checks():
    result = tiny_run("rand3d-rk4", traced=False, seed=11)
    assert result["correct"], result


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tg2d-lie", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _burgers_outputs(tmp_path, seed: int) -> tuple:
    """Burgers powers k <= 5 written by the symbolic child at full size."""
    import symbolic_child
    from workloads import WORKLOADS, symbolic_input

    spec = SymbolicSpec(generators=(BURGERS,), order=5, points=64, burgers=BURGERS,
                        burgers_nu=WORKLOADS["symbolic-powers"].burgers_nu, cross_order=5)
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(symbolic_input(spec, seed)), encoding="ascii")
    assert symbolic_child.main([str(inp), str(tmp_path / "out")]) == 0
    return spec, tmp_path / "out"


def test_burgers_cross_check_holds_at_float64_conditioning(tmp_path):
    # On this seed the two routes disagree by 1.5e-8 at order 5: float64
    # rounding of the samples, amplified by the 10th spectral derivative.
    from workloads import check_outputs

    seed = 1098530621
    spec, out = _burgers_outputs(tmp_path, seed)
    refs = load_refs()["symbolic-powers"]
    assert check_outputs(spec, seed, out, refs) == []

    result = out / "result.json"
    data = json.loads(result.read_text(encoding="ascii"))
    data["results"][5]["values"] = [v * (1 + 1e-6) for v in data["results"][5]["values"]]
    result.write_text(json.dumps(data), encoding="ascii")
    problems = check_outputs(spec, seed, out, refs)
    assert len(problems) == 1 and problems[0].startswith("Burgers order 5")


def test_child_memory_excludes_the_benchmarks(tmp_path):
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    res = run.run_child([sys.executable, "-c", "pass"], run.child_env(), tmp_path / "child.log")
    assert res["exit"] == 0
    assert 0 < res["peak_rss_mb"] < 100


def test_timed_out_child_is_stopped(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    res = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                        run.child_env(), tmp_path / "child.log")
    assert res["exit"] == -9
    assert res["wall_s"] < 30
