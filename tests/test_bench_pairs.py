"""The verdicts of ``tools/bench_pairs.py`` on synthetic pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(parent, change):
    def run(value):
        return {"result": {"metrics": {"m": {"value": value, "unit": "s"}}}}

    return [{"parent": run(a), "change": run(b)} for a, b in zip(parent, change)]


LOWER = {"m": {"name": "m", "better": "lower", "bound": 0.05}}
HIGHER = {"m": {"name": "m", "better": "higher", "bound": 0.05}}
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 102.0, 98.0, 100.0, 101.0]


def test_clear_gain_meets_the_claim(bench_pairs):
    change = [v - 10.0 for v in PARENT]
    s = bench_pairs.summarize(pairs_of(PARENT, change), LOWER)["m"]
    assert (s["change_won"], s["change_lost"]) == (10, 0)
    assert s["claim_met"] and not s["worse_than_bound"]


def test_nine_wins_suffice_eight_do_not(bench_pairs):
    nine = [v - 10.0 for v in PARENT[:9]] + [PARENT[9] + 1.0]
    assert bench_pairs.summarize(pairs_of(PARENT, nine), LOWER)["m"]["claim_met"]
    eight = [v - 10.0 for v in PARENT[:8]] + [v + 1.0 for v in PARENT[8:]]
    assert not bench_pairs.summarize(pairs_of(PARENT, eight), LOWER)["m"]["claim_met"]


def test_gain_within_parent_spread_is_no_claim(bench_pairs):
    # every pair won, but the median moves by less than the parent's IQR (1.25)
    change = [v - 0.5 for v in PARENT]
    s = bench_pairs.summarize(pairs_of(PARENT, change), LOWER)["m"]
    assert s["change_won"] == 10
    assert s["parent"]["iqr"] == pytest.approx(1.25)
    assert not s["claim_met"]


def test_worse_than_bound_is_relative_to_parent_median(bench_pairs):
    slightly = [v * 1.04 for v in PARENT]
    assert not bench_pairs.summarize(pairs_of(PARENT, slightly), LOWER)["m"]["worse_than_bound"]
    beyond = [v * 1.06 for v in PARENT]
    s = bench_pairs.summarize(pairs_of(PARENT, beyond), LOWER)["m"]
    assert s["worse_than_bound"] and not s["claim_met"]


def test_higher_is_better_direction(bench_pairs):
    ones = [1.0] * 10
    dropped = [0.9] * 10
    s = bench_pairs.summarize(pairs_of(ones, dropped), HIGHER)["m"]
    assert (s["change_won"], s["change_lost"]) == (0, 10)
    assert s["worse_than_bound"] and not s["claim_met"]
    s = bench_pairs.summarize(pairs_of(ones, ones), HIGHER)["m"]
    assert not s["worse_than_bound"] and not s["claim_met"]


def test_one_summary_row_per_metric(bench_pairs):
    metrics = {"a": {"name": "a", "better": "lower", "bound": 0.25},
               "b": {"name": "b", "better": "higher", "bound": 0.05}}
    pairs = [{side: {"result": {"metrics": {"a": {"value": 1.0}, "b": {"value": 1.0}}}}
              for side in ("parent", "change")} for _ in range(10)]
    rows = bench_pairs.summary_rows("w", bench_pairs.summarize(pairs, metrics))
    assert len(rows) == 2
    assert all(r.startswith("w ") and "claim_met False" in r for r in rows)


def test_printed_summary_states_outputs_identical(bench_pairs, monkeypatch, tmp_path, capsys):
    # Synthetic runs of every BENCHMARK.json workload: the outputs agree
    # except on one seed of the first workload.
    bench = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: {"value": 1.0} for m in bench["end_to_end"]}

    def run_once(checkout, workload, seed, seconds):
        digest = "b" if (checkout.name, workload, seed) == ("change", names[0], 3) else "a"
        return {"seed": seed, "result": {"metrics": metrics},
                "executions": [{"name": "rep0", "digest": digest}]}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--out", str(out)]) == 0
    rows = [r.split() for r in capsys.readouterr().out.splitlines() if "outputs_identical" in r]
    want = [[name, "outputs_identical", str(name != names[0])] for name in names]
    assert rows == want
    report = json.loads(out.read_text(encoding="ascii"))
    assert [w["outputs_identical"] for w in report["workloads"].values()] == [
        name != names[0] for name in names]
