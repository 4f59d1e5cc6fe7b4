"""Paired parent/change runs of the benchmark, written to one BENCH_*.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json

``DIR`` is a checkout of each commit, e.g. ``git archive REV | tar -x -C DIR``.
For every workload of ``BENCHMARK.json``, pair k = 0..PAIRS-1 runs
``perfbench/run.py --workload W --seed k+1 --seconds S``, S being its
``run_seconds``, in both checkouts, the parent first when k is even and the
change first when k is odd. The output holds every run's result line, its environment and its
executions, and per metric the medians and quartiles of each side and the
pairs the change won and lost (ties count for neither), in the direction
``BENCHMARK.json`` gives the metric, and two verdicts:

- ``claim_met``: the change won at least nine pairs in ten and its median
  is better than the parent's by more than the parent's interquartile range;
- ``worse_than_bound``: the change's median is worse than the parent's by
  more than the metric's ``BENCHMARK.json`` bound, relative to the parent's
  median.

Per workload, ``outputs_identical`` says whether the output digests of the
parent's and the change's ``rep0`` execution agree on every seed. One
summary row per workload and metric is printed when its pairs are done.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The fewest pairs that can show a gain won in nine of ten.
PAIRS = 10
EXECUTION_KEYS = ("name", "exit", "cpu_s", "wall_s", "peak_rss_mb", "problems", "digest")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    detail_line, result_line = done.stdout.strip().splitlines()[-2:]
    detail = json.loads(detail_line)["detail"]
    return {
        "seed": seed,
        "result": json.loads(result_line),
        "environment": detail["environment"],
        "executions": [{k: e.get(k) for k in EXECUTION_KEYS} for e in detail["executions"]],
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric of ``metrics`` (``BENCHMARK.json``'s end-to-end entries by
    name): both sides' quartiles, the pairs won and lost, and the verdicts."""
    out = {}
    for name, metric in metrics.items():
        parent = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        won = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
        lost = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
        before, after = quartiles(parent), quartiles(change)
        gain = sign * (before["median"] - after["median"])
        out[name] = {"better": metric["better"], "parent": before, "change": after,
                     "change_won": won, "change_lost": lost,
                     "claim_met": 10 * won >= 9 * len(pairs) and gain > before["iqr"],
                     "worse_than_bound": -gain > metric["bound"] * abs(before["median"])}
    return out


def summary_rows(workload: str, summary: dict) -> list[str]:
    return [f"{workload:<16} {name:<12} parent {s['parent']['median']:<10.4g} "
            f"change {s['change']['median']:<10.4g} won {s['change_won']:>2} "
            f"lost {s['change_lost']:>2} claim_met {s['claim_met']!s:<5} "
            f"worse_than_bound {s['worse_than_bound']}"
            for name, s in summary.items()]


def outputs_identical(pairs: list[dict]) -> bool:
    def rep0(run: dict) -> dict:
        return next(e["digest"] for e in run["executions"] if e["name"] == "rep0")

    return all(rep0(p["parent"]) == rep0(p["change"]) for p in pairs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"pairs": PAIRS, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for k in range(PAIRS):
            sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"first": sides[0]}
            for side in sides:
                pair[side] = run_once(getattr(args, side), workload, k + 1, seconds)
            pairs.append(pair)
            print(f"{workload} pair {k + 1}/{PAIRS}", file=sys.stderr)
        summary = summarize(pairs, metrics)
        report["workloads"][workload] = {"summary": summary,
                                         "outputs_identical": outputs_identical(pairs),
                                         "runs": pairs}
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="ascii")
        print("\n".join(summary_rows(workload, summary)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
