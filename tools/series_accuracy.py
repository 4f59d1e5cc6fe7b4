"""Run ``liens simulate`` by lie in two checkouts on five random flows and say,
case by case, how far the change's final field lies from an accurate one.

    python3 tools/series_accuracy.py --parent DIR --change DIR

``DIR`` is a checkout of each commit, e.g. ``git archive REV | tar -x -C DIR``.
Each case runs three times as ``python -m liens.cli simulate`` in a child
process, with ``DIR/src`` as ``PYTHONPATH`` and a snapshot after every step:
the parent at tol 1e-13 (the reference), and the parent and the change at
the case's tol. The cases:

- ``rand3d-lie`` as ``perfbench/workloads.py`` writes it (64^3), seeds 1
  and 7;
- random 2-D 128^2, peak_k 4, to t 2 at nu 0.01 and at nu 0, seed 7;
- random 32^3, peak_k 3, nu 0.02, to t 3, seed 7.

One line is printed per case: the relative L2 error of the change's final
field against the reference (the parent's in brackets), the largest
relative divergence of any step output of the change, and its (order, dt)
pairs. The exit status is 1 when on any case the error exceeds 10 tol, a
divergence exceeds 1e-14, or a pair differs from the parent's.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from child_run import run_checkout  # noqa: E402
from workloads import WORKLOADS, SimSpec  # noqa: E402

from liens import read_snapshot  # noqa: E402
from liens.grid_spectral import relative_divergence  # noqa: E402

REFERENCE_TOL = 1e-13
ERROR_FACTOR = 10.0
DIVERGENCE_BOUND = 1e-14


def _random(dim: int, n: int, peak_k: int, nu: float, t_end: float) -> SimSpec:
    return SimSpec(dim=dim, n=n, nu=nu, t_end=t_end, initial="random", peak_k=peak_k,
                   integrator="lie")


CASES: dict[str, tuple[SimSpec, int]] = {
    "rand3d-lie seed 1": (WORKLOADS["rand3d-lie"], 1),
    "rand3d-lie seed 7": (WORKLOADS["rand3d-lie"], 7),
    "2-D nu 0.01 seed 7": (_random(2, 128, 4, 0.01, 2.0), 7),
    "2-D nu 0 seed 7": (_random(2, 128, 4, 0.0, 2.0), 7),
    "32^3 nu 0.02 seed 7": (_random(3, 32, 3, 0.02, 3.0), 7),
}


def run_case(checkout: Path, spec: SimSpec, seed: int, workdir: Path) -> dict:
    """One run of ``spec`` with a snapshot after every step, in ``workdir``:
    its (order, dt) pairs, its final field's data and the largest relative
    divergence of its step outputs."""
    spec = dataclasses.replace(spec, snapshot_cadence=1)
    config = spec.config_text(seed, spec.t_end, "out").encode("ascii")
    done = run_checkout(checkout, ("simulate", "run.cfg"), workdir, {"run.cfg": config})
    if done.exit:
        raise subprocess.CalledProcessError(done.exit, "liens simulate", done.stdout,
                                            done.stderr)
    out = workdir / "out"
    with open(out / "series.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))[1:]  # the first row is t = 0
    pairs = [(int(r["order_used"]), float(r["dt"])) for r in rows]
    divergence = max(relative_divergence(read_snapshot(p))
                     for p in sorted(out.glob("snapshot_*.liens")))
    return {"pairs": pairs, "final": read_snapshot(out / "field_final.liens").data,
            "divergence": divergence}


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def problems(tol: float, reference: dict, parent: dict, change: dict) -> list[str]:
    """What fails on one case: an error above ERROR_FACTOR * tol, a step
    divergence above DIVERGENCE_BOUND, pairs that moved."""
    found = []
    if not relative_error(change["final"], reference["final"]) <= ERROR_FACTOR * tol:
        found.append("error")
    if not change["divergence"] <= DIVERGENCE_BOUND:
        found.append("divergence")
    if change["pairs"] != parent["pairs"]:
        found.append("pairs moved")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)

    failing = 0
    for name, (spec, seed) in CASES.items():
        runs = {}
        for key, checkout, tol in (("reference", args.parent, REFERENCE_TOL),
                                   ("parent", args.parent, spec.tol),
                                   ("change", args.change, spec.tol)):
            with tempfile.TemporaryDirectory(prefix="series_accuracy-") as workdir:
                runs[key] = run_case(checkout, dataclasses.replace(spec, tol=tol), seed,
                                     Path(workdir))
        found = problems(spec.tol, **runs)
        failing += bool(found)
        errors = [relative_error(runs[key]["final"], runs["reference"]["final"])
                  for key in ("change", "parent")]
        pairs = " ".join(f"({order}, {dt:.6g})" for order, dt in runs["change"]["pairs"])
        verdict = "fails: " + ", ".join(found) if found else "ok"
        print(f"{name:<20} error {errors[0]:.2e} [{errors[1]:.2e}]  divergence "
              f"{runs['change']['divergence']:.1e}  pairs {pairs}  {verdict}", flush=True)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
