"""Run ``python -m liens.cli`` and the symbolic benchmark's child in two
checkouts on the same cases and say, case by case, whether the two runs agree
byte for byte.

    python3 tools/same_outputs.py --parent DIR --change DIR

``DIR`` is a checkout of each commit, e.g. ``git archive REV | tar -x -C DIR``.
Each case runs once per checkout, in a fresh directory that holds only the
case's input files, with ``DIR/src`` as ``PYTHONPATH``. Two runs agree when
their exit codes, stdout, stderr and the sha256 of every file left in the
directory are equal. The cases:

- ``simulate`` on the configs that ``perfbench/workloads.py`` writes for
  each simulation workload at seeds 1 and 7;
- ``simulate`` from a physical snapshot, and on a Beltrami flow whose
  ``abc_a = 1e160`` overflows the initial norms (exit 2);
- ``simulate`` on each way a ``[run]`` section ends a run early: an RK4
  step past the diffusion bound, ``rk4_dt`` with lie and ``tol`` with rk4
  (exit 2); a random field of amplitude 1e7 whose radius estimate
  collapses, and an inviscid RK4 run whose state overflows (exit 3, with
  ``field_last.liens``);
- ``simulate`` by lie with a snapshot after each of its four steps;
- ``simulate`` by lie on the exact 3-D eigenflows ``beltrami_abc`` and
  ``taylor_green_3d_embedded`` at 16^3 with a snapshot after each step:
  their spectra hold exact zeros, whose signs the snapshots record;
- ``spectrum`` of the physical snapshot;
- ``burgers-check`` with its defaults and with ``--order 8 --n 32`` (exit 1);
- each checkout's own ``perfbench/symbolic_child.py``, which it only reads,
  on the ``symbolic-powers`` input at seeds 1 and 7 (``result.json``).

One line is printed per case, and a last one with the line count of
``src/liens/*.py`` in each checkout and their difference, the net size of
the change; the exit status is 1 when any case differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

from child_run import run_checkout  # noqa: E402
from workloads import WORKLOADS, symbolic_input  # noqa: E402

SEEDS = (1, 7)


@dataclass(frozen=True)
class Case:
    name: str
    args: tuple[str, ...]
    files: dict[str, bytes] = field(default_factory=dict)  # written before the run
    script: str = ""  # a file of the checkout to run instead of ``-m liens.cli``


def physical_snapshot(n: int = 16) -> bytes:
    """A smooth divergence-free 2-D field, sampled on n^2 points of the 2*pi
    box, as a physical snapshot file."""
    x = 2.0 * math.pi * np.arange(n) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.stack([np.sin(Y) + 0.5 * np.cos(X) * np.sin(Y),
                  np.sin(X) - 0.5 * np.sin(X) * np.cos(Y)])
    header = f"LIENS1 2 {n} {2.0 * math.pi:.17g} 2 physical\n".encode("ascii")
    return header + np.ascontiguousarray(u.transpose(0, 2, 1), "<f8").tobytes()  # x fastest


def simulate_config(dim: int, n: int, initial: str, run: str, nu: float = 0.1) -> str:
    return (f"[grid]\ndim = {dim}\nn = {n}\n[fluid]\nnu = {nu}\n[initial]\n{initial}\n"
            f"[run]\n{run}\noutput_dir = out\n")


def simulate(name: str, dim: int, n: int, initial: str, run: str, nu: float = 0.1) -> Case:
    """A ``simulate`` case on ``simulate_config(dim, n, initial, run, nu)``."""
    return Case(name, ("simulate", "run.cfg"),
                {"run.cfg": simulate_config(dim, n, initial, run, nu).encode("ascii")})


def cases() -> list[Case]:
    out = [
        Case(f"{name} seed {seed}", ("simulate", "run.cfg"),
             {"run.cfg": spec.config_text(seed, spec.t_end, "out").encode("ascii")})
        for name, spec in WORKLOADS.items() if spec.kind == "simulate"
        for seed in SEEDS
    ]
    snapshot = physical_snapshot()
    lie = "t_end = 0.1\nintegrator = lie"
    rk4 = "t_end = 0.1\nintegrator = rk4\nrk4_dt = "
    tg = "kind = taylor_green_2d"
    out += [
        Case("physical snapshot", ("simulate", "run.cfg"), {
            "run.cfg": simulate_config(2, 16, "kind = snapshot\npath = seed.liens",
                                       lie).encode("ascii"),
            "seed.liens": snapshot}),
        simulate("beltrami overflow", 3, 16, "kind = beltrami_abc\nabc_a = 1e160", lie),
        simulate("rk4 past diffusion", 2, 16, tg, rk4 + "1.0"),
        simulate("rk4_dt with lie", 2, 16, tg, lie + "\nrk4_dt = 1e-3"),
        simulate("tol with rk4", 2, 16, tg, rk4 + "1e-3\ntol = 1e-10"),
        simulate("radius collapse", 2, 32, "kind = random\nseed = 3\npeak_k = 3\n"
                 "amplitude = 1e7", "t_end = 1\nintegrator = lie", nu=0.01),
        simulate("rk4 blow-up", 2, 32, "kind = random\nseed = 3\npeak_k = 4\n"
                 "amplitude = 50", "t_end = 2\nintegrator = rk4\nrk4_dt = 0.5", nu=0),
        simulate("lie snapshot cadence", 2, 16, "kind = random\nseed = 5\npeak_k = 3\n"
                 "amplitude = 5", "t_end = 1\nintegrator = lie\nsnapshot_cadence = 1"),
        *(simulate(f"{kind} snapshots", 3, 16, f"kind = {kind}",
                   "t_end = 1\nintegrator = lie\nsnapshot_cadence = 1")
          for kind in ("beltrami_abc", "taylor_green_3d_embedded")),
        Case("spectrum physical", ("spectrum", "seed.liens"), {"seed.liens": snapshot}),
        Case("burgers-check", ("burgers-check",)),
        Case("burgers-check 8 32", ("burgers-check", "--order", "8", "--n", "32")),
        *(Case(f"symbolic-powers seed {seed}", ("input.json", "out"),
               {"input.json": json.dumps(symbolic_input(WORKLOADS["symbolic-powers"],
                                                        seed)).encode("ascii")},
               script="perfbench/symbolic_child.py")
          for seed in SEEDS),
    ]
    return out


def run_case(checkout: Path, case: Case, workdir: Path) -> dict:
    """The exit code, stdout, stderr and the sha256 of each file (by path
    relative to ``workdir``) of one run of ``case`` in ``workdir``."""
    done = run_checkout(checkout, case.args, workdir, case.files, case.script)
    files = {str(p.relative_to(workdir)): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    return {"exit": done.exit, "stdout": done.stdout, "stderr": done.stderr,
            "files": files}


def differences(parent: dict, change: dict) -> list[str]:
    """What differs between two runs: ``exit``, ``stdout``, ``stderr`` and
    the path of each file that one run lacks or whose digest differs."""
    diff = [key for key in ("exit", "stdout", "stderr") if parent[key] != change[key]]
    paths = sorted(parent["files"].keys() | change["files"].keys())
    return diff + [p for p in paths if parent["files"].get(p) != change["files"].get(p)]


def line_count(checkout: Path) -> int:
    """The number of lines of ``src/liens/*.py`` in ``checkout``, as ``wc -l``
    counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "liens").glob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)

    differing = 0
    for case in cases():
        runs = {}
        for side in ("parent", "change"):
            with tempfile.TemporaryDirectory(prefix="same_outputs-") as workdir:
                runs[side] = run_case(getattr(args, side), case, Path(workdir))
        diff = differences(runs["parent"], runs["change"])
        differing += bool(diff)
        verdict = "differs: " + ", ".join(diff) if diff else "identical"
        print(f"{case.name:<22} exit {runs['parent']['exit']}  {verdict}", flush=True)
    parent, change = line_count(args.parent), line_count(args.change)
    print(f"src/liens/*.py lines: parent {parent}, change {change}, "
          f"difference {change - parent:+d}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
