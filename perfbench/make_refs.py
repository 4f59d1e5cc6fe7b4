"""Make the stored references of the benchmark's correctness gates.

    python3 perfbench/make_refs.py [--seeds 0-63]

Writes ``perfbench/refs.json``:

* ``rand3d-lie``: for each seed, the final energy and enstrophy of the
  random 64^3 field by the RK4 oracle (``rk4_propagate``, 10 steps of 0.05).
  The benchmark computes the same oracle in-run for a seed not stored here.
* ``symbolic-powers``: for each generator, the SHA-256 digests of the
  canonical text of ``a_power_u(f, k)``, k = 0..order.

Run it from the root of a checkout; it uses the package under ``src``.
Existing entries for other seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REFS_PATH, WORKLOADS, rk4_oracle, symbolic_digest  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="make perfbench/refs.json")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-63"))
    args = parser.parse_args(argv)

    from liens import a_power_u, parse_diffpoly

    refs = json.loads(REFS_PATH.read_text(encoding="utf-8")) if REFS_PATH.exists() else {}
    lie = refs.setdefault("rand3d-lie", {})
    for seed in args.seeds:
        lie[str(seed)] = rk4_oracle(WORKLOADS["rand3d-lie"], seed)
        print(f"rand3d-lie seed {seed}: {lie[str(seed)]}", flush=True)
    sym = WORKLOADS["symbolic-powers"]
    refs["symbolic-powers"] = {
        text: [symbolic_digest(str(a_power_u(parse_diffpoly(text), k)))
               for k in range(sym.order + 1)]
        for text in sym.generators
    }
    refs["rand3d-lie"] = dict(sorted(lie.items(), key=lambda kv: int(kv[0])))
    REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
