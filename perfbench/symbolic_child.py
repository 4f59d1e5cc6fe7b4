"""Child process of the symbolic workload.

    python symbolic_child.py <input.json> <output_dir> [--setup-only]

Reads the generators, the highest order and the sample values from the input
file, computes ``a_power_u(f, k)`` for every generator and k = 0..order,
evaluates each power on the samples with ``eval_diffpoly`` and writes
``result.json`` (digest of the canonical text, term count, values) into the
output directory. ``--setup-only`` stops after ``import liens`` and parsing.
``liens`` must be importable (the benchmark puts the checkout's ``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from liens import a_power_u, eval_diffpoly, parse_diffpoly


def main(argv: list[str]) -> int:
    inp, outdir = Path(argv[0]), Path(argv[1])
    spec = json.loads(inp.read_text(encoding="ascii"))
    generators = [(text, parse_diffpoly(text)) for text in spec["generators"]]
    outdir.mkdir(parents=True, exist_ok=True)
    if "--setup-only" in argv[2:]:
        return 0
    samples = np.array(spec["samples"], dtype=np.float64)
    results = []
    for text, f in generators:
        for k in range(spec["order"] + 1):
            p = a_power_u(f, k)
            results.append({
                "generator": text,
                "order": k,
                "sha256": hashlib.sha256(str(p).encode("utf-8")).hexdigest(),
                "terms": len(p.monomials()),
                "values": [float(v) for v in eval_diffpoly(p, samples)],
            })
    (outdir / "result.json").write_text(json.dumps({"results": results}), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
