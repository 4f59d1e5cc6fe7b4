"""Resident memory of one ``liens simulate`` run, event by event: where the
peak of the series' coefficient cache, of the RK4 stages or of the snapshot
writer sits.

    python3 tools/step_memory.py CONFIG

runs ``liens.cli.cmd_simulate(CONFIG)`` in this process and prints one row
after each event of the run: a ``_SeriesBuilder`` made for a step
(``init``), a coefficient grown (``grow``), the step switched to float32
(``switch``), the step's sum (``sum``), a series record (``record``) and a
snapshot written (``snapshot``; the final field's too). An RK4 run has only
the last two. Each row gives the series step (0 for RK4), the order (the
last coefficient's, the order of the switch or of the sum, the record's or
the snapshot's index), the current resident size
from ``/proc/self/statm`` and the peak one, ``ru_maxrss``, both in MiB, so
Linux only. The methods are wrapped from outside for the run and restored
afterwards; the package itself holds no hook. The config of a benchmark
workload, e.g. ``rand3d-lie`` at seed 7, is written by

    python3 -c "import sys; sys.path.insert(0, 'perfbench'); from workloads import WORKLOADS; \\
    s = WORKLOADS['rand3d-lie']; print(s.config_text(7, s.t_end, 'out'), end='')" > run.cfg
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import liens.cli as cli  # noqa: E402
from liens.lie_propagator import _SeriesBuilder  # noqa: E402

MIB = 2.0**20
PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mib() -> tuple[float, float]:
    """The current and the peak resident size of this process, in MiB."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        resident = int(statm.read().split()[1])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return resident * PAGE / MIB, peak_kib * 1024 / MIB


@contextmanager
def traced(report):
    """Wrap the builder's methods, ``cli._record`` and ``cli.write_snapshot``
    so that each event calls ``report(event, step, order)``; restore them on
    exit."""
    count = {"step": 0, "record": 0, "snapshot": 0}
    init, grow, lower = _SeriesBuilder.__init__, _SeriesBuilder.grow, _SeriesBuilder.lower_precision
    evaluate, record, snapshot = _SeriesBuilder.evaluate, cli._record, cli.write_snapshot

    def init_(builder, *args):
        init(builder, *args)
        count["step"] += 1
        report("init", count["step"], 0)

    def grow_(builder):
        grow(builder)
        report("grow", count["step"], len(builder.norms) - 1)

    def lower_(builder, n, *args):
        before = builder.shift
        lower(builder, n, *args)
        if builder.shift != before:
            report("switch", count["step"], n)

    def evaluate_(builder, order, t):
        out = evaluate(builder, order, t)
        report("sum", count["step"], order)
        return out

    def record_(*args):
        out = record(*args)
        report("record", count["step"], count["record"])
        count["record"] += 1
        return out

    def snapshot_(*args):
        snapshot(*args)
        report("snapshot", count["step"], count["snapshot"])
        count["snapshot"] += 1

    patches = [(_SeriesBuilder, "__init__", init_), (_SeriesBuilder, "grow", grow_),
               (_SeriesBuilder, "lower_precision", lower_), (_SeriesBuilder, "evaluate", evaluate_),
               (cli, "_record", record_), (cli, "write_snapshot", snapshot_)]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", type=Path)
    args = parser.parse_args(argv)

    def report(event: str, step: int, order: int) -> None:
        rss, peak = rss_mib()
        print(f"{event:<8} {step:>4} {order:>5} {rss:>9.1f} {peak:>9.1f}", flush=True)

    print(f"{'event':<8} {'step':>4} {'order':>5} {'rss_mib':>9} {'peak_mib':>9}", flush=True)
    with traced(report):
        return cli.cmd_simulate(args.config)


if __name__ == "__main__":
    sys.exit(main())
