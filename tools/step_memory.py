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
Linux only, and on the series rows the bytes of the builder's coefficient
balls in MiB (``-`` on record and snapshot rows): the coefficient cache
itself, free of the noise of resident sizes. On the init, grow and switch
rows the last column gives the resident MiB of the builder's stack buffer,
the float64 one under a float32 view, from the present bits of its pages
in ``/proc/self/pagemap`` (``-`` elsewhere: the sum releases the stack).
The methods are wrapped from outside for the run and restored afterwards;
the package itself holds no hook. The config of a benchmark workload, e.g.
``rand3d-lie`` at seed 7, is written by

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

import numpy as np  # noqa: E402

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


def resident_mib(stack: np.ndarray) -> float:
    """The resident MiB of the buffer that holds ``stack``, the array up its
    ``base`` chain whose base is no array: the present bit, bit 63, of each
    of its pages' ``/proc/self/pagemap`` entries."""
    while isinstance(stack.base, np.ndarray):
        stack = stack.base
    first = stack.ctypes.data // PAGE
    end = -(-(stack.ctypes.data + stack.nbytes) // PAGE)
    with open("/proc/self/pagemap", "rb") as pagemap:
        pagemap.seek(8 * first)
        entries = np.frombuffer(pagemap.read(8 * (end - first)), np.uint64)
    return np.count_nonzero(entries >> np.uint64(63)) * PAGE / MIB


@contextmanager
def traced(report):
    """Wrap the builder's methods, ``cli._record`` and ``cli.write_snapshot``
    so that each event calls ``report(event, step, order, builder)``, the
    builder None on record and snapshot rows; restore them on exit."""
    count = {"step": 0, "record": 0, "snapshot": 0}
    init, grow, lower = _SeriesBuilder.__init__, _SeriesBuilder.grow, _SeriesBuilder.lower_precision
    evaluate, record, snapshot = _SeriesBuilder.evaluate, cli._record, cli.write_snapshot

    def init_(builder, *args):
        init(builder, *args)
        count["step"] += 1
        report("init", count["step"], 0, builder)

    def grow_(builder):
        grow(builder)
        report("grow", count["step"], len(builder.norms) - 1, builder)

    def lower_(builder, n, *args):
        before = builder.shift
        lower(builder, n, *args)
        if builder.shift != before:
            report("switch", count["step"], n, builder)

    def evaluate_(builder, order, t):
        out = evaluate(builder, order, t)
        report("sum", count["step"], order, builder)
        return out

    def record_(*args):
        out = record(*args)
        report("record", count["step"], count["record"], None)
        count["record"] += 1
        return out

    def snapshot_(*args):
        snapshot(*args)
        report("snapshot", count["step"], count["snapshot"], None)
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

    def report(event: str, step: int, order: int, builder) -> None:
        rss, peak = rss_mib()
        balls = "-" if builder is None else f"{sum(b.nbytes for b in builder.balls) / MIB:.3f}"
        stack = f"{resident_mib(builder.stack):.3f}" if event in ("init", "grow", "switch") else "-"
        print(f"{event:<8} {step:>4} {order:>5} {rss:>9.1f} {peak:>9.1f} {balls:>9} {stack:>9}",
              flush=True)

    print(f"{'event':<8} {'step':>4} {'order':>5} {'rss_mib':>9} {'peak_mib':>9} {'balls_mib':>9}"
          f" {'stack_mib':>9}", flush=True)
    with traced(report):
        return cli.cmd_simulate(args.config)


if __name__ == "__main__":
    sys.exit(main())
