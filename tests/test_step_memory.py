"""``tools/step_memory.py`` on a small lie run and a small RK4 run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from liens import cli
from liens.lie_propagator import _SeriesBuilder

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "step_memory.py"
CONFIG = """[grid]
dim = 3
n = 16
[fluid]
nu = 0.02
[initial]
kind = random
seed = 7
peak_k = 3
[run]
t_end = 1.0
integrator = lie
output_dir = out
"""
RK4_CONFIG = CONFIG.replace("t_end = 1.0\nintegrator = lie", (
    "t_end = 0.005\nintegrator = rk4\nrk4_dt = 0.001\nsnapshot_cadence = 1"))


@pytest.fixture(scope="module")
def step_memory():
    spec = importlib.util.spec_from_file_location("step_memory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_one_row_per_event_and_methods_restored(step_memory, tmp_path, capsys):
    originals = [getattr(_SeriesBuilder, name)
                 for name in ("__init__", "grow", "lower_precision", "evaluate")]
    record = cli._record
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG, encoding="ascii")
    assert step_memory.main([str(config)]) == 0
    assert (tmp_path / "out" / "series.csv").is_file()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["event", "step", "order", "rss_mib", "peak_mib", "balls_mib"]
    rows = [line.split() for line in lines[1:] if line.split()[0] in (
        "init", "grow", "switch", "sum", "record")]
    assert rows[0][:3] == ["record", "0", "0"] and rows[1][:3] == ["init", "1", "0"]
    events = [row[0] for row in rows]
    assert events.count("init") == events.count("sum") == events.count("record") - 1
    assert "switch" in events
    steps = events.count("init")
    grows = [int(row[2]) for row in rows if row[0] == "grow" and row[1] == "1"]
    assert grows == list(range(1, len(grows) + 1))
    assert rows[-1][:3] == ["record", str(steps), str(steps)]
    for row in rows:
        rss, peak = float(row[3]), float(row[4])
        assert 0.0 < rss and 0.0 < peak
        assert (row[5] == "-") == (row[0] == "record")
    # Each grow of step 1 adds its complex128 ball; from the switch on it
    # also keeps the previous ball as its float32 slot's complex64 input,
    # in place of that ball's complex128 one: half a ball more in all.
    ball = 3 * 11 * 11 * 6 * 16 / 2.0**20  # 16^3: (2m + 1)^2 (m + 1) modes, m = 5
    step_1 = [row for row in rows if row[1] == "1"]
    switch = [row[0] for row in step_1].index("switch")
    sizes = [float(row[5]) for row in step_1 if row[0] in ("init", "grow")]
    added = np.diff(sizes)
    assert np.allclose(added[: switch - 1], ball, atol=1.1e-3)
    assert np.allclose(added[switch - 1:], ball / 2, atol=1.1e-3)
    assert [getattr(_SeriesBuilder, name)
            for name in ("__init__", "grow", "lower_precision", "evaluate")] == originals
    assert cli._record is record


# An RK4 run has records and snapshots only: one snapshot after each of its
# five steps, then the final field's.
def test_rk4_rows_are_records_and_snapshots(step_memory, tmp_path, capsys):
    write_snapshot = cli.write_snapshot
    config = tmp_path / "run.cfg"
    config.write_text(RK4_CONFIG, encoding="ascii")
    assert step_memory.main([str(config)]) == 0
    assert len(list((tmp_path / "out").glob("snapshot_*.liens"))) == 5
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]
            if line.split()[0] in ("record", "snapshot")]
    events = [row[0] for row in rows]
    assert events == ["record"] + ["record", "snapshot"] * 5 + ["snapshot"]
    assert [row[2] for row in rows if row[0] == "snapshot"] == [str(i) for i in range(6)]
    assert all(row[1] == "0" and float(row[3]) > 0.0 and float(row[4]) > 0.0 for row in rows)
    assert cli.write_snapshot is write_snapshot
