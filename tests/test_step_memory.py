"""``tools/step_memory.py`` on a small lie run."""

import importlib.util
import sys
from pathlib import Path

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
    assert lines[0].split() == ["event", "step", "order", "rss_mib", "peak_mib"]
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
    assert [getattr(_SeriesBuilder, name)
            for name in ("__init__", "grow", "lower_precision", "evaluate")] == originals
    assert cli._record is record
