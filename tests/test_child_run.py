"""The measured child launch of ``tools/child_run.py``."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "child_run.py"

# Touches 64 MiB, spins for 0.2 s of CPU, writes more than a pipe's buffer
# to stdout, names the liens it imports on stderr and exits 3.
BURN = b"""import sys, time
import liens
block = bytearray(64 << 20)
end = time.process_time() + 0.2
while time.process_time() < end:
    pass
sys.stdout.write("x" * (1 << 20))
sys.stderr.write(liens.__file__)
sys.exit(3)
"""


@pytest.fixture(scope="module")
def child_run():
    spec = importlib.util.spec_from_file_location("child_run_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for the dataclass's annotations
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


# The child runs in the case's directory with the checkout's ``src`` on its
# path; its exit code and both streams come back whole, with its own CPU
# time and peak RSS.
def test_streams_exit_and_usage(child_run, tmp_path):
    done = child_run.run_checkout(ROOT, (), tmp_path, {"burn.py": BURN},
                                  script=str(tmp_path / "burn.py"))
    assert done.exit == 3
    assert done.stdout == b"x" * (1 << 20)
    assert Path(done.stderr.decode()).resolve() == ROOT / "src" / "liens" / "__init__.py"
    assert 0.2 <= done.cpu_s < 5.0
    assert 64.0 <= done.peak_rss_mb < 1024.0


# Without a script the child is the checkout's ``liens.cli``.
def test_default_program_is_the_cli(child_run, tmp_path):
    done = child_run.run_checkout(ROOT, ("spectrum", "missing.liens"), tmp_path, {})
    assert done.exit != 0 and b"missing.liens" in done.stderr
