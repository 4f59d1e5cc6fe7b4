"""One child process of a checkout's ``liens``, measured: its exit code, its
stdout and stderr, and its CPU time and peak resident size from ``wait4``.

``same_outputs.py`` and ``series_accuracy.py`` launch every run of a
checkout through ``run_checkout``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildRun:
    exit: int
    stdout: bytes
    stderr: bytes
    cpu_s: float  # user plus system time of the child
    peak_rss_mb: float  # its ``ru_maxrss``, in MiB


def run_checkout(checkout: Path, args: tuple[str, ...], workdir: Path,
                 files: dict[str, bytes], script: str = "") -> ChildRun:
    """Write ``files`` into ``workdir``, then run ``python -m liens.cli
    ARGS`` there, or the checkout's file ``script`` with ARGS, with the
    checkout's ``src`` as ``PYTHONPATH``, and reap the child with ``wait4``.
    Its output goes to temporary files, so that neither stream can fill a
    pipe and stall it."""
    for name, data in files.items():
        (workdir / name).write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    program = [str(checkout.resolve() / script)] if script else ["-m", "liens.cli"]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, *program, *args], cwd=workdir, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildRun(proc.returncode, out.read(), err.read(),
                        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
