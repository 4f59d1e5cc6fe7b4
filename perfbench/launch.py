"""Run one command and write its own CPU time, peak RSS and exit code.

    python3 launch.py <report.json> <command> [args...]

A child's ``ru_maxrss`` starts from the resident set of the process that
forked it. Forked from the benchmark, which holds numpy, scipy and the
references, a small command would report the benchmark's memory; forked from
this launcher it reports its own (plus at most the launcher's ~10 MB).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    report, cmd = Path(argv[0]), argv[1:]
    proc = subprocess.Popen(cmd)
    _, status, usage = os.wait4(proc.pid, 0)
    report.write_text(json.dumps({
        "exit": os.waitstatus_to_exitcode(status),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
