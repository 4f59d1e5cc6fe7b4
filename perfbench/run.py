"""Benchmark of the liens package: four workloads, end-to-end metrics from
untraced child processes, per-layer metrics from a traced in-process run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It uses the package under ``src`` of
that checkout (nothing is installed), works in ``.perfbench_work`` and
leaves its detailed results and spans in ``.perfbench_out``. The last line
of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it holds the details (environment, every execution, every
problem found). Metric names and units are those of ``BENCHMARK.json``;
``METRICS.md`` describes them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check_outputs, child_command, load_refs, reference, sha256_file  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

SETUPS_PER_REPEAT = 2  # set-up executions before each full one
MIN_REPEATS = 2       # the determinism check needs two executions
CHILD_TIMEOUT_S = 150.0

# Exact counts repeat run to run; computed ones are derived from array sizes
# or orders and describe a model of the work, not a measurement.
COUNT_KINDS = {
    "lie_propagator.steps": "exact",
    "lie_propagator.halvings": "exact",
    "lie_propagator.orders_retained": "exact",
    "operator_calculus.terms": "exact",
    "grid_spectral.snapshot.bytes": "exact",
    "lie_propagator.cauchy_products_computed": "computed",
    "grid_spectral.fft.bytes_computed": "computed",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def stop_session(proc: subprocess.Popen) -> None:
    """Kill whatever is left in ``proc``'s session and wait for ``proc``;
    then give its orphans (reaped by init) a few seconds to go."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(cmd: list[str], env: dict[str, str], log: Path) -> dict:
    """Run ``cmd`` to completion through ``launch.py``: wall time from start
    to exit, and the command's own CPU time and peak RSS from the launcher's
    ``wait4``. A command killed at the timeout reports exit -9 and no usage."""
    report = log.with_name("usage.json")
    report.unlink(missing_ok=True)
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "launch.py"), str(report), *cmd],
                                stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                                start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            stop_session(proc)
        wall = time.perf_counter() - start
    if proc.returncode != 0 or not report.is_file():
        return {"wall_s": wall, "cpu_s": 0.0, "peak_rss_mb": 0.0,
                "exit": proc.returncode or -signal.SIGKILL}
    return {"wall_s": wall, **json.loads(report.read_text(encoding="ascii"))}


def gate(spec, seed: int, outdir: Path, ref) -> list[str]:
    """Problems of one execution's outputs, unreadable outputs included."""
    from liens.errors import LiensError

    try:
        return check_outputs(spec, seed, outdir, ref)
    except (OSError, ValueError, KeyError, LiensError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def execute(spec, seed: int, work: Path, name: str, env, setup: bool = False) -> dict:
    """One execution of the workload (or of its set-up) in a child process;
    its outputs are left in ``work / name``."""
    res = run_child(child_command(spec, work, name, seed, setup), env, work / "child.log")
    res["name"] = name
    res["problems"] = [] if res["exit"] == 0 else [f"exit code {res['exit']}"]
    return res


def inspect(spec, seed: int, work: Path, res: dict, ref) -> None:
    """Gate the outputs of execution ``res``, record their digests and
    remove them."""
    outdir = work / res["name"]
    if not res["problems"]:
        res["problems"] = gate(spec, seed, outdir, ref)
    res["digest"] = {f: sha256_file(outdir / f) for f in spec.outputs
                     if (outdir / f).is_file()}
    shutil.rmtree(outdir, ignore_errors=True)


def measure(workload: str, spec, seed: int, seconds: float, refs: dict, work: Path):
    """End-to-end metrics. Executions of the full workload repeat until
    ``seconds`` have passed (at least MIN_REPEATS), each gated and compared
    byte for byte with the first; set-up executions run in between, so that
    both sample the whole run rather than one stretch of it."""
    env = child_env()
    ref = reference(spec, seed, refs)
    execute(spec, seed, work, "warmup", env, setup=True)  # bytecode and file caches
    setups: list[dict] = []
    reps: list[dict] = []
    started = time.perf_counter()
    while len(reps) < MIN_REPEATS or time.perf_counter() - started < seconds:
        for _ in range(SETUPS_PER_REPEAT):
            setups.append(execute(spec, seed, work, f"setup{len(setups)}", env, setup=True))
        reps.append(execute(spec, seed, work, f"rep{len(reps)}", env))
        inspect(spec, seed, work, reps[-1], ref)
    for r in reps[1:]:
        if r["digest"] != reps[0]["digest"]:
            r["problems"].append("outputs differ from those of rep0")
    runs = setups + reps
    failed = sum(1 for r in runs if r["problems"])
    metrics = {
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "setup_s": statistics.median(r["cpu_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "pass_frac": 1.0 - failed / len(runs),
    }
    return metrics, runs


def trace(workload: str, spec, seed: int, refs: dict, work: Path):
    """Per-layer metrics: one untraced child execution, then the traced
    in-process run; both are gated."""
    from tracing import Tracer, trace_simulate, trace_symbolic

    untraced = execute(spec, seed, work, "untraced", child_env())
    tr = Tracer()
    run_fn = trace_simulate if spec.kind == "simulate" else trace_symbolic
    out = run_fn(spec, seed, work / "traced", tr)
    tr.write(OUT_DIR / f"spans-{workload}-s{seed}.json")
    ref = reference(spec, seed, refs)
    traced = {"name": "traced", "wall_s": out["wall_s"], "problems": []}
    for res in (untraced, traced):
        inspect(spec, seed, work, res, ref)
    values = dict(out["values"])
    values["cli.cpu_s"] = untraced["cpu_s"]
    values["cli.wall_s"] = untraced["wall_s"]
    values["bench.traced_wall_s"] = out["wall_s"]
    values["bench.trace_overhead_frac"] = out["wall_s"] / untraced["wall_s"] - 1.0
    return values, [untraced, traced]


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text(encoding="ascii").strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="ascii").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cache_bytes() -> dict[str, list[int]]:
    """Cache sizes reported by lscpu, in bytes: [one instance, all instances]."""
    try:
        out = subprocess.run(["lscpu", "-B", "-C=NAME,ONE-SIZE,ALL-SIZE"],
                             capture_output=True, text=True, timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in out.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 3 and parts[1].isdigit() and parts[2].isdigit():
            sizes[parts[0]] = [int(parts[1]), int(parts[2])]
    return sizes


def environment(spec) -> dict:
    import numpy
    import scipy

    from liens.grid_spectral import fft_worker_count

    caches = _cache_bytes()
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "LIENS_THREADS": os.environ.get("LIENS_THREADS"),
        "fft_workers": fft_worker_count(),
        "git_commit": _git_commit(),
        "field_bytes": spec.field_bytes,
        "cache_bytes": {level: caches.get(level) for level in ("L2", "L3")},
    }
    for level in ("L2", "L3"):
        if level in caches:
            env[f"field_over_{level.lower()}"] = spec.field_bytes / caches[level][1]
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(workload: str, seed: int, seconds: float, traced: bool, spec=None,
        refs: dict | None = None) -> dict:
    """Measure one workload; ``spec`` and ``refs`` replace the defined
    workload and its stored references (the benchmark's tests use this)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}
    spec = spec or WORKLOADS[workload]
    if refs is None:
        refs = load_refs().get(workload, {})
    work = WORK_DIR / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if traced:
            values, runs = trace(workload, spec, seed, refs, work)
        else:
            values, runs = measure(workload, spec, seed, seconds, refs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    failed = sum(1 for r in runs if r["problems"])
    detail = {
        "workload": workload, "seed": seed, "trace": int(traced),
        "environment": environment(spec),
        "count_kinds": COUNT_KINDS if traced else {},
        "executions": runs,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    (OUT_DIR / f"result-{workload}-s{seed}-trace{int(traced)}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1), encoding="ascii")
    return {"detail": detail, "result": result}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "liens" / "cli.py").is_file():
        print(f"perfbench: no liens sources under {ROOT / 'src'}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
