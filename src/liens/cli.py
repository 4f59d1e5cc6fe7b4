"""Command-line front end.

Commands
--------
``liens simulate <config>``
    Run one simulation described by a flat ``key = value`` config with
    ``[section]`` headers (grammar below); writes ``series.csv``,
    ``spectrum_final.csv``, a final field snapshot, and optional periodic
    snapshots into the configured output directory.
``liens verify [--level quick|full]``
    Run the acceptance checks and print a pass/fail table.
``liens burgers-check [--order N] [--n N]``
    Cross-check the symbolic generator powers against the 1-D Burgers
    series recursion and an RK4 reference.
``liens spectrum <snapshot>``
    Print the shell-averaged energy spectrum of a stored field as CSV; exit
    2 when the snapshot is unusable or its shell energies overflow.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(including an ``output_dir`` that cannot be created and a grid whose
initial field cannot be allocated), 3 propagation failure
(analyticity-margin collapse or a state, the initial one included, that
stops being finite; the last field with a finite record, or the start, is
flushed before exiting, and the failure message is all that stderr shows).

Config grammar
--------------
Lines are blank, comments (``# ...``), section headers (``[grid]``), or
``key = value`` pairs. Unknown sections or keys are rejected. Sections:

[grid]    dim (2|3), n (power of two >= 8, with dim * n^dim float64 values
          representable as one array), l (finite box length > 0,
          default 2*pi)
[fluid]   nu (finite, >= 0)
[initial] kind = taylor_green_2d | taylor_green_3d_embedded | beltrami_abc
                 | random | snapshot
          amplitude (analytic/random kinds, default 1.0)
          abc_a, abc_b, abc_c (beltrami, default 1.0)
          seed, peak_k (random)
          path (snapshot; file must exist)
[run]     t_end (finite, >= 0), integrator = lie | rk4,
          tol (finite > 0, lie only, default 1e-10),
          max_order (>= 0, lie only, default 30),
          rk4_dt (finite > 0, rk4 only, required),
          output_dir (default "out"), snapshot_cadence (>= 0, default 0;
          0 writes only the final snapshot)
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .burgers1d import CROSS_CHECK_NU, cross_check
from .diagnostics import (
    TimeSeriesRecord,
    balance_residuals,
    energy,
    enstrophy_norm,
    format_float,
    shell_spectrum,
    spectrum_csv,
    write_series_csv,
)
from .errors import ConfigError, LiensError, StabilityError
from .grid_spectral import (
    TWO_PI,
    Grid,
    RealVectorField,
    SpectralVectorField,
    dealias,
    div_max,
    read_snapshot,
    to_spectral,
    write_snapshot,
)
from .leray import leray_project
from .lie_propagator import DEFAULT_MAX_ORDER, DEFAULT_TOL, step as lie_step, steps
from .reference_oracles import AnalyticFlow, analytic_field, random_divfree, rk4_advance
from .verification import format_table, run_acceptance

_ANALYTIC_KINDS = ("taylor_green_2d", "taylor_green_3d_embedded", "beltrami_abc")
_SECTIONS = ("grid", "fluid", "initial", "run")


@dataclass(frozen=True)
class InitialSpec:
    kind: str
    amplitude: float = 1.0
    abc: tuple[float, float, float] = (1.0, 1.0, 1.0)
    seed: int = 0
    peak_k: int = 0
    path: Path | None = None


@dataclass(frozen=True)
class RunConfig:
    dim: int
    n: int
    l: float
    nu: float
    initial: InitialSpec
    t_end: float
    integrator: str
    tol: float
    max_order: int
    rk4_dt: float | None
    output_dir: Path
    snapshot_cadence: int


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _raw_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            if current in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {current}.{key}")
        sections[current][key] = value
    return sections


class _SectionReader:
    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = dict(values)

    def take(self, key: str, conv, default=..., check=None, describe=""):
        if key not in self.values:
            if default is ...:
                raise ConfigError(f"{self.name}.{key} is required")
            return default
        raw = self.values.pop(key)
        try:
            value = conv(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.name}.{key}: cannot parse {raw!r}") from exc
        if check is not None and not check(value):
            raise ConfigError(f"{self.name}.{key} {describe} (got {raw})")
        return value

    def finish(self):
        if self.values:
            leftover = ", ".join(f"{self.name}.{k}" for k in sorted(self.values))
            raise ConfigError(f"unknown key(s): {leftover}")


def parse_config(text: str, base_dir: Path | None = None) -> RunConfig:
    sections = _raw_sections(text)
    for required in _SECTIONS:
        if required not in sections:
            raise ConfigError(f"missing section [{required}]")

    grid_sec = _SectionReader("grid", sections["grid"])
    dim = grid_sec.take("dim", int, check=lambda v: v in (2, 3), describe="must be 2 or 3")
    n = grid_sec.take(
        "n",
        int,
        check=lambda v: v >= 8 and (v & (v - 1)) == 0,
        describe="must be a power of two >= 8",
    )
    if dim * n**dim * 8 > np.iinfo(np.intp).max:
        raise ConfigError(
            f"grid.n = {n} is too large: a {dim}-D velocity field of {n}^{dim} "
            "float64 values cannot be represented as one array"
        )
    l = grid_sec.take(
        "l", float, default=TWO_PI, check=lambda v: v > 0 and math.isfinite(v),
        describe="must be positive and finite",
    )
    grid_sec.finish()

    fluid_sec = _SectionReader("fluid", sections["fluid"])
    nu = fluid_sec.take(
        "nu", float, check=lambda v: v >= 0 and math.isfinite(v),
        describe="must be finite and nonnegative",
    )
    fluid_sec.finish()

    init_sec = _SectionReader("initial", sections["initial"])
    kind = init_sec.take(
        "kind",
        str,
        check=lambda v: v in _ANALYTIC_KINDS + ("random", "snapshot"),
        describe="must be one of " + ", ".join(_ANALYTIC_KINDS + ("random", "snapshot")),
    )
    if kind in _ANALYTIC_KINDS:
        amplitude = init_sec.take("amplitude", float, default=1.0,
                                  check=math.isfinite, describe="must be finite")
        abc = (1.0, 1.0, 1.0)
        if kind == "beltrami_abc":
            abc = tuple(
                init_sec.take(key, float, default=1.0, check=math.isfinite,
                              describe="must be finite")
                for key in ("abc_a", "abc_b", "abc_c")
            )
        initial = InitialSpec(kind=kind, amplitude=amplitude, abc=abc)
        flow_dim = 2 if kind == "taylor_green_2d" else 3
        if flow_dim != dim:
            raise ConfigError(f"initial.kind {kind} needs grid.dim = {flow_dim}")
        if not math.isclose(l, TWO_PI, rel_tol=1e-12):
            raise ConfigError(f"initial.kind {kind} needs grid.l = 2*pi, got {l}")
    elif kind == "random":
        initial = InitialSpec(
            kind=kind,
            seed=init_sec.take("seed", int, check=lambda v: v >= 0,
                               describe="must be nonnegative"),
            peak_k=init_sec.take(
                "peak_k", int, check=lambda v: 1 <= v <= n // 3,
                describe=f"must lie in 1..{n // 3} (inside the dealias ball)",
            ),
            amplitude=init_sec.take("amplitude", float, default=1.0,
                                    check=lambda v: v > 0 and math.isfinite(v),
                                    describe="must be positive and finite"),
        )
    else:
        path = Path(init_sec.take("path", str))
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if not path.is_file():
            raise ConfigError(f"initial.path does not exist: {path}")
        initial = InitialSpec(kind=kind, path=path)
    init_sec.finish()

    run_sec = _SectionReader("run", sections["run"])
    t_end = run_sec.take("t_end", float, check=lambda v: v >= 0 and math.isfinite(v),
                         describe="must be finite and nonnegative")
    integrator = run_sec.take("integrator", str, check=lambda v: v in ("lie", "rk4"),
                              describe="must be lie or rk4")
    if integrator == "lie":
        tol = run_sec.take("tol", float, default=DEFAULT_TOL,
                           check=lambda v: v > 0 and math.isfinite(v),
                           describe="must be positive and finite")
        max_order = run_sec.take("max_order", int, default=DEFAULT_MAX_ORDER,
                                 check=lambda v: v >= 0, describe="must be nonnegative")
        rk4_dt = None
        if "rk4_dt" in run_sec.values:
            raise ConfigError("run.rk4_dt is only valid with integrator = rk4")
    else:
        rk4_dt = run_sec.take("rk4_dt", float, check=lambda v: v > 0 and math.isfinite(v),
                              describe="must be positive and finite")
        for key in ("tol", "max_order"):
            if key in run_sec.values:
                raise ConfigError(f"run.{key} is only valid with integrator = lie")
        tol, max_order = DEFAULT_TOL, DEFAULT_MAX_ORDER
    output_dir = Path(run_sec.take("output_dir", str, default="out"))
    if base_dir is not None and not output_dir.is_absolute():
        output_dir = base_dir / output_dir
    snapshot_cadence = run_sec.take("snapshot_cadence", int, default=0,
                                    check=lambda v: v >= 0, describe="must be >= 0")
    run_sec.finish()

    return RunConfig(
        dim=dim, n=n, l=l, nu=nu, initial=initial, t_end=t_end,
        integrator=integrator, tol=tol, max_order=max_order, rk4_dt=rk4_dt,
        output_dir=output_dir, snapshot_cadence=snapshot_cadence,
    )


def load_config(path: Path) -> RunConfig:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=path.parent)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _initial_field(config: RunConfig, grid: Grid) -> SpectralVectorField:
    init = config.initial
    if init.kind in _ANALYTIC_KINDS:
        flow = AnalyticFlow(init.kind, amplitude=init.amplitude, abc=init.abc)
        return analytic_field(flow, 0.0, config.nu, grid)
    if init.kind == "random":
        return random_divfree(init.seed, grid, init.peak_k, init.amplitude)
    field = read_snapshot(init.path)
    if field.grid != grid:
        raise ConfigError(
            f"initial.path grid {field.grid} does not match configured grid {grid}"
        )
    if isinstance(field, RealVectorField):
        return to_spectral(field)
    return field


def _record(t: float, v: SpectralVectorField, order_used: int, dt: float) -> TimeSeriesRecord:
    return TimeSeriesRecord(
        t=t,
        energy=energy(v),
        enstrophy=enstrophy_norm(v),
        div_max=div_max(v),
        balance_residual=0.0,
        order_used=order_used,
        dt=dt,
    )


def _finalize_outputs(config: RunConfig, records, final_field) -> None:
    residuals = balance_residuals(records, config.nu)
    filled = [replace(r, balance_residual=res) for r, res in zip(records, residuals)]
    write_series_csv(config.output_dir / "series.csv", filled)
    (config.output_dir / "spectrum_final.csv").write_text(spectrum_csv(final_field),
                                                          encoding="ascii")
    write_snapshot(config.output_dir / "field_final.liens", final_field)


# numpy's overflow warnings would name source files; an overflowing state is
# reported once, by the record or step check that rejects it.
@np.errstate(all="ignore")
def cmd_simulate(config_path: Path) -> int:
    try:
        config = load_config(config_path)
        grid = Grid(dim=config.dim, n=config.n, length=config.l)
        try:
            u_raw = _initial_field(config, grid)
        except MemoryError as exc:
            raise ConfigError(
                f"grid.n: cannot allocate the initial field at n = {config.n}: {exc}"
            ) from exc
        if config.integrator == "lie":
            def advance(v, remaining):
                return lie_step(v, config.nu, remaining, tol=config.tol,
                                max_order=config.max_order)
        else:
            advance = rk4_advance(grid, config.nu, config.rk4_dt)
        try:
            config.output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"run.output_dir: {exc}") from exc
    except StabilityError as exc:
        print(f"config error: run.rk4_dt: {exc}", file=sys.stderr)
        return 2
    except LiensError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # Initial data is truncated to the dealias ball and Leray-projected;
    # the combined relative change is reported.
    u = leray_project(dealias(u_raw))
    raw_norm = u_raw.l2_norm()
    delta = (u - u_raw).l2_norm() / raw_norm if raw_norm else 0.0
    print(f"initial projection delta: {format_float(delta)}")
    del u_raw  # a whole field, not needed again

    records = []
    cadence = config.snapshot_cadence
    current = u  # the last field with a record, or the start
    try:
        records.append(_record(0.0, u, 0, 0.0))
        for number, (t, v, stats) in enumerate(steps(u, config.t_end, advance), 1):
            records.append(_record(t, v, stats.order_used, stats.dt))
            current = v
            if cadence and number % cadence == 0:
                write_snapshot(
                    config.output_dir / f"snapshot_{number // cadence:06d}.liens", current
                )
    except LiensError as exc:
        print(f"propagation failure: {exc}", file=sys.stderr)
        write_snapshot(config.output_dir / "field_last.liens", current)
        _finalize_outputs(config, records, current)
        return 3

    _finalize_outputs(config, records, current)
    print(f"wrote {config.output_dir / 'series.csv'} ({len(records)} rows)")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(level: str) -> int:
    results = run_acceptance(level)
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# burgers-check
# ---------------------------------------------------------------------------


def cmd_burgers_check(order: int, n: int) -> int:
    if order < 0 or order > 8:
        print("burgers-check: --order must lie in 0..8", file=sys.stderr)
        return 2
    if n < 8 or (n & (n - 1)) != 0:
        print("burgers-check: --n must be a power of two >= 8", file=sys.stderr)
        return 2
    symbolic, truncation = cross_check(order, n)

    ok = True
    print(f"symbolic generator powers vs series recursion (n={n}, nu={CROSS_CHECK_NU})")
    print(f"{'n':>2}  {'rel error':>12}  bound      status")
    for k, rel in enumerate(symbolic):
        passed = rel <= 1e-8
        ok &= passed
        print(f"{k:>2}  {rel:>12.3e}  1.0e-08    {'PASS' if passed else 'FAIL'}")

    print("truncated series vs rk4 at t=0.1")
    print(f"{'N':>2}  {'rel error':>12}  monotone")
    prev = None
    monotone = True
    for trunc, err in enumerate(truncation, 2):
        mono = prev is None or err < prev
        monotone &= mono
        print(f"{trunc:>2}  {err:>12.3e}  {'yes' if mono else 'NO'}")
        prev = err
    ok &= monotone and truncation[-1] <= 1e-8

    if not ok:
        if 2 * (order + 1) + 2 > n // 2:
            print(
                f"FAIL: spectral under-resolution: order {order} coefficients "
                f"need bandwidth ~{2 * (order + 1) + 2} but the grid resolves "
                f"|k| <= {n // 2}; rerun with a larger --n.",
                file=sys.stderr,
            )
        else:
            print("FAIL: agreement bounds violated", file=sys.stderr)
        return 1
    print("all bounds hold")
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


# As in cmd_simulate: an overflowing field is reported once, by the check
# below or the reader, not by numpy warnings that name source files.
@np.errstate(all="ignore")
def cmd_spectrum(snapshot: Path) -> int:
    try:
        field = read_snapshot(snapshot)
    except (LiensError, OSError) as exc:
        print(f"spectrum: {exc}", file=sys.stderr)
        return 2
    if isinstance(field, RealVectorField):
        field = to_spectral(field)
    if not all(math.isfinite(e) for _, e in shell_spectrum(field)):
        print("spectrum: the shell energies overflow float64", file=sys.stderr)
        return 2
    print(spectrum_csv(field), end="")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="liens",
        description="Pseudospectral incompressible Navier-Stokes with a "
        "Taylor-series propagator, plus its verification tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation from a config file")
    p_sim.add_argument("config", type=Path)

    p_ver = sub.add_parser("verify", help="run the acceptance checks")
    p_ver.add_argument("--level", choices=("quick", "full"), default="quick")

    p_bur = sub.add_parser("burgers-check",
                           help="symbolic vs numeric cross-check on 1-D Burgers")
    p_bur.add_argument("--order", type=int, default=5)
    p_bur.add_argument("--n", type=int, default=64)

    p_spec = sub.add_parser("spectrum", help="print the shell spectrum of a snapshot")
    p_spec.add_argument("snapshot", type=Path)

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.config)
    if args.command == "verify":
        return cmd_verify(args.level)
    if args.command == "burgers-check":
        return cmd_burgers_check(args.order, args.n)
    return cmd_spectrum(args.snapshot)


if __name__ == "__main__":
    sys.exit(main())
