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
(including an ``output_dir`` that cannot be created, an initial field that
cannot be allocated or whose norms overflow float64, and a ``burgers-check
--n`` whose samples cannot be allocated), 3 propagation failure
(analyticity-margin collapse or a state that stops being finite; the last
field with a finite record, or the start, is flushed before exiting, and
the failure message is all that stderr shows).

Config grammar
--------------
Lines are blank, comments (``# ...``), section headers (``[grid]``), or
``key = value`` pairs. Unknown sections or keys are rejected. Sections:

[grid]    dim (2|3), n (power of two >= 8, with dim * n^dim float64 values
          representable as one array), l (box length, default 2*pi; the
          volume l^dim and the largest |k|^2 must be finite positive floats;
          the spectrum bins by the mode index |k| l / 2 pi, so it has
          round(sqrt(dim) n / 2) + 1 rows for any l)
[fluid]   nu (finite, >= 0)
[initial] kind = taylor_green_2d | taylor_green_3d_embedded | beltrami_abc
                 | random | snapshot
          amplitude (taylor_green_* and random kinds, default 1.0)
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
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

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
from .errors import (
    ConfigError,
    LiensError,
    StabilityError,
    finite,
    finite_nonnegative,
    nonnegative_count,
    positive_finite,
    rule,
)
from .grid_spectral import (
    TWO_PI,
    Grid,
    RealVectorField,
    SpectralVectorField,
    dealias,
    div_max,
    grid_dim,
    grid_points,
    read_snapshot,
    to_spectral,
    write_snapshot,
)
from .leray import leray_project
from .lie_propagator import DEFAULT_MAX_ORDER, DEFAULT_TOL, lie_advance, steps
from .reference_oracles import (
    ANALYTIC_KINDS,
    AnalyticFlow,
    analytic_field,
    peak_in_ball,
    random_divfree,
    rk4_advance,
)

_SECTIONS = ("grid", "fluid", "initial", "run")
_INTEGRATOR_KEYS = {"tol": "lie", "max_order": "lie", "rk4_dt": "rk4"}


@dataclass(frozen=True)
class InitialSpec:
    """``[initial]``: ``make()`` builds the field; ``size`` names the keys setting its size."""

    make: Callable[[], SpectralVectorField]
    size: str


@dataclass(frozen=True)
class RunConfig:
    """A parsed config. ``advance()`` builds the run's ``advance`` for ``steps``;
    building it allocates, so parsing only names the call."""

    grid: Grid
    nu: float
    initial: InitialSpec
    t_end: float
    advance: Callable[[], Callable]
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


def _one_of(choices: tuple[str, ...]):
    return rule(f"must be one of {', '.join(choices)}", choices.__contains__)


def _grid_n(dim: int):
    """``grid_points``, and a velocity field that numpy can hold as one array."""
    fits = rule(f"must keep {dim} * n^{dim} float64 values in one array",
                lambda v: dim * v**dim * 8 <= np.iinfo(np.intp).max)
    return lambda name, value: fits(name, grid_points(name, value))


# The cap bounds cost, not accuracy: at n 64 (2-core VM) ``cross_check`` takes
# 0.28 s at order 8, 0.59 s at 12 and 1.22 s at 14 (about 1.5x per order), its
# symbolic errors <= 5.3e-15 throughout. The resolution rule that
# ``cmd_burgers_check`` prints admits order n/4 - 2, which has no bound in n.
_burgers_order = rule("must lie in 0..8", lambda v: 0 <= v <= 8)


def _config_rule(check, name: str, value):
    """``check(name, value)``, its ``ValueError`` raised as a ``ConfigError``."""
    try:
        return check(name, value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


class _SectionReader:
    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = dict(values)

    def take(self, key: str, conv, rule=None, default=...):
        """``key`` parsed by ``conv`` and held to ``rule("section.key", value)``;
        ``default``, unchecked, when the key is absent."""
        if key not in self.values:
            if default is ...:
                raise ConfigError(f"{self.name}.{key} is required")
            return default
        raw = self.values.pop(key)
        try:
            value = conv(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.name}.{key}: cannot parse {raw!r}") from exc
        return value if rule is None else _config_rule(rule, f"{self.name}.{key}", value)

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
    dim = grid_sec.take("dim", int, grid_dim)
    n = grid_sec.take("n", int, _grid_n(dim))
    l = grid_sec.take("l", float, positive_finite, default=TWO_PI)
    grid_sec.finish()
    try:
        grid = Grid(dim=dim, n=n, length=l)
    except ValueError as exc:
        raise ConfigError(f"grid.l: {exc}") from exc

    fluid_sec = _SectionReader("fluid", sections["fluid"])
    nu = fluid_sec.take("nu", float, finite_nonnegative)
    fluid_sec.finish()

    init_sec = _SectionReader("initial", sections["initial"])
    kinds = ANALYTIC_KINDS + ("random", "snapshot")
    kind = init_sec.take("kind", str, _one_of(kinds))
    amplitude_size = "initial.amplitude: the norms of the field of amplitude {}"
    if kind in ANALYTIC_KINDS:
        amplitude, abc = 1.0, (1.0, 1.0, 1.0)
        if kind == "beltrami_abc":  # abc sets its size; it has no amplitude
            abc = tuple(
                init_sec.take(key, float, finite, default=1.0)
                for key in ("abc_a", "abc_b", "abc_c")
            )
            size = f"initial.abc_a, abc_b, abc_c: the norms of the field with abc = {abc}"
        else:
            amplitude = init_sec.take("amplitude", float, finite, default=1.0)
            size = amplitude_size.format(amplitude)
        flow = AnalyticFlow(kind, amplitude, abc)
        _config_rule(partial(flow.check_grid, length="grid.l"), "initial.kind", grid)
        make = partial(analytic_field, flow, 0.0, nu, grid)
    elif kind == "random":
        seed = init_sec.take("seed", int, nonnegative_count)
        peak_k = init_sec.take("peak_k", int, peak_in_ball(grid))
        amplitude = init_sec.take("amplitude", float, positive_finite, default=1.0)
        make = partial(random_divfree, seed, grid, peak_k, amplitude)
        size = amplitude_size.format(amplitude)
    else:
        path = Path(init_sec.take("path", str))
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if not path.is_file():
            raise ConfigError(f"initial.path does not exist: {path}")
        make = partial(_snapshot_field, path, grid)
        size = f"initial.path: the norms of the field in {path}"
    initial = InitialSpec(make, size)
    init_sec.finish()

    run_sec = _SectionReader("run", sections["run"])
    t_end = run_sec.take("t_end", float, finite_nonnegative)
    integrator = run_sec.take("integrator", str, _one_of(("lie", "rk4")))
    if integrator == "lie":
        tol = run_sec.take("tol", float, positive_finite, default=DEFAULT_TOL)
        max_order = run_sec.take("max_order", int, nonnegative_count,
                                 default=DEFAULT_MAX_ORDER)
        advance = partial(lie_advance, grid, nu, tol=tol, max_order=max_order)
    else:
        dt = run_sec.take("rk4_dt", float, positive_finite)
        advance = partial(rk4_advance, grid, nu, dt=dt)
    for key, owner in _INTEGRATOR_KEYS.items():  # the chosen integrator's keys are taken
        if key in run_sec.values:
            raise ConfigError(f"run.{key} is only valid with integrator = {owner}")
    output_dir = Path(run_sec.take("output_dir", str, default="out"))
    if base_dir is not None and not output_dir.is_absolute():
        output_dir = base_dir / output_dir
    snapshot_cadence = run_sec.take("snapshot_cadence", int, nonnegative_count, default=0)
    run_sec.finish()

    return RunConfig(
        grid=grid, nu=nu, initial=initial, t_end=t_end, advance=advance,
        output_dir=output_dir, snapshot_cadence=snapshot_cadence,
    )


def load_config(path: Path) -> RunConfig:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=path.parent)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _spectral(field: RealVectorField | SpectralVectorField) -> SpectralVectorField:
    return to_spectral(field) if isinstance(field, RealVectorField) else field


def _snapshot_field(path: Path, grid: Grid) -> SpectralVectorField:
    """The snapshot at ``path`` in spectral form, if it is on the configured ``grid``."""
    field = read_snapshot(path)
    if field.grid != grid:
        raise ConfigError(f"initial.path grid {field.grid} does not match configured grid {grid}")
    return _spectral(field)


def _initial_field(config: RunConfig) -> SpectralVectorField:
    """The configured initial field; a field whose norms overflow float64 is
    a config error that names the key setting its size."""
    field = config.initial.make()
    if not (math.isfinite(field.l2_norm()) and math.isfinite(enstrophy_norm(field))):
        raise ConfigError(f"{config.initial.size} overflow float64")
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
    (config.output_dir / "spectrum_final.csv").write_text(
        spectrum_csv(shell_spectrum(final_field)), encoding="ascii"
    )
    write_snapshot(config.output_dir / "field_final.liens", final_field)


# numpy's overflow warnings would name source files; an overflowing state is
# reported once, by the record or step check that rejects it.
@np.errstate(all="ignore")
def cmd_simulate(config_path: Path) -> int:
    try:
        config = load_config(config_path)
        try:
            u_raw = _initial_field(config)
        except MemoryError as exc:
            raise ConfigError(
                f"grid.n: cannot allocate the initial field at n = {config.grid.n}: {exc}"
            ) from exc
        advance = config.advance()
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
    from .verification import format_table, run_acceptance  # not needed by simulate

    results = run_acceptance(level)
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# burgers-check
# ---------------------------------------------------------------------------


def cmd_burgers_check(order: int, n: int) -> int:
    from .burgers1d import CROSS_CHECK_BOUND, CROSS_CHECK_NU, cross_check  # not needed by simulate
    from .verification import criterion_8_linear_representation  # not needed by simulate

    try:
        _burgers_order("--order", order)
        grid_points("--n", n)
    except ValueError as exc:
        print(f"burgers-check: {exc}", file=sys.stderr)
        return 2
    try:
        symbolic, truncation = cross_check(order, n)
    except MemoryError as exc:
        print(f"burgers-check: --n {n}: cannot allocate the samples: {exc}", file=sys.stderr)
        return 2

    # The PASS/FAIL and monotone columns repeat criterion 8's checks row by
    # row for display; the exit status below is criterion 8's own verdict.
    print(f"symbolic generator powers vs series recursion (n={n}, nu={CROSS_CHECK_NU})")
    print(f"{'n':>2}  {'rel error':>12}  bound      status")
    for k, rel in enumerate(symbolic):
        status = "PASS" if rel <= CROSS_CHECK_BOUND else "FAIL"
        print(f"{k:>2}  {rel:>12.3e}  {CROSS_CHECK_BOUND:.1e}    {status}")

    print("truncated series vs rk4 at t=0.1")
    print(f"{'N':>2}  {'rel error':>12}  monotone")
    for trunc, (prev, err) in enumerate(zip([None, *truncation], truncation), 2):
        print(f"{trunc:>2}  {err:>12.3e}  {'yes' if prev is None or err <= prev else 'NO'}")

    if not all(r.passed for r in criterion_8_linear_representation(symbolic, truncation)):
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
        spectrum = shell_spectrum(_spectral(read_snapshot(snapshot)))
    except (LiensError, OSError, ValueError) as exc:
        print(f"spectrum: {exc}", file=sys.stderr)
        return 2
    if not all(math.isfinite(e) for _, e in spectrum):
        print("spectrum: the shell energies overflow float64", file=sys.stderr)
        return 2
    print(spectrum_csv(spectrum), end="")
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
