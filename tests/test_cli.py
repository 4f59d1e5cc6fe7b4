"""Config parsing, the simulate pipeline, and the auxiliary subcommands."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liens
from liens import (
    AnalyticFlow,
    Grid,
    RealVectorField,
    analytic_field,
    dealias,
    energy,
    leray_project,
    propagate,
    random_divfree,
    rk4_propagate,
    to_spectral,
)
from liens.cli import cmd_simulate, load_config, main, parse_config
from liens.diagnostics import read_series_csv
from liens.errors import ConfigError
from liens.grid_spectral import read_snapshot, write_snapshot

from conftest import random_real_field

TG_CONFIG = """
# Taylor-Green decay
[grid]
dim = 2
n = {n}

[fluid]
nu = 0.1

[initial]
kind = taylor_green_2d

[run]
t_end = {t_end}
integrator = lie
tol = 1e-10
output_dir = {out}
snapshot_cadence = {cadence}
"""

RANDOM_RK4_CONFIG = """
[grid]
dim = 2
n = 32

[fluid]
nu = 0.05

[initial]
kind = random
seed = 5
peak_k = 3
amplitude = 1.0

[run]
t_end = 0.05
integrator = rk4
rk4_dt = 1e-3
output_dir = {out}
"""

# Inviscid RK4 far past its CFL limit: the energy overflows at the second step.
BLOW_UP_CONFIG = """
[grid]
dim = 2
n = 32

[fluid]
nu = 0

[initial]
kind = random
seed = 3
peak_k = 4
amplitude = 50

[run]
t_end = 2
integrator = rk4
rk4_dt = 0.5
output_dir = {out}
"""

# So large that the series overflows: the first lie step halves 20 times.
LARGE_AMPLITUDE_CONFIG = """
[grid]
dim = 2
n = 32

[fluid]
nu = 0.01

[initial]
kind = random
seed = 3
peak_k = 3
amplitude = 1e7

[run]
t_end = 1
integrator = lie
output_dir = {out}
"""

BELTRAMI_CONFIG = TG_CONFIG.format(n=16, t_end=0.1, out="{out}", cadence=0).replace(
    "dim = 2", "dim = 3"
).replace("kind = taylor_green_2d", "kind = beltrami_abc")


# So large that the energy of the initial field overflows.
INITIAL_OVERFLOW_CONFIG = LARGE_AMPLITUDE_CONFIG.replace("amplitude = 1e7", "amplitude = 1e160")


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_full_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path, TG_CONFIG.format(n=64, t_end=1.0, out="out", cadence=0))
        config = load_config(cfg)
        assert config.dim == 2 and config.n == 64
        assert config.nu == 0.1
        assert config.initial.kind == "taylor_green_2d"
        assert config.t_end == 1.0
        assert config.integrator == "lie"
        assert config.tol == 1e-10 and config.max_order == 30
        assert config.output_dir == tmp_path / "out"
        assert math.isclose(config.l, 2 * math.pi)

    @pytest.mark.parametrize(
        "mutation,needle",
        [
            (("n = 64", "n = 10"), "grid.n"),
            (("dim = 2", "dim = 4"), "grid.dim"),
            (("nu = 0.1", "nu = -0.1"), "fluid.nu"),
            (("kind = taylor_green_2d", "kind = vortex"), "initial.kind"),
            (("t_end = 1.0", "t_end = -1"), "run.t_end"),
            (("integrator = lie", "integrator = euler"), "run.integrator"),
            (("tol = 1e-10", "tol = 0"), "run.tol"),
            (("n = 64", "n = 64\nl = 3.0"), "grid.l"),
            (("tol = 1e-10", "tol = inf"), "run.tol"),
            (("tol = 1e-10", "tol = nan"), "run.tol"),
            (("integrator = lie\ntol = 1e-10", "integrator = rk4\nrk4_dt = inf"), "run.rk4_dt"),
            (("integrator = lie\ntol = 1e-10", "integrator = rk4\nrk4_dt = nan"), "run.rk4_dt"),
            (("nu = 0.1", "nu = nan"), "fluid.nu must be finite and nonnegative"),
            (("t_end = 1.0", "t_end = inf"), "run.t_end must be finite and nonnegative"),
            (("n = 64", "n = 64\nl = inf"), "grid.l must be positive and finite"),
        ],
    )
    def test_invalid_values_name_the_key(self, mutation, needle):
        text = TG_CONFIG.format(n=64, t_end=1.0, out="out", cadence=0)
        old, new = mutation
        with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
            parse_config(text.replace(old, new))

    @pytest.mark.parametrize(
        "text,mutation,needle",
        [
            (RANDOM_RK4_CONFIG, ("seed = 5", "seed = -1"), "initial.seed"),
            (RANDOM_RK4_CONFIG, ("amplitude = 1.0", "amplitude = inf"), "initial.amplitude"),
            (BELTRAMI_CONFIG, ("kind = beltrami_abc", "kind = beltrami_abc\nabc_a = nan"),
             "initial.abc_a"),
        ],
        ids=["seed", "amplitude", "abc_a"],
    )
    def test_invalid_initial_values_name_the_key(self, text, mutation, needle):
        old, new = mutation
        with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
            parse_config(text.format(out="out").replace(old, new))

    def test_largest_representable_grid(self):
        # 2 * n^2 float64 values fit in a numpy array up to n = 2^29.
        text = TG_CONFIG.format(n=64, t_end=1.0, out="out", cadence=0)
        assert parse_config(text.replace("n = 64", f"n = {2**29}")).n == 2**29
        with pytest.raises(ConfigError, match=r"grid\.n"):
            parse_config(text.replace("n = 64", f"n = {2**30}"))

    def test_unknown_key_rejected(self):
        text = TG_CONFIG.format(n=64, t_end=1.0, out="out", cadence=0)
        with pytest.raises(ConfigError, match="grid.extra"):
            parse_config(text.replace("n = 64", "n = 64\nextra = 1"))

    def test_unknown_section_rejected(self):
        text = TG_CONFIG.format(n=64, t_end=1.0, out="out", cadence=0) + "\n[mystery]\nx = 1\n"
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(text)

    def test_integrator_specific_keys(self):
        text = TG_CONFIG.format(n=64, t_end=1.0, out="out", cadence=0)
        with pytest.raises(ConfigError, match="rk4_dt"):
            parse_config(text.replace("tol = 1e-10", "tol = 1e-10\nrk4_dt = 1e-3"))
        rk4_text = RANDOM_RK4_CONFIG.format(out="out")
        with pytest.raises(ConfigError, match="tol"):
            parse_config(rk4_text.replace("rk4_dt = 1e-3", "rk4_dt = 1e-3\ntol = 1e-8"))

    def test_missing_snapshot_rejected(self, tmp_path):
        text = TG_CONFIG.format(n=64, t_end=1.0, out="out", cadence=0).replace(
            "kind = taylor_green_2d", "kind = snapshot\npath = nowhere.liens"
        )
        with pytest.raises(ConfigError, match="initial.path"):
            parse_config(text, base_dir=tmp_path)

    def test_dimension_mismatch(self):
        text = TG_CONFIG.format(n=64, t_end=1.0, out="out", cadence=0).replace(
            "kind = taylor_green_2d", "kind = beltrami_abc"
        )
        with pytest.raises(ConfigError, match="dim"):
            parse_config(text)


class TestSimulate:
    def test_taylor_green_final_energy(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, TG_CONFIG.format(n=64, t_end=1.0, out=tmp_path / "out", cadence=0)
        )
        assert cmd_simulate(cfg) == 0
        out = capsys.readouterr().out
        assert "initial projection delta" in out
        rows = read_series_csv(tmp_path / "out" / "series.csv")
        want = math.pi**2 * math.exp(-0.4)
        assert rows[-1].t == pytest.approx(1.0, abs=1e-14)
        assert rows[-1].energy == pytest.approx(want, rel=1e-8)
        assert (tmp_path / "out" / "spectrum_final.csv").exists()

    def test_zero_horizon(self, tmp_path):
        cfg = write_cfg(
            tmp_path, TG_CONFIG.format(n=32, t_end=0.0, out=tmp_path / "out0", cadence=0)
        )
        assert cmd_simulate(cfg) == 0
        rows = read_series_csv(tmp_path / "out0" / "series.csv")
        assert len(rows) == 1 and rows[0].t == 0.0
        final = read_snapshot(tmp_path / "out0" / "field_final.liens")
        u = analytic_field(AnalyticFlow("taylor_green_2d"), 0.0, 0.1, Grid(2, 32))
        assert np.max(np.abs(final.data - u.data)) < 1e-14

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, TG_CONFIG.format(n=10, t_end=1.0, out=tmp_path / "x", cadence=0)
        )
        assert cmd_simulate(cfg) == 2
        assert "grid.n" in capsys.readouterr().err

    def test_snapshot_cadence_and_roundtrip(self, tmp_path):
        cfg = write_cfg(
            tmp_path, TG_CONFIG.format(n=32, t_end=0.5, out=tmp_path / "snap", cadence=1)
        )
        assert cmd_simulate(cfg) == 0
        outdir = tmp_path / "snap"
        rows = read_series_csv(outdir / "series.csv")
        snapshots = sorted(outdir.glob("snapshot_*.liens"))
        assert len(snapshots) == len(rows) - 1  # one per accepted step
        # emitted snapshots round-trip bit-exactly
        final = read_snapshot(outdir / "field_final.liens")
        last = read_snapshot(snapshots[-1])
        assert np.array_equal(final.data, last.data)

    @pytest.mark.parametrize(
        "text,snapshots",
        [
            pytest.param(
                TG_CONFIG.format(n=32, t_end=1.0, out="{out}", cadence=1), True, id="lie"
            ),
            pytest.param(RANDOM_RK4_CONFIG, False, id="rk4"),
        ],
    )
    def test_determinism_byte_identical(self, tmp_path, text, snapshots):
        for name in ("a", "b"):
            cfg = write_cfg(tmp_path, text.format(out=tmp_path / name), name=f"{name}.cfg")
            assert cmd_simulate(cfg) == 0
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert {"series.csv", "spectrum_final.csv", "field_final.liens"} <= set(files)
        assert any(f.startswith("snapshot_") for f in files) == snapshots
        for f in files:
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes(), f

    @pytest.mark.parametrize("integrator", ["lie", "rk4"])
    def test_final_field_equals_library_propagation(self, tmp_path, integrator):
        grid = Grid(dim=2, n=32)
        if integrator == "lie":
            text = TG_CONFIG.format(n=32, t_end=1.0, out=tmp_path / "o", cadence=0)
            u = analytic_field(AnalyticFlow("taylor_green_2d"), 0.0, 0.1, grid)
        else:
            text = RANDOM_RK4_CONFIG.format(out=tmp_path / "o")
            u = random_divfree(seed=5, grid=grid, peak_k=3, amplitude=1.0)
        assert cmd_simulate(write_cfg(tmp_path, text)) == 0
        u = leray_project(dealias(u))  # what simulate starts from
        if integrator == "lie":
            want = propagate(u, 0.1, 1.0, tol=1e-10)
        else:
            want = rk4_propagate(u, 0.05, 0.05, dt=1e-3)
        got = read_snapshot(tmp_path / "o" / "field_final.liens")
        assert np.array_equal(got.data, want.data)

    def test_rk4_last_step_absorbs_roundoff(self, tmp_path):
        # Seven steps of 0.1 leave 2.8e-17 of t_end = 0.7 by float subtraction.
        text = TG_CONFIG.format(n=16, t_end=0.7, out=tmp_path / "o", cadence=0).replace(
            "integrator = lie\ntol = 1e-10", "integrator = rk4\nrk4_dt = 0.1"
        )
        assert cmd_simulate(write_cfg(tmp_path, text)) == 0
        rows = read_series_csv(tmp_path / "o" / "series.csv")
        assert len(rows) == 8
        assert rows[-1].t == 0.7
        assert (tmp_path / "o" / "field_final.liens").exists()

    def test_snapshot_initial_condition(self, tmp_path):
        base = write_cfg(
            tmp_path, TG_CONFIG.format(n=32, t_end=0.0, out=tmp_path / "seed", cadence=0)
        )
        assert cmd_simulate(base) == 0
        restart = TG_CONFIG.format(n=32, t_end=0.0, out=tmp_path / "seed2", cadence=0).replace(
            "kind = taylor_green_2d", f"kind = snapshot\npath = {tmp_path / 'seed' / 'field_final.liens'}"
        )
        cfg = write_cfg(tmp_path, restart, name="restart.cfg")
        assert cmd_simulate(cfg) == 0
        a = read_snapshot(tmp_path / "seed" / "field_final.liens")
        b = read_snapshot(tmp_path / "seed2" / "field_final.liens")
        assert np.array_equal(a.data, b.data)

    def test_impossible_snapshot_grid_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.liens"
        bad.write_bytes(b"LIENS1 2 12 6.28 2 physical\n")
        restart = TG_CONFIG.format(n=32, t_end=0.0, out=tmp_path / "o", cadence=0).replace(
            "kind = taylor_green_2d", f"kind = snapshot\npath = {bad}"
        )
        assert cmd_simulate(write_cfg(tmp_path, restart)) == 2
        assert "grid n" in capsys.readouterr().err

    def test_radius_collapse_exits_3(self, tmp_path, capsys):
        text = TG_CONFIG.format(n=32, t_end=1.0, out=tmp_path / "fail", cadence=0).replace(
            "kind = taylor_green_2d",
            "kind = random\nseed = 3\npeak_k = 3\namplitude = 1.0",
        ).replace("tol = 1e-10", "tol = 1e-14\nmax_order = 1")
        cfg = write_cfg(tmp_path, text, name="fail.cfg")
        assert cmd_simulate(cfg) == 3
        assert "propagation failure" in capsys.readouterr().err
        assert (tmp_path / "fail" / "field_last.liens").exists()
        assert (tmp_path / "fail" / "series.csv").exists()
        # the first step fails, so the last accepted field is the projected start
        u = random_divfree(seed=3, grid=Grid(dim=2, n=32), peak_k=3, amplitude=1.0)
        last = read_snapshot(tmp_path / "fail" / "field_last.liens")
        assert np.array_equal(last.data, leray_project(dealias(u)).data)

    @pytest.mark.parametrize("target", ["afile", "afile/sub"], ids=["file", "below-file"])
    def test_unusable_output_dir_exits_2(self, tmp_path, capsys, target):
        (tmp_path / "afile").write_text("")
        text = TG_CONFIG.format(n=16, t_end=0.1, out=tmp_path / target, cadence=0)
        cfg = write_cfg(tmp_path, text)
        assert cmd_simulate(cfg) == 2
        assert "config error: run.output_dir:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.cfg"]
        assert (tmp_path / "afile").read_text() == ""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_state_exits_3(self, tmp_path, capsys):
        assert cmd_simulate(write_cfg(tmp_path, BLOW_UP_CONFIG.format(out=tmp_path / "o"))) == 3
        err = capsys.readouterr().err
        assert "propagation failure" in err and "non-finite" in err
        rows = read_series_csv(tmp_path / "o" / "series.csv")
        assert [r.t for r in rows] == [0.0, 0.5]
        last = read_snapshot(tmp_path / "o" / "field_last.liens")
        assert energy(last) == rows[-1].energy

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_large_amplitude_radius_collapse_exits_3(self, tmp_path, capsys):
        assert cmd_simulate(write_cfg(tmp_path, LARGE_AMPLITUDE_CONFIG.format(out=tmp_path / "o"))) == 3
        err = capsys.readouterr().err
        assert "propagation failure" in err and "last radius estimate nan" in err
        u = random_divfree(seed=3, grid=Grid(dim=2, n=32), peak_k=3, amplitude=1e7)
        last = read_snapshot(tmp_path / "o" / "field_last.liens")
        assert np.array_equal(last.data, leray_project(dealias(u)).data)
        assert len(read_series_csv(tmp_path / "o" / "series.csv")) == 1

    def test_rk4_stability_guard(self, tmp_path, capsys):
        text = RANDOM_RK4_CONFIG.format(out=tmp_path / "stab").replace(
            "rk4_dt = 1e-3", "rk4_dt = 1.0"
        )
        cfg = write_cfg(tmp_path, text, name="stab.cfg")
        assert cmd_simulate(cfg) == 2
        assert "stability" in capsys.readouterr().err


class TestSubcommands:
    def test_burgers_check_default_passes(self, capsys):
        assert main(["burgers-check"]) == 0
        out = capsys.readouterr().out
        assert "all bounds hold" in out

    def test_burgers_check_under_resolved_fails(self, capsys):
        assert main(["burgers-check", "--order", "8", "--n", "32"]) == 1
        err = capsys.readouterr().err
        assert "under-resolution" in err

    @pytest.mark.parametrize("order", ["7", "8"])
    def test_burgers_check_high_orders_pass(self, order, capsys):
        assert main(["burgers-check", "--order", order]) == 0

    def test_burgers_check_order_zero(self, capsys):
        assert main(["burgers-check", "--order", "0"]) == 0

    def test_burgers_check_order_bound(self, capsys):
        assert main(["burgers-check", "--order", "9"]) == 2

    def test_spectrum_output(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, TG_CONFIG.format(n=32, t_end=0.0, out=tmp_path / "s", cadence=0)
        )
        assert cmd_simulate(cfg) == 0
        capsys.readouterr()
        assert main(["spectrum", str(tmp_path / "s" / "field_final.liens")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,energy"
        shells = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert shells[1] == pytest.approx(math.pi**2, rel=1e-12)

    def test_spectrum_missing_file(self, tmp_path, capsys):
        assert main(["spectrum", str(tmp_path / "none.liens")]) == 2

    def test_spectrum_impossible_grid_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.liens"
        path.write_bytes(b"LIENS1 4 8 6.28 4 physical\n")
        assert main(["spectrum", str(path)]) == 2
        assert "grid dim" in capsys.readouterr().err


TINY_TG = TG_CONFIG.format(n=16, t_end=0.1, out="{out}", cadence=0)

EXIT_CASES = [
    pytest.param(0, ["simulate"], TINY_TG, id="0-taylor-green"),
    pytest.param(1, ["burgers-check", "--order", "8", "--n", "32"], None, id="1-burgers-check"),
    pytest.param(2, ["simulate"], TINY_TG.replace("n = 16", "n = 10"), id="2-bad-config"),
    pytest.param(2, ["simulate"], TINY_TG.replace("{out}", "afile"), id="2-output-dir"),
    pytest.param(3, ["simulate"], LARGE_AMPLITUDE_CONFIG, id="3-radius-collapse"),
    pytest.param(3, ["simulate"], BLOW_UP_CONFIG, id="3-rk4-blow-up"),
    pytest.param(2, ["simulate"], TINY_TG.replace("n = 16", "n = 1099511627776"),
                 id="2-grid-too-large"),
    # 6 PiB for the random draws: representable, but beyond what a process
    # can map, so the allocation fails at once.
    pytest.param(2, ["simulate"],
                 RANDOM_RK4_CONFIG.replace("dim = 2\nn = 32", "dim = 3\nn = 65536"),
                 id="2-grid-unallocatable"),
]


def run_cli(tmp_path, args, config):
    """``python -m liens.cli`` with ``args`` (and a config written from
    ``config``, when given) in ``tmp_path``."""
    if config is not None:
        (tmp_path / "afile").write_text("")
        (tmp_path / "run.cfg").write_text(config.format(out=tmp_path / "out"))
        args = args + [str(tmp_path / "run.cfg")]
    return run_python(tmp_path, ["-m", "liens.cli", *args])


def run_python(tmp_path, args):
    """A fresh interpreter with ``args``, run in ``tmp_path``, that imports
    this ``liens``."""
    env = dict(os.environ)
    src = str(Path(liens.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )


class TestExitCodes:
    """Every documented exit code of ``python -m liens.cli``, as a user sees
    it: the code, and no traceback on stderr."""

    @pytest.mark.parametrize("code,args,config", EXIT_CASES)
    def test_exit_code(self, tmp_path, code, args, config):
        done = run_cli(tmp_path, args, config)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr

    # numpy's overflow warnings name source files; only the typed message
    # may reach the user.
    @pytest.mark.parametrize(
        "config",
        [LARGE_AMPLITUDE_CONFIG, INITIAL_OVERFLOW_CONFIG, BLOW_UP_CONFIG],
        ids=["radius-collapse", "initial-overflow", "rk4-blow-up"],
    )
    def test_failure_message_alone_on_stderr(self, tmp_path, config):
        done = run_cli(tmp_path, ["simulate"], config)
        assert done.returncode == 3
        assert done.stderr.startswith("propagation failure:"), done.stderr
        assert done.stderr.count("\n") == 1
        assert "Warning" not in done.stderr and ".py" not in done.stderr

    # A finite snapshot whose shell energies overflow: no inf rows, and no
    # numpy warning naming a source file.
    @pytest.mark.parametrize("kind", ["spectral", "physical"])
    def test_spectrum_overflow_exits_2(self, tmp_path, kind):
        g = Grid(dim=2, n=16)
        field = RealVectorField(g, 1e200 * random_real_field(g, np.random.default_rng(1)).data)
        write_snapshot(tmp_path / "big.liens", field if kind == "physical" else to_spectral(field))
        done = run_cli(tmp_path, ["spectrum", str(tmp_path / "big.liens")], None)
        assert done.returncode == 2
        assert done.stderr.startswith("spectrum:"), done.stderr
        assert done.stdout == ""
        assert "Warning" not in done.stderr and ".py" not in done.stderr


# Runs both commands in one interpreter, then lists what they imported.
NO_SCIPY_SCRIPT = """
import sys
from liens.cli import main
assert main(["simulate", sys.argv[1]]) == 0
assert main(["verify", "--level", "quick"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_simulate_and_verify_never_import_scipy(tmp_path):
    """numpy.fft is the one FFT backend: a run and the quick acceptance
    checks load no scipy module."""
    (tmp_path / "run.cfg").write_text(RANDOM_RK4_CONFIG.format(out=tmp_path / "out"))
    done = run_python(tmp_path, ["-c", NO_SCIPY_SCRIPT, str(tmp_path / "run.cfg")])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
