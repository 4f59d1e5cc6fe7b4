"""Config parsing, the simulate pipeline, and the auxiliary subcommands."""

import contextlib
import functools
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import liens
from liens import (
    AnalyticFlow,
    Grid,
    RealVectorField,
    analytic_field,
    dealias,
    energy,
    leray_project,
    lie_advance,
    propagate,
    random_divfree,
    rk4_propagate,
    steps,
    to_spectral,
)
from liens.cli import cmd_simulate, load_config, main, parse_config
from liens.diagnostics import read_series_csv
from liens.errors import ConfigError
from liens.grid_spectral import read_snapshot, write_snapshot
from liens.reference_oracles import rk4_advance

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

# So large that the series overflows: no order admits a step, and the radius
# estimate reads NaN.
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
TG_OVERFLOW_CONFIG = TG_CONFIG.format(n=16, t_end=0.1, out="{out}", cadence=0).replace(
    "kind = taylor_green_2d", "kind = taylor_green_2d\namplitude = 1e160"
)
BELTRAMI_OVERFLOW_CONFIG = BELTRAMI_CONFIG.replace("kind = beltrami_abc",
                                                   "kind = beltrami_abc\nabc_a = 1e160")


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_full_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path, TG_CONFIG.format(n=64, t_end=1.0, out="out", cadence=0))
        config = load_config(cfg)
        assert config.grid.dim == 2 and config.grid.n == 64
        assert config.nu == 0.1
        assert config.initial.make.func is analytic_field
        assert config.initial.make.args[0] == AnalyticFlow("taylor_green_2d")
        assert config.t_end == 1.0
        assert config.advance.func is lie_advance
        assert config.advance.args == (config.grid, 0.1)
        assert config.advance.keywords == {"tol": 1e-10, "max_order": 30}
        assert config.output_dir == tmp_path / "out"
        assert math.isclose(config.grid.length, 2 * math.pi)

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

    def test_beltrami_rejects_amplitude(self, tmp_path, capsys):
        """abc sets the Beltrami field's size; an amplitude key would do
        nothing, so it is an unknown key there."""
        text = BELTRAMI_CONFIG.format(out=tmp_path / "out").replace(
            "kind = beltrami_abc", "kind = beltrami_abc\namplitude = 5.0")
        assert cmd_simulate(write_cfg(tmp_path, text)) == 2
        assert "unknown key(s): initial.amplitude" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n,length", [(8, "0.5"), (16, "0.1"), (64, "0.05")])
    def test_small_box_accepted(self, n, length):
        text = RANDOM_RK4_CONFIG.format(out="out").replace("n = 32", f"n = {n}\nl = {length}")
        text = text.replace("peak_k = 3", "peak_k = 2")
        assert parse_config(text).grid.length == float(length)

    # Parsing builds no field, for any kind: one at n = 2^29 would not fit
    # in memory.
    @pytest.mark.parametrize("kind", [
        "taylor_green_2d", "random\nseed = 1\npeak_k = 3", "snapshot\npath = seed.liens",
    ], ids=["taylor-green", "random", "snapshot"])
    def test_largest_representable_grid(self, tmp_path, kind):
        # 2 * n^2 float64 values fit in a numpy array up to n = 2^29.
        (tmp_path / "seed.liens").write_bytes(b"")
        text = TG_CONFIG.format(n=64, t_end=1.0, out="out", cadence=0).replace(
            "kind = taylor_green_2d", f"kind = {kind}")
        config = parse_config(text.replace("n = 64", f"n = {2**29}"), base_dir=tmp_path)
        assert config.grid.n == 2**29
        with pytest.raises(ConfigError, match=r"grid\.n"):
            parse_config(text.replace("n = 64", f"n = {2**30}"), base_dir=tmp_path)

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


# Each shared rule, broken by the same value in a library call and in a
# config: the library names its parameter, parse_config the section.key, and
# the rest of the two messages is the same words, from the same rule.
_GRID = Grid(dim=2, n=32)
_TG = TG_CONFIG.format(n=64, t_end=1.0, out="out", cadence=0)
_RANDOM = RANDOM_RK4_CONFIG.format(out="out")
_BELTRAMI = BELTRAMI_CONFIG.format(out="out")


@pytest.mark.parametrize(
    "library_call,param,text,old,new,key",
    [
        (lambda: lie_advance(_GRID, -1.0), "viscosity",
         _TG, "nu = 0.1", "nu = -1", "fluid.nu"),
        (lambda: next(steps(None, -1.0, None)), "t_end",
         _TG, "t_end = 1.0", "t_end = -1", "run.t_end"),
        (lambda: lie_advance(_GRID, 0.1, tol=0.0), "tol",
         _TG, "tol = 1e-10", "tol = 0", "run.tol"),
        (lambda: lie_advance(_GRID, 0.1, max_order=-1), "max_order",
         _TG, "tol = 1e-10", "tol = 1e-10\nmax_order = -1", "run.max_order"),
        (lambda: rk4_advance(_GRID, 0.1, 0.0), "rk4 step size dt",
         _RANDOM, "rk4_dt = 1e-3", "rk4_dt = 0", "run.rk4_dt"),
        (lambda: AnalyticFlow("taylor_green_2d", amplitude=math.inf), "amplitude",
         _TG, "kind = taylor_green_2d", "kind = taylor_green_2d\namplitude = inf",
         "initial.amplitude"),
        (lambda: random_divfree(1, _GRID, 3, 0.0), "amplitude",
         _RANDOM, "amplitude = 1.0", "amplitude = 0", "initial.amplitude"),
        (lambda: AnalyticFlow("beltrami_abc", abc=(math.nan, 1.0, 1.0)), "abc[0]",
         _BELTRAMI, "kind = beltrami_abc", "kind = beltrami_abc\nabc_a = nan",
         "initial.abc_a"),
        (lambda: random_divfree(-1, _GRID, 3, 1.0), "seed",
         _RANDOM, "seed = 5", "seed = -1", "initial.seed"),
        (lambda: random_divfree(1, _GRID, 11, 1.0), "peak_k",
         _RANDOM, "peak_k = 3", "peak_k = 11", "initial.peak_k"),
        (lambda: Grid(dim=4, n=16), "grid dim",
         _TG, "dim = 2", "dim = 4", "grid.dim"),
        (lambda: Grid(dim=2, n=48), "grid n",
         _TG, "n = 64", "n = 48", "grid.n"),
        (lambda: Grid(dim=2, n=16, length=-1.0), "grid length",
         _TG, "n = 64", "n = 64\nl = -1", "grid.l"),
    ],
    ids=["nu", "t_end", "tol", "max_order", "rk4_dt", "analytic-amplitude",
         "random-amplitude", "abc_a", "seed", "peak_k", "grid-dim", "grid-n", "grid-l"],
)
def test_library_and_config_share_each_rule(library_call, param, text, old, new, key):
    with pytest.raises(ValueError, match=re.escape(f"{param} must")) as library:
        library_call()
    assert old in text
    with pytest.raises(ConfigError, match=re.escape(f"{key} must")) as config:
        parse_config(text.replace(old, new))
    library_rule = str(library.value).split(" must ", 1)[1]
    assert str(config.value) == f"{key} must {library_rule}"


def test_two_pi_box_rule_names_each_callers_length():
    # One rule, two names for the box side: Grid.length in the library and
    # grid.l in a config, which has no key grid.length.
    with pytest.raises(ValueError) as library:
        analytic_field(AnalyticFlow("taylor_green_2d"), 0.0, 0.1, Grid(2, 32, length=1.0))
    assert str(library.value) == (
        "flow kind taylor_green_2d needs grid.length = 2*pi (the 2*pi periodic box), got 1.0"
    )
    with pytest.raises(ConfigError) as config:
        parse_config(_TG.replace("n = 64", "n = 64\nl = 3.0"))
    assert str(config.value) == (
        "initial.kind taylor_green_2d needs grid.l = 2*pi (the 2*pi periodic box), got 3.0"
    )


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

    def test_lie_run_builds_one_kernel(self, tmp_path, lie_kernels):
        text = RANDOM_RK4_CONFIG.format(out=tmp_path / "o").replace(
            "t_end = 0.05\nintegrator = rk4\nrk4_dt = 1e-3", "t_end = 2\nintegrator = lie"
        )
        assert cmd_simulate(write_cfg(tmp_path, text)) == 0
        assert len(read_series_csv(tmp_path / "o" / "series.csv")) > 2
        assert len(lie_kernels) == 1

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

    # A finite snapshot whose energy overflows float64 is bad input, not a
    # propagation failure: it is rejected before the output directory exists.
    def test_overflowing_snapshot_exits_2(self, tmp_path, capsys):
        g = Grid(dim=2, n=16)
        x, y = g.mesh()
        big = tmp_path / "big.liens"
        write_snapshot(big, RealVectorField(g, 1e200 * np.stack((np.sin(y), np.sin(x)))))
        text = RANDOM_RK4_CONFIG.format(out=tmp_path / "o").replace("n = 32", "n = 16").replace(
            "kind = random\nseed = 5\npeak_k = 3\namplitude = 1.0", f"kind = snapshot\npath = {big}"
        )
        assert cmd_simulate(write_cfg(tmp_path, text)) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error: initial.path:") and "overflow" in err
        assert out == ""
        assert not (tmp_path / "o").exists()

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

    # Each rejected config is one line on stderr naming the line or key, with
    # nothing on stdout and nothing written.
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda t: t + "\n[grid]\n", "line 20: duplicate section [grid]"),
            (lambda t: t.replace("[grid]\n", "[grid]\noops\n"),
             "line 4: expected 'key = value', got 'oops'"),
            (lambda t: "n = 16\n" + t, "line 1: key outside of any [section]"),
            (lambda t: t.replace("nu = 0.1", "nu ="), "line 8: empty key or value"),
            (lambda t: t.replace("n = 16", "n = 16\nn = 16"), "line 6: duplicate key grid.n"),
            (lambda t: t.replace("nu = 0.1\n", ""), "fluid.nu is required"),
            (lambda t: t.replace("n = 16", "n = 1e3"), "grid.n: cannot parse '1e3'"),
            (lambda t: t.replace("[fluid]\nnu = 0.1\n", ""), "missing section [fluid]"),
        ],
        ids=["duplicate-section", "no-equals", "key-before-section", "empty-value",
             "duplicate-key", "missing-key", "unparseable-value", "missing-section"],
    )
    def test_rejected_config_exits_2(self, tmp_path, capsys, edit, message):
        cfg = write_cfg(tmp_path, edit(TINY_TG.format(out="out")))
        assert main(["simulate", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert err == f"config error: {message}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("content", [None, b"[grid]\ndim = 2\nn = 16\n# caf\xe9"],
                             ids=["directory", "non-utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        cfg = tmp_path / "run.cfg"
        if content is None:
            cfg.mkdir()
        else:
            cfg.write_bytes(content)
        assert main(["simulate", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"config error: cannot read config {cfg}:")
        assert err.count("\n") == 1 and out == ""
        assert list(tmp_path.iterdir()) == [cfg] and not (tmp_path / "out").exists()

    def test_snapshot_grid_mismatch_exits_2(self, tmp_path, capsys):
        seed = tmp_path / "seed.liens"
        write_snapshot(seed, analytic_field(AnalyticFlow("taylor_green_2d"), 0.0, 0.1,
                                            Grid(dim=2, n=16)))
        text = TG_CONFIG.format(n=32, t_end=0.0, out="out", cadence=0).replace(
            "kind = taylor_green_2d", "kind = snapshot\npath = seed.liens"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error: initial.path grid ") and "does not match" in err
        assert err.count("\n") == 1 and out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "seed.liens"]

    # A box length whose volume or wavenumbers do not fit float64 is a config
    # error naming grid.l, raised as the config is read. 1e300 used to end
    # in an OverflowError traceback from the volume, and 1e-300 in "spectral
    # field contains non-finite coefficients", which names no key.
    @pytest.mark.parametrize("length", ["1e300", "1e-300"])
    def test_box_length_out_of_range_exits_2(self, tmp_path, capsys, length):
        text = RANDOM_RK4_CONFIG.format(out="out").replace(
            "n = 32", f"n = 16\nl = {length}").replace("seed = 5", "seed = 1")
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"config error: grid.l: grid length {float(length)!r} is out of")
        assert err.count("\n") == 1 and out == ""
        assert list(tmp_path.iterdir()) == [cfg]

    # Lengths whose largest |k|^2 is a normal float are grids: at 1e100 the
    # random field runs. At 1e-100 the volume and |k|^2 fit, but the
    # enstrophy of the field overflows, which is the amplitude's fault.
    @pytest.mark.parametrize("length,code,err", [
        ("1e100", 0, ""),
        ("1e-100", 2, "config error: initial.amplitude: the norms of the field of"
                      " amplitude 1.0 overflow float64\n"),
    ], ids=["1e100", "1e-100"])
    def test_extreme_box_lengths(self, tmp_path, capsys, length, code, err):
        text = RANDOM_RK4_CONFIG.format(out="out").replace(
            "n = 32", f"n = 8\nl = {length}").replace("peak_k = 3", "peak_k = 2")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == code
        assert capsys.readouterr().err == err

    # A small box is a grid like any other: a random field on 8^2 at length
    # 0.5 (largest |k| 71) runs and writes a spectrum of its mode indices
    # 0..6 (round(sqrt(2) * 4) = 6), as a 2 pi box does.
    def test_small_box_runs(self, tmp_path, capsys):
        text = RANDOM_RK4_CONFIG.format(out="out").replace(
            "n = 32", "n = 8\nl = 0.5").replace("peak_k = 3", "peak_k = 2")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "out" / "spectrum_final.csv").read_text().splitlines()
        assert len(rows) == 1 + 7 and rows[-1].startswith("6,")

    # The random field's weights underflowed on 32^3 at length 0.2 with
    # peak_k 1, and simulate ended in a "random field degenerated to zero"
    # traceback.
    def test_random_field_in_a_small_box_runs(self, tmp_path, capsys):
        text = RANDOM_RK4_CONFIG.format(out="out").replace(
            "dim = 2\nn = 32", "dim = 3\nn = 32\nl = 0.2").replace(
            "seed = 5\npeak_k = 3", "seed = 1\npeak_k = 1").replace(
            "t_end = 0.05", "t_end = 1e-5").replace("rk4_dt = 1e-3", "rk4_dt = 1e-5")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert len(rows) == 1 + 2

    def test_unallocatable_initial_field_exits_2(self, tmp_path, monkeypatch, capsys):
        def no_memory(*args):
            raise MemoryError("no room")

        monkeypatch.setattr(liens.cli, "random_divfree", no_memory)
        text = RANDOM_RK4_CONFIG.format(out=tmp_path / "out").replace("n = 32", "n = 16")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 2
        out, err = capsys.readouterr()
        assert err == ("config error: grid.n: cannot allocate the initial field at"
                       " n = 16: no room\n")
        assert out == "" and not (tmp_path / "out").exists()

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

    # burgers-check and criterion 8 hold one cross_check result to one rule:
    # a truncation error equal to the one before it is no growth for either.
    def test_burgers_check_and_criterion_8_agree_on_a_tie(self, monkeypatch, capsys):
        from liens import burgers1d, verification

        truncation = [1e-2, 1e-3, 1e-4, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]
        result = ([0.0] * 6, truncation)
        monkeypatch.setattr(burgers1d, "cross_check", lambda order, n: result)
        assert main(["burgers-check"]) == 0
        assert " 5     1.000e-04  yes" in capsys.readouterr().out
        assert all(r.passed for r in verification.criterion_8_linear_representation(*result))

    # Errors the cross-check can produce that criterion 8 must reject: a
    # symbolic error over the bound, and a NaN after the first entry.
    @pytest.mark.parametrize("bad", [1.0, math.nan], ids=["over-bound", "nan"])
    def test_burgers_check_fails_on_symbolic_errors(self, monkeypatch, capsys, bad):
        from liens import burgers1d

        truncation = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10]
        monkeypatch.setattr(burgers1d, "cross_check",
                            lambda order, n: ([0.0] + [bad] * order, truncation))
        assert main(["burgers-check", "--order", "5", "--n", "64"]) == 1
        assert capsys.readouterr().err == "FAIL: agreement bounds violated\n"

    def test_burgers_check_order_zero(self, capsys):
        assert main(["burgers-check", "--order", "0"]) == 0

    def test_burgers_check_order_bound(self, capsys):
        assert main(["burgers-check", "--order", "9"]) == 2

    def test_burgers_check_n_not_power_of_two(self, capsys):
        assert main(["burgers-check", "--n", "48"]) == 2
        out, err = capsys.readouterr()
        assert err == "burgers-check: --n must be a power of two >= 8, got 48\n" and out == ""

    def test_burgers_check_unallocatable_n(self, capsys):
        assert main(["burgers-check", "--n", "1099511627776"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("burgers-check: --n 1099511627776: cannot allocate")
        assert err.count("\n") == 1 and out == ""

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

    # A header length whose |k| or volume does not fit float64 fails the
    # grid, so the snapshot is unusable. 1e-300 and 1e-160 used to end in a
    # ValueError traceback from np.bincount (|k| = inf cast to a negative
    # shell), 1e300 in an OverflowError from the volume.
    @pytest.mark.parametrize("length", ["1e-300", "1e-160", "1e300"])
    def test_spectrum_box_length_out_of_range_exits_2(self, tmp_path, capsys, length):
        path = tmp_path / "snap.liens"
        g = Grid(dim=2, n=8)
        write_snapshot(path, random_real_field(g, np.random.default_rng(1)))
        path.write_bytes(path.read_bytes().replace(f"{g.length:.17g}".encode(), length.encode(), 1))
        assert main(["spectrum", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("spectrum: bad snapshot header") and "out of range" in err
        assert err.count("\n") == 1 and out == ""

    # Header lengths other than 2 pi: the spectrum has one row per integer
    # mode index up to round(sqrt(2) n / 2), 7 rows at 8^2 and 12 at 16^2,
    # whatever the length.
    @pytest.mark.parametrize("n,length,rows", [(8, "0.5", 7), (16, "0.1", 12)])
    def test_spectrum_of_a_small_box(self, tmp_path, capsys, n, length, rows):
        path = tmp_path / "snap.liens"
        g = Grid(dim=2, n=n)
        write_snapshot(path, random_real_field(g, np.random.default_rng(1)))
        path.write_bytes(path.read_bytes().replace(f"{g.length:.17g}".encode(), length.encode(), 1))
        assert main(["spectrum", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 1 + rows and lines[-1].startswith(f"{rows - 1},")

    # Finite samples whose transform overflows: the spectral field rejects
    # its inf coefficients. That used to end in a FieldError traceback.
    def test_spectrum_transform_overflow_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.liens"
        write_snapshot(path, RealVectorField(Grid(dim=2, n=8), np.full((2, 8, 8), 1.7e308)))
        assert main(["spectrum", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err == "spectrum: spectral field contains non-finite coefficients\n"
        assert out == ""

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
    # 8 TiB of samples: the first allocation fails at once.
    pytest.param(2, ["burgers-check", "--n", "1099511627776"], None,
                 id="2-burgers-check-unallocatable"),
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
        [LARGE_AMPLITUDE_CONFIG, BLOW_UP_CONFIG],
        ids=["radius-collapse", "rk4-blow-up"],
    )
    def test_failure_message_alone_on_stderr(self, tmp_path, config):
        done = run_cli(tmp_path, ["simulate"], config)
        assert done.returncode == 3
        assert done.stderr.startswith("propagation failure:"), done.stderr
        assert done.stderr.count("\n") == 1
        assert "Warning" not in done.stderr and ".py" not in done.stderr

    # An initial field whose norms overflow is a config error that names the
    # key setting its size, reported before anything is written.
    @pytest.mark.parametrize(
        "config,key",
        [(INITIAL_OVERFLOW_CONFIG, "initial.amplitude"),
         (TG_OVERFLOW_CONFIG, "initial.amplitude"),
         (BELTRAMI_OVERFLOW_CONFIG, "initial.abc_a")],
        ids=["random", "taylor-green", "beltrami"],
    )
    def test_initial_overflow_is_config_error(self, tmp_path, config, key):
        done = run_cli(tmp_path, ["simulate"], config)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith(f"config error: {key}"), done.stderr
        assert "overflow" in done.stderr and done.stderr.count("\n") == 1
        assert "Warning" not in done.stderr and ".py" not in done.stderr
        assert done.stdout == ""
        assert not (tmp_path / "out").exists()

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


# Valid configs with small values, before any byte is changed.
@st.composite
def small_configs(draw):
    kind = draw(st.sampled_from(["taylor_green_2d", "beltrami_abc", "random"]))
    dim = {"taylor_green_2d": 2, "beltrami_abc": 3}.get(kind) or draw(st.sampled_from([2, 3]))
    n = 8 if dim == 3 else draw(st.sampled_from([8, 16]))
    initial = f"kind = {kind}\n"
    if kind == "random":
        initial += f"seed = {draw(st.integers(0, 99))}\npeak_k = {draw(st.integers(1, n // 3))}\n"
    if draw(st.booleans()):
        run = f"integrator = lie\ntol = 1e-{draw(st.integers(4, 12))}\n"
        run += f"max_order = {draw(st.integers(8, 30))}\n"
    else:
        run = "integrator = rk4\nrk4_dt = 1e-3\n"
    t_end = draw(st.sampled_from(["0", "0.001", "0.005", "0.01"]))
    nu = draw(st.sampled_from(["0", "0.01", "0.05"]))
    cadence = draw(st.integers(0, 3))
    return (
        f"[grid]\ndim = {dim}\nn = {n}\n\n[fluid]\nnu = {nu}\n\n[initial]\n{initial}\n"
        f"[run]\nt_end = {t_end}\n{run}output_dir = out\nsnapshot_cadence = {cadence}\n"
    ).encode("ascii")


@st.composite
def mutated_configs(draw):
    """A small valid config with up to three bytes inserted, deleted or
    flipped (XORed with a nonzero value)."""
    data = bytearray(draw(small_configs()))
    edits = st.tuples(st.sampled_from(["insert", "delete", "flip"]),
                      st.integers(0, 4096), st.integers(1, 255))
    for op, pos, byte in draw(st.lists(edits, max_size=3)):
        pos %= len(data) + (op == "insert")
        if op == "insert":
            data.insert(pos, byte)
        elif op == "delete" and len(data) > 1:
            del data[pos]
        elif op == "flip":
            data[pos] ^= byte
    return bytes(data)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_configs())
def test_simulate_survives_mutated_configs(tmp_path, text):
    """Whatever the config bytes, ``simulate`` ends with exit 0, 2 or 3, never
    a traceback, and writes only into its output directory; a rejected
    config writes nothing. Configs that parse run only with n <= 32, t_end
    <= 0.01 and an output directory under the run's own directory, and
    with a step count that stays small: at most 100 RK4 steps, or a lie
    max_order of at least 8 (at max_order 2 and tol 1e-9 a step is about
    1e-8 long, and t_end = 0.001 takes some 80 000 of them)."""
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    cfg = run_dir / "run.cfg"
    cfg.write_bytes(text)
    try:
        config = load_config(cfg)
    except ConfigError:
        config = None
    if config is not None:
        assume(config.grid.n <= 32 and config.t_end <= 0.01)
        if config.advance.func is rk4_advance:
            assume(config.t_end <= 100 * config.advance.keywords["dt"])
        else:
            assume(config.advance.keywords["max_order"] >= 8)
        assume(config.output_dir.resolve().is_relative_to(run_dir.resolve()))
    before = set(tmp_path.rglob("*"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cmd_simulate(cfg)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    written = set(tmp_path.rglob("*")) - before
    assert all(p.is_relative_to(run_dir) for p in written)
    if code == 2:
        assert err.getvalue().startswith("config error:") and err.getvalue().count("\n") == 1
        assert out.getvalue() == "" and not written
    shutil.rmtree(run_dir)


# Header length fields: ordinary ones, whose snapshots have a spectrum of
# round(sqrt(dim) n / 2) + 1 rows, small boxes among them, and ones whose
# volume or |k| leaves float64.
ORDINARY_LENGTHS = ["6.2831853071795862", "1", "0.5", "1e50", "1e-12", "1e-20"]
SNAPSHOT_LENGTHS = ORDINARY_LENGTHS + ["1e-160", "1e-300", "1e100",
                                       "1e160", "1e300", "0", "-1", "inf", "nan"]


@functools.cache
def snapshot_bytes(dim, kind):
    """A valid 8^dim snapshot of a smooth random field."""
    g = Grid(dim=dim, n=8)
    field = random_real_field(g, np.random.default_rng(dim))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.liens"
        write_snapshot(path, field if kind == "physical" else to_spectral(field))
        return path.read_bytes()


@st.composite
def mutated_snapshots(draw):
    """Random bytes, or a small valid snapshot with a drawn header length and
    its payload as written or rescaled to a largest magnitude of 1e150,
    1e300 or 1.7e308 (where the transforms and the energies overflow), then
    cut short or with up to four bytes XOR-flipped. Returned with whether
    the bytes are a valid snapshot of an ordinary length as written."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64)), False
    data = snapshot_bytes(draw(st.sampled_from([2, 3])),
                          draw(st.sampled_from(["physical", "spectral"])))
    header, payload = data.split(b"\n", 1)
    fields = header.split(b" ")
    length = draw(st.sampled_from(SNAPSHOT_LENGTHS))
    fields[3] = length.encode()
    peak = draw(st.sampled_from([None, 1e150, 1e300, 1.7e308]))
    if peak is not None:
        values = np.frombuffer(payload, "<f8")
        payload = (values / np.max(np.abs(values)) * peak).tobytes()
    data = bytearray(b" ".join(fields) + b"\n" + payload)
    cut = draw(st.booleans())
    if cut:
        del data[draw(st.integers(0, len(data))):]
    flips = st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255))
    flipped = draw(st.lists(flips, max_size=4)) if data else []
    for pos, byte in flipped:
        data[pos] ^= byte
    return bytes(data), length in ORDINARY_LENGTHS and peak is None and not (cut or flipped)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_snapshots())
def test_spectrum_survives_mutated_snapshots(tmp_path, case):
    """Whatever the snapshot bytes, ``spectrum`` ends with exit 0 and a CSV,
    or exit 2 and one ``spectrum:`` line on stderr; never a traceback or a
    warning. A valid snapshot of an ordinary length exits 0."""
    data, valid = case
    path = tmp_path / "field.liens"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["spectrum", str(path)])
    assert code in ((0,) if valid else (0, 2)), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue().startswith("k,energy\n") and err.getvalue() == ""
    else:
        assert err.getvalue().startswith("spectrum:") and err.getvalue().count("\n") == 1
        assert out.getvalue() == ""


def test_every_exported_name_resolves():
    assert all(hasattr(liens, name) for name in liens.__all__)


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


# Runs a simulation, then lists which of the modules it has no use for it
# loaded.
SIMULATE_IMPORTS_SCRIPT = """
import sys
from liens.cli import main
assert main(["simulate", sys.argv[1]]) == 0
print(sorted(m for m in ("liens.verification", "liens.burgers1d", "liens.operator_calculus")
             if m in sys.modules))
"""


def test_simulate_imports_neither_verification_nor_burgers(tmp_path):
    """Only ``verify`` and ``burgers-check`` load the acceptance checks, the
    1-D Burgers bench and the symbolic calculus; a run loads none of them,
    although ``liens`` exports the symbolic names."""
    (tmp_path / "run.cfg").write_text(RANDOM_RK4_CONFIG.format(out=tmp_path / "out"))
    done = run_python(tmp_path, ["-c", SIMULATE_IMPORTS_SCRIPT, str(tmp_path / "run.cfg")])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# Imports the three names of the symbolic benchmark, then lists the package's
# modules it loaded.
SYMBOLIC_IMPORTS_SCRIPT = """
import sys
from liens import a_power_u, eval_diffpoly, parse_diffpoly
print(sorted(m for m in sys.modules if m.startswith("liens")))
"""


def test_symbolic_names_load_no_solver(tmp_path):
    """The package resolves its names on first use: the symbolic calculus
    loads with its error types only, and none of the solver, the acceptance
    checks, the Burgers bench or the CLI."""
    done = run_python(tmp_path, ["-c", SYMBOLIC_IMPORTS_SCRIPT])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(
        ["liens", "liens.errors", "liens.operator_calculus"])


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        liens.no_such_name  # noqa: B018
    assert set(liens.__all__) <= set(dir(liens))
