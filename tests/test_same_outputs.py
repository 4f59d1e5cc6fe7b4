"""The comparison of ``tools/same_outputs.py`` on stubbed runs, and one real
run of its cheapest case."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "same_outputs.py"


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for the dataclass's annotations
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def run(exit=0, stdout=b"out\n", stderr=b"", **files):
    return {"exit": exit, "stdout": stdout, "stderr": stderr,
            "files": {"run.cfg": "c", "out/series.csv": "s", **files}}


def test_cases_cover_every_listed_run(same_outputs):
    """The perfbench simulations at two seeds; a physical snapshot and an
    overflowing Beltrami flow; every way a ``[run]`` section ends a run
    early (an RK4 step past the diffusion bound, a key of the other
    integrator, a radius collapse, an RK4 overflow); a lie run with a
    snapshot per step, and two on exact 3-D eigenflows, whose snapshots
    record the signs of exact zeros; ``spectrum`` and two ``burgers-check``
    runs; the symbolic benchmark's child at two seeds."""
    names = [case.name for case in same_outputs.cases()]
    assert names == [
        "tg2d-lie seed 1", "tg2d-lie seed 7", "rand3d-lie seed 1", "rand3d-lie seed 7",
        "rand3d-rk4 seed 1", "rand3d-rk4 seed 7", "physical snapshot", "beltrami overflow",
        "rk4 past diffusion", "rk4_dt with lie", "tol with rk4", "radius collapse",
        "rk4 blow-up", "lie snapshot cadence", "beltrami_abc snapshots",
        "taylor_green_3d_embedded snapshots",
        "spectrum physical", "burgers-check", "burgers-check 8 32",
        "symbolic-powers seed 1", "symbolic-powers seed 7",
    ]
    symbolic = [case for case in same_outputs.cases() if case.script]
    assert [case.name for case in symbolic] == names[-2:]
    assert all(case.script == "perfbench/symbolic_child.py" for case in symbolic)


def test_differences_name_each_part_that_differs(same_outputs):
    differences = same_outputs.differences
    assert differences(run(), run()) == []
    assert differences(run(), run(exit=3, stderr=b"failure\n")) == ["exit", "stderr"]
    assert differences(run(), run(stdout=b"other\n")) == ["stdout"]
    # a changed digest, a file only the parent left, a file only the change left
    parent = run(**{"out/a.liens": "x", "out/b.liens": "y"})
    change = run(**{"out/a.liens": "z", "out/c.liens": "y"})
    assert differences(parent, change) == ["out/a.liens", "out/b.liens", "out/c.liens"]


def test_one_line_per_case_and_exit_1_on_any_difference(same_outputs, monkeypatch,
                                                        tmp_path, capsys):
    names = [case.name for case in same_outputs.cases()]
    changed = names[3]

    def run_case(checkout, case, workdir):
        assert workdir.is_dir() and not any(workdir.iterdir())
        if (checkout.name, case.name) == ("change", changed):
            return run(**{"out/field_final.liens": "b"})
        return run(**{"out/field_final.liens": "a"})

    monkeypatch.setattr(same_outputs, "run_case", run_case)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    assert same_outputs.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(names) + 1  # the last gives the line counts
    for name, line in zip(names, lines):
        assert line.startswith(name)
        want = "differs: out/field_final.liens" if name == changed else "identical"
        assert line.endswith(f"exit 0  {want}")

    monkeypatch.setattr(same_outputs, "run_case", lambda checkout, case, workdir: run())
    assert same_outputs.main(argv) == 0


def test_last_line_gives_the_net_size(same_outputs, monkeypatch, tmp_path, capsys):
    for side, sources in {"parent": {"a.py": "1\n2\n3\n", "b.py": "1\n"},
                          "change": {"a.py": "1\n", "b.py": "1\n", "c.txt": "1\n"}}.items():
        package = tmp_path / side / "src" / "liens"
        package.mkdir(parents=True)
        for name, text in sources.items():
            (package / name).write_text(text)
    assert same_outputs.line_count(tmp_path / "parent") == 4
    assert same_outputs.line_count(tmp_path / "change") == 2
    monkeypatch.setattr(same_outputs, "run_case", lambda checkout, case, workdir: run())
    assert same_outputs.main(["--parent", str(tmp_path / "parent"),
                              "--change", str(tmp_path / "change")]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "src/liens/*.py lines: parent 4, change 2, difference -2"


def test_real_run_of_the_spectrum_case(same_outputs, tmp_path):
    case = next(c for c in same_outputs.cases() if c.name == "spectrum physical")
    result = same_outputs.run_case(ROOT, case, tmp_path)
    assert result["exit"] == 0 and result["stderr"] == b""
    rows = result["stdout"].decode("ascii").splitlines()
    assert rows[0] == "k,energy" and len(rows) == 1 + 12  # shells 0..round(sqrt(2) * 8)
    assert list(result["files"]) == ["seed.liens"]


def test_real_run_of_a_symbolic_case(same_outputs, tmp_path):
    """The child runs from the checkout, leaves ``result.json`` in the case's
    directory and writes nothing into ``perfbench``."""
    case = next(c for c in same_outputs.cases() if c.name == "symbolic-powers seed 1")
    before = sorted((ROOT / "perfbench").rglob("*"))
    result = same_outputs.run_case(ROOT, case, tmp_path)
    assert result["exit"] == 0 and result["stderr"] == b""
    assert sorted(result["files"]) == ["input.json", "out/result.json"]
    assert sorted((ROOT / "perfbench").rglob("*")) == before
