"""What the benchmark under ``perfbench/`` uses of the package still exists.

The benchmark's files are read, never imported or run: every ``import
liens...`` and ``from liens... import name`` in them must resolve, every call
they make to an imported name must bind to its signature, and every
attribute its tracer wraps must be there. The tracer skips a missing
attribute without a word, and a missing import or a call that no longer
binds fails every benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (module, attribute) pairs that perfbench/tracing.py wraps to time a layer.
# It also asks for names that no module defines, among them
# lie_propagator.fftn_forward, which nothing there calls, and skips them.
TRACED = [
    ("liens.grid_spectral", "fftn_forward"),
    ("liens.grid_spectral", "ifftn_real"),
    ("liens.leray", "fftn_forward"),
    ("liens.leray", "ifftn_real"),
    ("liens.lie_propagator", "ifftn_real"),
    ("liens.reference_oracles", "ns_rhs"),
    ("liens", "leray_project"),
    ("liens", "random_divfree"),
]


def package_references():
    """(file, module, name) of every package import in the benchmark's
    files; ``name`` is None for a plain ``import liens...``."""
    refs = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                refs += [(path.name, a.name, None) for a in node.names
                         if a.name.split(".")[0] == "liens"]
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "liens"):
                refs += [(path.name, node.module, a.name) for a in node.names]
    return refs


def test_benchmark_imports_resolve():
    refs = package_references()
    assert {file for file, _, _ in refs} >= {"run.py", "tracing.py", "workloads.py"}
    missing = []
    for file, module, name in refs:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            missing.append(f"{file}: import {module}")
            continue
        if name is not None and not hasattr(mod, name):
            missing.append(f"{file}: from {module} import {name}")
    assert not missing, missing


def package_calls():
    """(file, line, module, name, positional count, keyword names) of every
    call in the benchmark's files to a name imported from the package."""
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "liens"):
                imported.update({a.asname or a.name: (node.module, a.name) for a in node.names})
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in imported):
                calls.append((path.name, node.lineno, *imported[node.func.id],
                              len(node.args), [k.arg for k in node.keywords]))
    return calls


def test_benchmark_calls_bind():
    calls = package_calls()
    assert any(file == "tracing.py" and name == "step" for file, _, _, name, _, _ in calls)
    unbound = []
    for file, line, module, name, npos, keywords in calls:
        signature = inspect.signature(getattr(importlib.import_module(module), name))
        try:
            signature.bind(*[None] * npos, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{file}:{line}: {name}: {exc}")
    assert not unbound, unbound


@pytest.mark.parametrize("module,attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_attributes_exist(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
