"""Each parameter rule is worded in one definition.

The package's sources are read, never imported: a string or f-string
constant that words the positive-finite, finite-nonnegative or grid-points
rule may appear only in the module-level assignment that defines the rule.
A check restated at a call site would word it again and fail here; call the
rule.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liens"

# The wording of each rule and the one (file, rule name) allowed to hold it.
RULES = {
    "must be positive and finite": ("errors.py", "positive_finite"),
    "must be finite and nonnegative": ("errors.py", "finite_nonnegative"),
    "must be a power of two": ("grid_spectral.py", "grid_points"),
}


def wordings():
    """(file, enclosing definition or None, phrase) for every string
    constant in the package that holds a rule's wording. A definition is a
    function, a class or a module-level assignment to one name."""
    found = []

    def visit(node, file, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        elif (owner is None and isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            owner = node.targets[0].id
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.extend((file, owner, p) for p in RULES if p in node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, file, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    return found


def test_each_rule_is_worded_only_in_its_definition():
    found = wordings()
    strays = [f"{file}: {owner or '<module>'}: {phrase!r}"
              for file, owner, phrase in found if (file, owner) != RULES[phrase]]
    assert not strays, "rule restated outside its definition:\n" + "\n".join(strays)
    assert {phrase for _, _, phrase in found} == set(RULES)
