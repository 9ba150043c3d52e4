"""Static checks on the sources of univalg."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "univalg"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never uses.

    A name counts as used when it appears as a name anywhere in the module
    (annotations included) or as a string in ``__all__``, which is how a
    package re-exports what it imports.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return [
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    src = "from . import linalg\nfrom .lie import LieAlgebra\n\nx = LieAlgebra\n"
    assert unused_imports(src) == ["line 1: linalg"]
    used = "from . import linalg\n\n\ndef f() -> None:\n    linalg.zeros(1, 1)\n"
    assert unused_imports(used) == []


def true_divisions(source: str) -> list[str]:
    """Every ``/`` and ``/=`` in a module.  Scalars are ``int | Fraction``, so
    ``a / b`` on two ints would be an inexact float; a quotient goes through
    ``Fraction(a, b)`` instead."""
    found = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in found]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_true_division(path):
    assert true_divisions(path.read_text()) == []


def test_true_division_is_reported():
    src = "def f(a, b):\n    q = a / b\n    q /= 2\n    return q\n"
    assert true_divisions(src) == ["line 2: a / b", "line 3: q /= 2"]
    exact = (
        "from fractions import Fraction\n\n\n"
        "def f(a, b):\n    return Fraction(a, b) + a // b + a % b\n"
    )
    assert true_divisions(exact) == []


def _names(node: ast.AST) -> set[str]:
    """Every name a syntax tree refers to: variables, attributes, imported
    names and strings that are identifiers (``__all__``, ``setattr``)."""
    names: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if n.value.isidentifier():
                names.add(n.value)
    return names


def dead_private_helpers(sources: dict[str, str], users: list[str]) -> list[str]:
    """Module-level private functions and classes of ``sources`` (file name ->
    text) that no other top-level statement names, in ``sources`` or in
    ``users``.  A helper that only names itself, by recursion, is dead."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    statements += [stmt for text in users for stmt in ast.parse(text).body]
    named = [(stmt, _names(stmt)) for stmt in statements]
    dead = []
    for file, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(other is not stmt and name in names for other, names in named):
                dead.append(f"{file} line {stmt.lineno}: {name}")
    return dead


def test_no_dead_private_helpers():
    tests = Path(__file__).resolve().parent
    assert dead_private_helpers(
        {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))},
        [path.read_text() for path in sorted(tests.rglob("*.py"))],
    ) == []


def test_dead_private_helper_is_reported():
    src = (
        "def _used():\n    return 1\n\n\n"
        "def _dead(n):\n    return _dead(n - 1) if n else 0\n\n\n"
        "class _Dead:\n    pass\n\n\n"
        "x = _used()\n"
    )
    assert dead_private_helpers({"m.py": src}, []) == [
        "m.py line 5: _dead", "m.py line 9: _Dead"]
    assert dead_private_helpers({"m.py": src}, ["from m import _dead, _Dead\n"]) == []
