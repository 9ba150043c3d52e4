"""Static checks on the sources of univalg."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "univalg"


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


@pytest.mark.parametrize(
    "path", [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))],
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
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


def function_local_imports(source: str) -> list[str]:
    """Every import statement inside a function or method.  univalg's modules
    import one another without a cycle that would need one, so each import
    stands at the top of its module, where a reader sees what it depends on."""
    found = {
        inner for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))
    }
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in sorted(found, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert function_local_imports(path.read_text()) == []


def test_function_local_import_is_reported():
    src = (
        "import re\n\n\n"
        "def f():\n    from .poly import render\n\n"
        "    def g():\n        import os\n        return os\n\n"
        "    return render, g\n\n\n"
        "class C:\n    def m(self):\n        import sys\n        return sys\n"
    )
    assert function_local_imports(src) == [
        "line 5: from .poly import render", "line 8: import os", "line 16: import sys"]
    assert function_local_imports("import re\n\n\ndef f():\n    return re\n") == []


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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(sources: dict[str, str], users: list[str]):
    """The trees of ``sources`` (file name -> text), and every top-level
    statement of ``sources`` and ``users`` with the names it refers to."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    statements += [stmt for text in users for stmt in ast.parse(text).body]
    return trees, [(stmt, _names(stmt)) for stmt in statements]


def _named_elsewhere(name: str, stmt: ast.stmt, named) -> bool:
    return any(other is not stmt and name in names for other, names in named)


def dead_private_helpers(sources: dict[str, str], users: list[str]) -> list[str]:
    """Module-level private functions and classes of ``sources`` (file name ->
    text) that no other top-level statement names, in ``sources`` or in
    ``users``.  A helper that only names itself, by recursion, is dead."""
    trees, named = _parse(sources, users)
    dead = []
    for file, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, _DEFS):
                continue
            name = stmt.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not _named_elsewhere(name, stmt, named):
                dead.append(f"{file} line {stmt.lineno}: {name}")
    return dead


def dead_public_api(sources: dict[str, str], users: list[str]) -> list[str]:
    """Public module-level functions and classes of ``sources``, and public
    methods of their module-level classes, that nothing outside their own
    definition names, in ``sources`` or in ``users``.  Names are matched, not
    resolved: a method counts as used wherever any attribute of its name is
    read, and a re-export from a package's ``__init__`` counts as a use."""
    trees, named = _parse(sources, users)
    dead = []
    for file, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, _DEFS):
                continue
            if not stmt.name.startswith("_") and not _named_elsewhere(
                    stmt.name, stmt, named):
                dead.append(f"{file} line {stmt.lineno}: {stmt.name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            for meth in stmt.body:
                if not isinstance(meth, _DEFS) or meth.name.startswith("_"):
                    continue
                rest = [*stmt.bases, *stmt.keywords, *stmt.decorator_list,
                        *(node for node in stmt.body if node is not meth)]
                if not any(meth.name in _names(node) for node in rest) and \
                        not _named_elsewhere(meth.name, stmt, named):
                    dead.append(f"{file} line {meth.lineno}: {stmt.name}.{meth.name}")
    return dead


def _sources_and_users(*dirs: str) -> tuple[dict[str, str], list[str]]:
    """univalg's modules, and the code under ``dirs`` of the repository."""
    root = SRC.parent.parent
    users = [path for d in dirs for path in sorted((root / d).rglob("*.py"))]
    return ({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))},
            [path.read_text() for path in users])


def test_no_dead_private_helpers():
    # Only univalg's own code counts as a user: a private helper that only
    # tests call is dead code with a test around it.
    assert dead_private_helpers(*_sources_and_users()) == []


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


def test_no_dead_public_api():
    # As for private helpers, a test is not a user: a public name that only
    # tests call is dead code with a test around it.  The benchmark is a user.
    assert dead_public_api(*_sources_and_users("bench")) == []


def test_dead_public_api_is_reported():
    src = (
        "def used():\n    return Box().get()\n\n\n"
        "def dead(n):\n    return dead(n - 1) if n else 0\n\n\n"
        "class Box:\n"
        "    def get(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    def spare(self):\n        return self.spare()\n\n"
        "    def _private(self):\n        return 0\n\n\n"
        "class Unused:\n    pass\n"
    )
    assert dead_public_api({"m.py": src}, []) == [
        "m.py line 1: used", "m.py line 5: dead", "m.py line 16: Box.spare",
        "m.py line 23: Unused"]
    users = ["from m import used, dead, Unused\n\nused().spare()\n"]
    assert dead_public_api({"m.py": src}, users) == []


# The one function that may construct each Groebner basis type, as (file,
# function): a basis is always computed by the engine, never assembled by hand.
BASIS_BUILDERS = {
    "GroebnerBasis": ("poly.py", "groebner"),
    "ModuleGroebnerBasis": ("modgb.py", "module_buchberger"),
}


def hand_built_bases(sources: dict[str, str]) -> list[str]:
    """Every call constructing a Groebner basis type in ``sources`` (file name
    -> text) outside its builder, with the innermost enclosing function."""
    found = []

    def visit(file: str, node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            functions = (ast.FunctionDef, ast.AsyncFunctionDef)
            inner = child.name if isinstance(child, functions) else owner
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(
                    func, "id", None)
                if name in BASIS_BUILDERS and BASIS_BUILDERS[name] != (file, owner):
                    found.append(f"{file} line {child.lineno}: {name} in {owner}")
            visit(file, child, inner)

    for file, text in sources.items():
        visit(file, ast.parse(text), None)
    return found


def test_no_hand_built_bases():
    # The tests assemble no basis either: each one they read is the engine's.
    sources = {f"tests/{path.relative_to(TESTS)}": path.read_text()
               for path in sorted(TESTS.rglob("*.py"))}
    assert hand_built_bases({**_sources_and_users()[0], **sources}) == []


def test_hand_built_basis_is_reported():
    src = (
        "from . import poly\n\n\n"
        "def groebner(gens, ring):\n    return GroebnerBasis(ring, tuple(gens))\n\n\n"
        "class B:\n    def basis(self):\n        return poly.GroebnerBasis(self.ring, ())\n\n\n"
        "EMPTY = ModuleGroebnerBasis(None, ())\n"
    )
    assert hand_built_bases({"poly.py": src}) == [
        "poly.py line 10: GroebnerBasis in basis",
        "poly.py line 13: ModuleGroebnerBasis in None"]
    assert hand_built_bases({"other.py": src})[0] == "other.py line 5: GroebnerBasis in groebner"


# The fields of ``poly._Codec``: the packed-key format, which only poly reads.
CODEC_FIELDS = {"top", "sign", "guard", "emask", "bn", "low", "dmask"}


def engine_internals(sources: dict[str, str]) -> list[str]:
    """Every call of the reducer ``_reduce`` and every attribute named after a
    ``_Codec`` field in ``sources`` (file name -> text), outside ``poly.py``.
    Above the engine a reduction enters through a basis (``remainder``,
    ``contains``) or a multiplication table, and keys are moved by the
    table's methods.  Names are matched, not resolved."""
    found = []
    for file, text in sources.items():
        if file == "poly.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(
                    func, "id", None)
                if name == "_reduce":
                    found.append((file, node.lineno, node.col_offset, ast.unparse(func)))
            elif isinstance(node, ast.Attribute) and node.attr in CODEC_FIELDS:
                found.append((file, node.lineno, node.col_offset, ast.unparse(node)))
    return [f"{file} line {line}: {text}" for file, line, _, text in sorted(found)]


def test_no_engine_internals_outside_poly():
    assert engine_internals(_sources_and_users()[0]) == []


def test_engine_internal_is_reported():
    src = (
        "from .poly import _reduce\n\n\n"
        "def f(work, table, codec):\n"
        "    r, d = _reduce(work, table, codec)\n"
        "    return r, codec.top, poly._reduce(work, table, codec)\n"
    )
    assert engine_internals({"m.py": src}) == [
        "m.py line 5: _reduce", "m.py line 6: codec.top", "m.py line 6: poly._reduce"]
    assert engine_internals({"poly.py": src}) == []
    assert engine_internals({"m.py": "def f(table, key):\n    return table.split(key)\n"}) == []
