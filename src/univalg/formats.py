"""Structured-text file formats for algebras, modules, matrix representations,
and morphisms, and report serialization.

All numbers are exact rational strings ("p/q" or "p"); no floating point.
Parsing errors carry the offending line.  The input formats are only
parsed here; their writers are the tests' (``tests/helpers.py``), which emit
canonical, sorted, deterministic text so that parse(render(x)) == x.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .lie import (
    LieAlgebra,
    LieModule,
    LinearMap,
    Report,
    validate_lie_module,
)
from .linalg import Mat, Scalar, scalar
from .representations import MatrixARep
from .universal_algebra import UniversalAlgebra

ZERO = 0


class ParseError(Exception):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class ValidationError(Exception):
    """Well-formed file describing an invalid object."""


# A rational is "p" or "p/q", q nonzero, and an integer is "p", in ASCII
# digits: no float syntax, whose exponent Fraction would expand, no
# underscores and no other digits.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _rat(path: str, line_no: int, text: str) -> Scalar:
    if not _RATIONAL.fullmatch(text):
        raise ParseError(path, line_no, f"bad rational {text!r}")
    return scalar(text)


def _int(path: str, line_no: int, text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ParseError(path, line_no, f"bad integer {text!r}")
    return int(text)


# The largest size a ``dim``, ``rows`` or ``cols`` line may give: tables are
# allocated from these sizes (an algebra's bracket table has dim**3 entries)
# before anything else is checked.
MAX_SIZE = 64


def _size(path: str, line_no: int, parts: list[str], seen: int | None,
          least: int = 0) -> int:
    """The integer argument of a ``<directive> <n>`` line, at least ``least``
    and at most MAX_SIZE; ``seen`` is the value of an earlier line of the same
    directive, if any."""
    if seen is not None:
        raise ParseError(path, line_no, f"repeated {parts[0]} line")
    if len(parts) != 2:
        raise ParseError(path, line_no, f"{parts[0]} takes one integer")
    n = _int(path, line_no, parts[1])
    if n < least:
        raise ParseError(path, line_no, f"{parts[0]} must be at least {least}")
    if n > MAX_SIZE:
        raise ParseError(path, line_no, f"{parts[0]} must be at most {MAX_SIZE}")
    return n


def _lines(path: str, text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line))
    return out


def _parse_pairs(path: str, no: int, parts: list[str]) -> list[tuple[int, Scalar]]:
    """Parse "s:c" coefficient pairs."""
    out = []
    for part in parts:
        if ":" not in part:
            raise ParseError(path, no, f"expected index:coefficient, got {part!r}")
        sidx, ctext = part.split(":", 1)
        out.append((_int(path, no, sidx), _rat(path, no, ctext)))
    return out


# ---------------------------------------------------------------------------
# Algebra files
# ---------------------------------------------------------------------------


def parse_algebra_text(text: str, path: str = "<string>") -> LieAlgebra:
    """Parse and validate a Lie algebra file.

    Format::

        algebra <name>
        dim <n>
        bracket <i> <j>: <s>:<p/q> [<s>:<p/q> ...]

    Omitted (i,j) pairs mean zero bracket; duplicate (i,j,s) entries are
    rejected.
    """
    L = _read_algebra_text(text, path)
    L.validation.require(ValidationError, f"{path}: not a Lie algebra")
    return L


def _read_algebra_text(text: str, path: str) -> LieAlgebra:
    """Parse the format of parse_algebra_text without checking the Lie
    axioms."""
    name = ""
    dim: int | None = None
    entries: dict[tuple[int, int], dict[int, Scalar]] = {}
    seen: set[tuple[int, int, int]] = set()
    for no, line in _lines(path, text):
        parts = line.split()
        if parts[0] == "algebra":
            name = parts[1] if len(parts) > 1 else ""
        elif parts[0] == "dim":
            dim = _size(path, no, parts, dim, least=1)
        elif parts[0] == "bracket":
            if dim is None:
                raise ParseError(path, no, "dim must come before bracket entries")
            head, _, tail = line.partition(":")
            hp = head.split()
            if len(hp) != 3 or not tail.strip():
                raise ParseError(path, no, "expected 'bracket i j: s:c ...'")
            i, j = _int(path, no, hp[1]), _int(path, no, hp[2])
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ParseError(path, no, f"index ({i},{j}) out of range 1..{dim}")
            for s, c in _parse_pairs(path, no, tail.split()):
                if not 1 <= s <= dim:
                    raise ParseError(path, no, f"index {s} out of range 1..{dim}")
                if (i, j, s) in seen:
                    raise ParseError(path, no, f"duplicate entry ({i},{j},{s})")
                seen.add((i, j, s))
                entries.setdefault((i, j), {})[s] = c
        else:
            raise ParseError(path, no, f"unknown directive {parts[0]!r}")
    if dim is None:
        raise ParseError(path, 1, "missing dim")
    return LieAlgebra.from_brackets(dim, entries, name=name)


def parse_algebra(path: str) -> LieAlgebra:
    with open(path) as fh:
        return parse_algebra_text(fh.read(), path)


# ---------------------------------------------------------------------------
# Module files (Lie modules and matrix representations of A)
# ---------------------------------------------------------------------------


@dataclass
class MatrixRepData:
    """Parsed assoc-matrix file; becomes a MatrixARep once A is built."""

    name: str
    over: str
    dim: int
    entries: dict[tuple[int, int], Mat] = field(default_factory=dict)

    def to_rep(self, A: UniversalAlgebra) -> MatrixARep:
        for (s, i) in self.entries:
            if not (1 <= s <= A.h.dim and 1 <= i <= A.g.dim):
                raise ValidationError(
                    f"variable pair ({s},{i}) out of range for the given algebras"
                )
        return MatrixARep(A, self.dim, dict(self.entries), name=self.name)


def parse_module_text(text: str, path: str = "<string>",
                      algebra: LieAlgebra | None = None
                      ) -> LieModule | MatrixRepData:
    """Parse a module file.

    Format (kind lie)::

        module <name>
        over <algebra name>
        kind lie
        dim <m>
        action <i> <j>: <s>:<p/q> ...       # b_i acting on u_j

    Format (kind assoc-matrix)::

        kind assoc-matrix
        mat <s> <i>: <k>:<p/q> ...          # matrix of x_si, k = (row-1)*dim+col

    For kind lie an ``algebra`` must be supplied to resolve the action table;
    the result is validated as a Lie module.  An entry line of the other kind
    is an error, wherever the kind line stands.
    """
    name = ""
    over = ""
    kind = "lie"
    dim: int | None = None
    lie_entries: list[tuple[int, int, int, list[tuple[int, Scalar]]]] = []
    mat_entries: dict[tuple[int, int], dict[int, Scalar]] = {}
    seen: set[tuple] = set()
    first: dict[str, int] = {}  # directive -> the first line using it
    for no, line in _lines(path, text):
        parts = line.split()
        first.setdefault(parts[0], no)
        if parts[0] == "module":
            name = parts[1] if len(parts) > 1 else ""
        elif parts[0] == "over":
            over = parts[1] if len(parts) > 1 else ""
        elif parts[0] == "kind":
            if len(parts) != 2 or parts[1] not in ("lie", "assoc-matrix"):
                raise ParseError(path, no, "kind must be lie or assoc-matrix")
            kind = parts[1]
        elif parts[0] == "dim":
            dim = _size(path, no, parts, dim)
        elif parts[0] == "action":
            if dim is None:
                raise ParseError(path, no, "dim must come before action entries")
            head, _, tail = line.partition(":")
            hp = head.split()
            if len(hp) != 3 or not tail.strip():
                raise ParseError(path, no, "expected 'action i j: s:c ...'")
            i, j = _int(path, no, hp[1]), _int(path, no, hp[2])
            if not 1 <= j <= dim:
                raise ParseError(path, no, f"index {j} out of range 1..{dim}")
            for s, c in _parse_pairs(path, no, tail.split()):
                if not 1 <= s <= dim:
                    raise ParseError(path, no, f"index {s} out of range 1..{dim}")
                if (i, j, s) in seen:
                    raise ParseError(path, no, f"duplicate entry ({i},{j},{s})")
                seen.add((i, j, s))
                lie_entries.append((no, i, j, [(s, c)]))
        elif parts[0] == "mat":
            if dim is None:
                raise ParseError(path, no, "dim must come before mat entries")
            head, _, tail = line.partition(":")
            hp = head.split()
            if len(hp) != 3 or not tail.strip():
                raise ParseError(path, no, "expected 'mat s i: k:c ...'")
            s, i = _int(path, no, hp[1]), _int(path, no, hp[2])
            for k, c in _parse_pairs(path, no, tail.split()):
                if not 1 <= k <= dim * dim:
                    raise ParseError(path, no, f"flat index {k} out of range")
                if (s, i, k) in seen:
                    raise ParseError(path, no, f"duplicate entry ({s},{i},{k})")
                seen.add((s, i, k))
                mat_entries.setdefault((s, i), {})[k] = c
        else:
            raise ParseError(path, no, f"unknown directive {parts[0]!r}")
    if dim is None:
        raise ParseError(path, 1, "missing dim")
    other = "mat" if kind == "lie" else "action"
    if other in first:
        raise ParseError(path, first[other], f"{other} line in a kind {kind} file")
    if kind == "assoc-matrix":
        entries = {}
        for (s, i), flat in mat_entries.items():
            m = [[ZERO] * dim for _ in range(dim)]
            for k, c in flat.items():
                m[(k - 1) // dim][(k - 1) % dim] = c
            entries[(s, i)] = m
        return MatrixRepData(name, over, dim, entries)
    if algebra is None:
        raise ValidationError(f"{path}: kind lie requires the algebra it is over")
    mats = [[[ZERO] * dim for _ in range(dim)] for _ in range(algebra.dim)]
    for no, i, j, pairs in lie_entries:
        if not 1 <= i <= algebra.dim:
            raise ParseError(path, no, f"index {i} out of range 1..{algebra.dim}")
        for s, c in pairs:
            mats[i - 1][s - 1][j - 1] = c
    M = LieModule(algebra, mats, name=name)
    validate_lie_module(M).require(ValidationError, f"{path}: not a Lie module")
    return M


def parse_module(path: str, algebra: LieAlgebra | None = None
                 ) -> LieModule | MatrixRepData:
    with open(path) as fh:
        return parse_module_text(fh.read(), path, algebra)


# ---------------------------------------------------------------------------
# Morphism files: a rational matrix, column j = image of the j-th basis vector
# ---------------------------------------------------------------------------


def parse_morphism_text(text: str, path: str = "<string>") -> LinearMap:
    """Format::

        morphism <name>
        rows <r>
        cols <c>
        row <k>: <p/q> <p/q> ...
    """
    rows: int | None = None
    cols: int | None = None
    data: dict[int, list[Scalar]] = {}
    for no, line in _lines(path, text):
        parts = line.split()
        if parts[0] == "morphism":
            pass
        elif parts[0] == "rows":
            rows = _size(path, no, parts, rows)
        elif parts[0] == "cols":
            cols = _size(path, no, parts, cols)
        elif parts[0] == "row":
            if rows is None or cols is None:
                raise ParseError(path, no, "rows/cols must come before row entries")
            head, _, tail = line.partition(":")
            hp = head.split()
            if len(hp) != 2:
                raise ParseError(path, no, "expected 'row k: c c ...'")
            k = _int(path, no, hp[1])
            if not 1 <= k <= rows:
                raise ParseError(path, no, f"row index {k} out of range")
            if k in data:
                raise ParseError(path, no, f"duplicate row {k}")
            vals = [_rat(path, no, t) for t in tail.split()]
            if len(vals) != cols:
                raise ParseError(path, no, f"expected {cols} entries, got {len(vals)}")
            data[k] = vals
        else:
            raise ParseError(path, no, f"unknown directive {parts[0]!r}")
    if rows is None or cols is None:
        raise ParseError(path, 1, "missing rows/cols")
    mat = [data.get(k, [ZERO] * cols) for k in range(1, rows + 1)]
    return LinearMap.from_matrix(mat, cols)


def parse_morphism(path: str) -> LinearMap:
    with open(path) as fh:
        return parse_morphism_text(fh.read(), path)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def render_report(title: str, report: Report) -> str:
    out = [f"check {title}", f"status {'pass' if report.ok else 'fail'}"]
    for v in report.violations:
        loc = ",".join(str(x) for x in v.location)
        out.append(f"item {v.check} ({loc}): {v.witness}")
    return "\n".join(out) + "\n"
