"""Lie algebras and their finite-dimensional modules as structure-constant
tables, with exhaustive axiom validators.

All indices are 1-based in reports to match the usual e_1..e_n conventions;
internally structures are 0-based.  Each is stored once, by its constructor,
as immutable tuples of exact scalars, ints where integral (``linalg.freeze``):
a Lie algebra as its bracket table c[i][j][s], a Lie module as the action
matrix of each basis element.  ``LieModule.adjoint`` is the one place that
turns a bracket table into matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .linalg import Frozen, Mat, Scalar, Vec, scalar

ZERO = 0
ONE = 1


@dataclass(frozen=True)
class Violation:
    check: str
    location: tuple[int, ...]
    witness: str

    def __str__(self):
        return f"{self.check} at {self.location}: {self.witness}"


@dataclass(frozen=True)
class Report:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok

    def require(self, error: type[Exception], what: str) -> None:
        """The one gate from a certificate to an exception: raise
        ``error(f"{what}:\\n{self}")`` unless the report passes."""
        if not self.ok:
            raise error(f"{what}:\n{self}")

    def __str__(self):
        if self.ok:
            return "pass"
        return "fail\n" + "\n".join(f"  {v}" for v in self.violations)


def _table(dim1: int, dim2: int, dim3: int) -> list[list[list[Scalar]]]:
    return [[[ZERO] * dim3 for _ in range(dim2)] for _ in range(dim1)]


def _combination(coeffs: Vec, mats: tuple[Frozen, ...], dim: int) -> Mat:
    """The dim x dim matrix sum_i coeffs[i] mats[i]."""
    out = linalg.zeros(dim, dim)
    for c, m in zip(coeffs, mats):
        if c:
            for orow, mrow in zip(out, m):
                for k, y in enumerate(mrow):
                    if y:
                        orow[k] += c * y
    return out


class LieAlgebra:
    """Lie algebra given by its bracket table c[i][j][s] with
    [b_i, b_j] = sum_s c[i][j][s] b_s (0-based internally)."""

    def __init__(self, dim: int, bracket: list[list[list[Scalar]]], name: str = ""):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.table = tuple(linalg.freeze(plane) for plane in bracket)
        self.name = name
        # Memo of pbw.normalize_word for this algebra: word -> PBW normal form.
        self._pbw_words: dict[tuple[int, ...], dict[tuple[int, ...], Scalar]] = {}

    @classmethod
    def abelian(cls, dim: int, name: str = "") -> "LieAlgebra":
        return cls(dim, _table(dim, dim, dim), name or f"abelian{dim}")

    @classmethod
    def from_brackets(
        cls, dim: int, entries: dict[tuple[int, int], dict[int, Scalar]],
        name: str = "", antisymmetrize: bool = False,
    ) -> "LieAlgebra":
        """Build from 1-based sparse entries {(i,j): {s: c}}.

        With ``antisymmetrize`` the (j,i) entries are filled in automatically.
        """
        table = _table(dim, dim, dim)
        for (i, j), row in entries.items():
            for s, c in row.items():
                c = scalar(c)
                table[i - 1][j - 1][s - 1] = c
                if antisymmetrize:
                    table[j - 1][i - 1][s - 1] = -c
        return cls(dim, table, name)

    def bracket(self, x: Vec, y: Vec) -> Vec:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        out = [ZERO] * self.dim
        for xi, plane in zip(x, self.table):
            if xi:
                for yj, row in zip(y, plane):
                    if yj:
                        c = xi * yj
                        for s, t in enumerate(row):
                            if t:
                                out[s] += c * t
        return out

    def basis_vector(self, i: int) -> Vec:
        """1-based basis vector."""
        v = [ZERO] * self.dim
        v[i - 1] = ONE
        return v

    @cached_property
    def validation(self) -> Report:
        """The report of ``validate_lie_algebra`` on the frozen table,
        computed on first read."""
        return validate_lie_algebra(self)

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self.table == other.table
        )

    def __hash__(self):
        return hash(self.dim)  # only what __eq__ compares; names may differ

    def __repr__(self):
        return f"LieAlgebra({self.name or 'dim=%d' % self.dim})"


def sl2() -> LieAlgebra:
    """sl(2) with [e1,e2]=e3, [e3,e2]=-2e2, [e3,e1]=2e1."""
    return LieAlgebra.from_brackets(
        3,
        {(1, 2): {3: ONE}, (3, 2): {2: -2}, (3, 1): {1: 2}},
        name="sl2",
        antisymmetrize=True,
    )


def validate_lie_algebra(L: LieAlgebra) -> Report:
    """Report every violated antisymmetry / Jacobi instance.

    Only nonzero structure constants are visited: an antisymmetry instance
    with both entries zero holds, and so does the Jacobi identity on a
    triple i < j < k whose brackets [b_i, b_j], [b_j, b_k] and [b_k, b_i]
    are all zero, so an abelian table visits no triple."""
    n, table = L.dim, L.table
    # (i, j) -> the nonzero (s, c[i][j][s]) of [b_i, b_j]
    nonzero = {(i, j): [(s, c) for s, c in enumerate(row) if c]
               for i, plane in enumerate(table)
               for j, row in enumerate(plane) if any(row)}
    bad: list[Violation] = []
    entries = {(a, b, s) for (i, j), terms in nonzero.items()
               for a, b in ((i, j), (j, i)) for s, _ in terms}
    for i, j, s in sorted(entries):
        if table[i][j][s] != -table[j][i][s]:
            bad.append(
                Violation(
                    "antisymmetry",
                    (i + 1, j + 1, s + 1),
                    f"c[{i+1}][{j+1}][{s+1}]={table[i][j][s]} vs "
                    f"-c[{j+1}][{i+1}][{s+1}]={-table[j][i][s]}",
                )
            )
    triples = {tuple(sorted((i, j, k))) for i, j in nonzero if i != j
               for k in range(n) if k != i and k != j}
    for i, j, k in sorted(triples):
        # the sum over the three cyclic (a, b, c) of [[b_a, b_b], b_c]
        acc: dict[int, Scalar] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for s, x in nonzero.get((a, b), ()):
                for t, y in nonzero.get((s, c), ()):
                    acc[t] = acc.get(t, ZERO) + x * y
        if any(acc.values()):
            residual = [acc.get(t, ZERO) for t in range(n)]
            bad.append(Violation("jacobi", (i + 1, j + 1, k + 1),
                                 f"residual {linalg.vec_str(residual)}"))
    return Report(tuple(bad))


class LieModule:
    """Module over a Lie algebra given by the action matrix of each basis
    element, column convention: b_i acting on u_j is
    sum_s matrices[i][s][j] u_s (0-based)."""

    def __init__(self, algebra: LieAlgebra, matrices: list[Mat], name: str = ""):
        self.algebra = algebra
        self.matrices = tuple(linalg.freeze(m) for m in matrices)
        self.dim = len(self.matrices[0]) if self.matrices else 0
        if len(self.matrices) != algebra.dim or any(
                len(m) != self.dim or any(len(row) != self.dim for row in m)
                for m in self.matrices):
            raise ValueError("a Lie module takes one square matrix of one size"
                             " per basis element of its algebra")
        self.name = name

    @classmethod
    def trivial(cls, algebra: LieAlgebra, dim: int, name: str = "") -> "LieModule":
        if dim < 0:
            raise ValueError("dim must be non-negative")
        return cls(algebra, [linalg.zeros(dim, dim)] * algebra.dim, name or "trivial")

    @classmethod
    def adjoint(cls, algebra: LieAlgebra) -> "LieModule":
        """ad(b_i) sends b_j to [b_i, b_j], so its entry (s, j) is c[i][j][s]."""
        return cls(algebra, [list(zip(*plane)) for plane in algebra.table], name="adjoint")

    @classmethod
    def from_matrices(
        cls, algebra: LieAlgebra, mats: list[Mat], name: str = ""
    ) -> "LieModule":
        """Matrices give the action of each basis element (column convention),
        as for the constructor."""
        return cls(algebra, mats, name)

    def act(self, x: Vec, v: Vec) -> Vec:
        if len(x) != self.algebra.dim or len(v) != self.dim:
            raise ValueError("vector length mismatch in module action")
        out = [ZERO] * self.dim
        for xi, m in zip(x, self.matrices):
            if not xi:
                continue
            for j, vj in enumerate(v):
                if vj:
                    c = xi * vj
                    for s, row in enumerate(m):
                        if row[j]:
                            out[s] += c * row[j]
        return out

    def basis_vector(self, j: int) -> Vec:
        v = [ZERO] * self.dim
        v[j - 1] = ONE
        return v

    def __eq__(self, other):
        return (
            isinstance(other, LieModule)
            and self.algebra == other.algebra
            and self.matrices == other.matrices
        )

    def __repr__(self):
        return f"LieModule({self.name or ''} dim={self.dim} over {self.algebra!r})"


def validate_lie_module(M: LieModule) -> Report:
    """Check rho([b_i, b_j]) = [rho(b_i), rho(b_j)]; the residual at
    (i, j, r) is column r of their difference."""
    bad: list[Violation] = []
    ms = M.matrices
    for i, (plane, mi) in enumerate(zip(M.algebra.table, ms), start=1):
        for j, (row, mj) in enumerate(zip(plane, ms), start=1):
            diff = linalg.mat_sub(_combination(row, ms, M.dim), linalg.commutator(mi, mj))
            for r in range(M.dim):
                resid = [drow[r] for drow in diff]
                if any(resid):
                    bad.append(Violation("lie-module", (i, j, r + 1),
                                         f"residual {linalg.vec_str(resid)}"))
    return Report(tuple(bad))


@dataclass(frozen=True)
class LinearMap:
    """Linear map given by its matrix; column j is the image of the j-th
    source basis vector."""

    source_dim: int
    target_dim: int
    matrix: tuple[tuple[Scalar, ...], ...]

    @classmethod
    def from_matrix(cls, m: Mat, source_dim: int | None = None) -> "LinearMap":
        rows = len(m)
        cols = len(m[0]) if m else (source_dim or 0)
        return cls(cols, rows, linalg.freeze(m))

    @classmethod
    def identity(cls, dim: int) -> "LinearMap":
        return cls.from_matrix(linalg.identity(dim))

    @classmethod
    def zero(cls, source_dim: int, target_dim: int) -> "LinearMap":
        return cls(source_dim, target_dim,
                   tuple(tuple([ZERO] * source_dim) for _ in range(target_dim)))

    def mat(self) -> Mat:
        return [list(r) for r in self.matrix]

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.source_dim:
            raise ValueError("vector length does not match map source")
        if self.target_dim == 0:
            return []
        return linalg.mat_vec(self.matrix, v)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.target_dim != self.source_dim:
            raise ValueError("composition dimension mismatch")
        if not self.matrix or not other.matrix:
            return LinearMap.zero(other.source_dim, self.target_dim)
        return LinearMap.from_matrix(linalg.mat_mul(self.mat(), other.mat()),
                                     other.source_dim)


def is_module_morphism(f: LinearMap, M: LieModule, N: LieModule) -> bool:
    """True iff f(x act v) = x act f(v) on all basis pairs, that is
    F rho_M(x_i) = rho_N(x_i) F for every basis element x_i."""
    if M.algebra != N.algebra:
        raise ValueError("modules over different algebras")
    if f.source_dim != M.dim or f.target_dim != N.dim:
        raise ValueError("map dimensions do not match the modules")
    return linalg.intertwines(f.matrix, M.matrices, N.matrices)


@dataclass(frozen=True)
class DirectSum:
    module: LieModule
    inj1: LinearMap
    inj2: LinearMap
    proj1: LinearMap
    proj2: LinearMap


def direct_sum(M1: LieModule, M2: LieModule) -> DirectSum:
    """Block-diagonal direct sum with injections and projections."""
    if M1.algebra != M2.algebra:
        raise ValueError("direct sum requires modules over the same algebra")
    d1, d = M1.dim, M1.dim + M2.dim
    M = LieModule(M1.algebra, [linalg.block_diag(a1, a2)
                               for a1, a2 in zip(M1.matrices, M2.matrices)],
                  name=f"{M1.name or '?'}(+){M2.name or '?'}")
    # The injections are column blocks, the projections row blocks, of 1_d.
    one = linalg.identity(d)
    return DirectSum(
        M,
        LinearMap.from_matrix([row[:d1] for row in one], d1),
        LinearMap.from_matrix([row[d1:] for row in one], d - d1),
        LinearMap.from_matrix(one[:d1], d),
        LinearMap.from_matrix(one[d1:], d),
    )
