"""Lie algebras and their finite-dimensional modules as structure-constant
tables, with exhaustive axiom validators.

All indices are 1-based in reports to match the usual e_1..e_n conventions;
internally tables are 0-based dense nested lists of exact scalars, stored
once, as ints where integral (``linalg.scalar``), by the constructors.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .linalg import Mat, Scalar, Vec, scalar

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


def _bilinear(table: list[list[list[Scalar]]], x: Vec, y: Vec, dim: int) -> Vec:
    """The bilinear map of a structure-constant table: sum over i, j of
    x_i y_j table[i][j], a vector of length ``dim``."""
    out = [ZERO] * dim
    for xi, plane in zip(x, table):
        if not xi:
            continue
        for yj, row in zip(y, plane):
            if not yj:
                continue
            c = xi * yj
            for s, t in enumerate(row):
                if t:
                    out[s] += c * t
    return out


class LieAlgebra:
    """Lie algebra given by its bracket table c[i][j][s] with
    [b_i, b_j] = sum_s c[i][j][s] b_s (0-based internally)."""

    def __init__(self, dim: int, bracket: list[list[list[Scalar]]], name: str = ""):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.table = [[[scalar(x) for x in row] for row in plane] for plane in bracket]
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
        return _bilinear(self.table, x, y, self.dim)

    def basis_vector(self, i: int) -> Vec:
        """1-based basis vector."""
        v = [ZERO] * self.dim
        v[i - 1] = ONE
        return v

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
    """Module over a Lie algebra: action[i][j][s] with
    b_i acting on u_j = sum_s action[i][j][s] u_s (0-based)."""

    def __init__(
        self,
        algebra: LieAlgebra,
        dim: int,
        action: list[list[list[Scalar]]],
        name: str = "",
    ):
        if dim < 0:
            raise ValueError("dim must be non-negative")
        self.algebra = algebra
        self.dim = dim
        self.action = [[[scalar(x) for x in row] for row in plane] for plane in action]
        self.name = name
        # The matrix of each b_i (column convention), built once, immutable.
        self._matrices = tuple(
            tuple(tuple(plane[j][s] for j in range(dim)) for s in range(dim))
            for plane in self.action
        )

    @classmethod
    def trivial(cls, algebra: LieAlgebra, dim: int, name: str = "") -> "LieModule":
        return cls(algebra, dim, _table(algebra.dim, dim, dim), name or "trivial")

    @classmethod
    def adjoint(cls, algebra: LieAlgebra) -> "LieModule":
        return cls(algebra, algebra.dim, algebra.table, name="adjoint")

    @classmethod
    def from_matrices(
        cls, algebra: LieAlgebra, mats: list[Mat], name: str = ""
    ) -> "LieModule":
        """Matrices give the action of each basis element (column convention)."""
        dim = len(mats[0]) if mats else 0
        action = _table(algebra.dim, dim, dim)
        for i, m in enumerate(mats):
            for s in range(dim):
                for j in range(dim):
                    action[i][j][s] = m[s][j]
        return cls(algebra, dim, action, name)

    def action_matrix(self, i: int) -> tuple[tuple[Scalar, ...], ...]:
        """Matrix of the 1-based basis element b_i (column convention), as
        the immutable tuple built with the module."""
        return self._matrices[i - 1]

    def act(self, x: Vec, v: Vec) -> Vec:
        if len(x) != self.algebra.dim or len(v) != self.dim:
            raise ValueError("vector length mismatch in module action")
        return _bilinear(self.action, x, v, self.dim)

    def basis_vector(self, j: int) -> Vec:
        v = [ZERO] * self.dim
        v[j - 1] = ONE
        return v

    def __eq__(self, other):
        return (
            isinstance(other, LieModule)
            and self.algebra == other.algebra
            and self.dim == other.dim
            and self.action == other.action
        )

    def __repr__(self):
        return f"LieModule({self.name or ''} dim={self.dim} over {self.algebra!r})"


def validate_lie_module(M: LieModule) -> Report:
    """Check [x,y] act v = x act (y act v) - y act (x act v) on all basis data."""
    bad: list[Violation] = []
    n = M.algebra.dim
    for i in range(1, n + 1):
        xi = M.algebra.basis_vector(i)
        for j in range(1, n + 1):
            xj = M.algebra.basis_vector(j)
            bij = M.algebra.bracket(xi, xj)
            for r in range(1, M.dim + 1):
                v = M.basis_vector(r)
                lhs = M.act(bij, v)
                rhs_a = M.act(xi, M.act(xj, v))
                rhs_b = M.act(xj, M.act(xi, v))
                resid = [a - (b - c) for a, b, c in zip(lhs, rhs_a, rhs_b)]
                if any(resid):
                    bad.append(Violation("lie-module", (i, j, r),
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
        return cls(cols, rows, tuple(tuple(scalar(x) for x in r) for r in m))

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

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.source_dim, self.target_dim, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.matrix, other.matrix)
        ))


def is_module_morphism(f: LinearMap, M: LieModule, N: LieModule) -> bool:
    """True iff f(x act v) = x act f(v) on all basis pairs, that is
    F rho_M(x_i) = rho_N(x_i) F for every basis element x_i."""
    if M.algebra != N.algebra:
        raise ValueError("modules over different algebras")
    if f.source_dim != M.dim or f.target_dim != N.dim:
        raise ValueError("map dimensions do not match the modules")
    gens = range(1, M.algebra.dim + 1)
    return linalg.intertwines(f.matrix, map(M.action_matrix, gens),
                              map(N.action_matrix, gens))


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
    action = [linalg.block_diag(a1, a2) for a1, a2 in zip(M1.action, M2.action)]
    M = LieModule(M1.algebra, d, action,
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
