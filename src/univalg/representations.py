"""Finite-dimensional modules over the universal algebra as matrix tuples, and
the tensor-product Lie module construction they induce.

A matrix representation assigns a square matrix to each generator x_si; it is
valid when the matrices commute pairwise and every defining relation of A
evaluates to the zero matrix.  Direct sums, the intertwining test, the
commutators and the evaluation of relations are the shared ``linalg``
helpers ``block_diag``, ``intertwines``, ``noncommuting_pairs`` and
``evaluate``.
"""

from __future__ import annotations

from . import linalg
from .lie import LieModule, LinearMap, Report, Violation, is_module_morphism
from .linalg import Frozen, Mat
from .poly import _words
from .universal_algebra import UniversalAlgebra

ONE = 1


def _variables(owner: UniversalAlgebra) -> list[tuple[int, int]]:
    """The pairs (s, i) of the variables X[s,i] of A, in ring order."""
    return [(s, i) for s in range(1, owner.h.dim + 1) for i in range(1, owner.g.dim + 1)]


class MatrixARep:
    """A-module of dimension ``dim``: one matrix per variable X[s,i], column
    convention (column j = image of the j-th basis vector).  The matrices
    are held once, as one tuple of immutable matrices in the ring's variable
    order; the constructor takes them as a dict (s, i) -> matrix, a missing
    variable acting as zero."""

    def __init__(self, owner: UniversalAlgebra, dim: int, mats: dict[tuple[int, int], Mat],
                 name: str = ""):
        keys = _variables(owner)
        if not mats.keys() <= set(keys):
            raise ValueError("a matrix for a pair (s,i) that is no variable of A")
        self.owner = owner
        self.dim = dim
        zero = linalg.zeros(dim, dim)
        self.matrices = tuple(linalg.freeze(mats.get(key, zero)) for key in keys)
        if any(len(m) != dim or any(len(row) != dim for row in m) for m in self.matrices):
            raise ValueError("the generator matrices must be dim x dim")
        self.name = name

    @classmethod
    def counit(cls, owner: UniversalAlgebra) -> "MatrixARep":
        """The 1-dimensional module through the counit of B = A(h,h):
        x_si acts as delta_si."""
        if not owner.is_same_hg():
            raise ValueError("counit representation requires h = g")
        return cls(owner, 1, {(s, s): [[ONE]] for s in range(1, owner.h.dim + 1)},
                   name="counit")

    def matrix(self, s: int, i: int) -> Frozen:
        return self.matrices[self.owner.var_index(s, i)]

    def direct_sum(self, other: "MatrixARep") -> "MatrixARep":
        if self.owner != other.owner:
            raise ValueError("representations of different universal algebras")
        mats = {key: linalg.block_diag(a, b) for key, a, b in
                zip(_variables(self.owner), self.matrices, other.matrices)}
        return MatrixARep(self.owner, self.dim + other.dim, mats,
                          name=f"{self.name}(+){other.name}")


def validate_arep(R: MatrixARep) -> Report:
    """Empty report iff all relation evaluations vanish and the generator
    matrices commute pairwise.  A relation is evaluated on each basis column
    from its evaluation words (``poly._words`` of its packed terms), the
    monomial of each key as the product M_0^e0 ... M_k^ek of the generator
    matrices in ring order."""
    if R.dim == 0:
        return Report()
    mats = R.matrices
    keys = _variables(R.owner)
    bad = [Violation("commutativity", keys[a] + keys[b], "nonzero commutator")
           for a, b in linalg.noncommuting_pairs(mats)]
    columns = linalg.identity(R.dim)
    for label, rel in zip(R.owner.labels, R.owner.relations):
        terms = _words(rel, R.owner.ring)
        if any(any(linalg.evaluate(terms, mats, {0: e}, R.dim)) for e in columns):
            bad.append(Violation("relation", label, "relation matrix nonzero"))
    return Report(tuple(bad))


class TensorGModule:
    """The Lie g-module on U (x) V: the action of f_i sends u_l (x) v_t to
    sum_j (e_j act u_l) (x) (x_ji . v_t), so its matrix is the Kronecker sum
    sum_j rho_U(e_j) (x) V(x_ji).

    Basis ordering is (l,t) lexicographic: u_l (x) v_t sits at position
    (l-1)*dim(V) + t.
    """

    def __init__(self, U: LieModule, V: MatrixARep):
        A = V.owner
        if U.algebra != A.h:
            raise ValueError("U must be a Lie module over the h of V's algebra")
        self.U = U
        self.V = V
        self.result = self._build()

    def _build(self) -> LieModule:
        """The Kronecker sums, written into the matrices: entry (s,p),(l,t)
        of rho_U(e_j) (x) V(x_ji) is rho_U(e_j)[s][l] V(x_ji)[p][t]."""
        A, U, V = self.V.owner, self.U, self.V
        q = V.dim
        dim = U.dim * q
        mats = [linalg.zeros(dim, dim) for _ in range(A.g.dim)]
        for i, mat in enumerate(mats, start=1):
            for j, u in enumerate(U.matrices, start=1):
                x = V.matrix(j, i)
                for s, urow in enumerate(u):
                    for l, w in enumerate(urow):
                        if not w:
                            continue
                        for p, xrow in enumerate(x):
                            out = mat[s * q + p]
                            for t, c in enumerate(xrow):
                                if c:
                                    out[l * q + t] += w * c
        return LieModule(A.g, mats, name=f"{U.name or 'U'}(x){V.name or 'V'}")

    def position(self, l: int, t: int) -> int:
        """1-based (l,t) -> 0-based tensor basis position."""
        return (l - 1) * self.V.dim + (t - 1)


def tensor_lie_module(U: LieModule, V: MatrixARep) -> TensorGModule:
    """Endow U (x) V with its Lie g-module structure."""
    return TensorGModule(U, V)


def is_arep_morphism(f: LinearMap, V: MatrixARep, W: MatrixARep) -> bool:
    """True iff f intertwines the generator matrices of V and W."""
    if f.source_dim != V.dim or f.target_dim != W.dim:
        raise ValueError("map dimensions do not match the representations")
    return linalg.intertwines(f.matrix, V.matrices, W.matrices)


def tensor_on_morphism(U: LieModule, g: LinearMap, V: MatrixARep,
                       W: MatrixARep) -> LinearMap:
    """id_U (x) g as a map between the two tensor Lie modules, checked
    equivariant."""
    if not is_arep_morphism(g, V, W):
        raise ValueError("g is not an A-module map")
    out = LinearMap.from_matrix(
        linalg.kron(linalg.identity(U.dim), g.mat()), U.dim * V.dim
    ) if U.dim and g.matrix else LinearMap.zero(U.dim * V.dim, U.dim * W.dim)
    if not is_module_morphism(out, tensor_lie_module(U, V).result,
                              tensor_lie_module(U, W).result):
        raise AssertionError("id (x) g failed the equivariance check")
    return out
