"""The universal A-module U(U,Z) and the universal Lie h-module V(V,W),
their structure maps, factorization through finite-dimensional targets, the
adjunction bijections, functoriality, and direct-sum preservation.

U(U,Z) is a finitely presented module over the polynomial ring of A.  Its
relations are the engine's packed terms, written once from the matrices of
U and Z, and the structure map is certified on them exactly: the component
at u_t of rho(f_j z_r) - f_j rho(z_r) is the relation (t, r, j), term by
term.  Its module Groebner basis ``mgb``, with the ideal of A folded in so
that element equality is decidable, and its multiplication table ``table``
(``poly.MultiplicationTable``, nf(x^m e_p) by packed term, filled on demand
as FGLM fills its multiplication matrices) are built on first read: by
``build_universal_amodule``, ``functor_on_morphism_U``, ``direct_sum_check``
and the coalgebra on U(U), which reads the table's rows as they are, but
never by the adjunction.  ModuleVectors appear only at ``relgens``,
``mgb.generators`` and ``PresentedMap.images``.  V(V,W) is kept as a
presentation over the enveloping algebra of h whose relations are PBW words
of length at most 1, written once as terms (p, word, c) straight from the
matrices, so no construction computes a PBW normal form.  Its element
equality is not decided, and it is probed through finite-dimensional
factorization targets.

Both adjunctions run one path.  Each universal object keeps its relations
once, as terms (p, word, c), and meets a target as an ``_Adjunction`` whose
tensor-layout table sends each generator to its free position, source column
and tensor rows, remembered for the last target: ``_factorize`` reads theta
off f and ``_gamma`` writes Gamma(theta) through that table.
``linalg.evaluate`` applies a word to images[p] by matrix-vector steps that
skip zeros, so no matrix of a polynomial or a PBW element is formed, and no
Groebner basis is read.

Both functors on morphisms run one path as well.  ``_induced`` writes the
generator images of the map that an equivariant f of the Lie g-module
arguments induces, y_(r,t) -> sum_r' f_r'r y_(r',t), and ``_unpreserved``
checks that the image of each relation (t, r, j) is sum_r' f_r'r times the
relation (t, r', j) of the target, term by term: this holds exactly when f
is equivariant, so the check reduces nothing.  ``direct_sum_check`` runs the
same check on the maps that the projections and injections induce and
composes their generator images exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator

from . import linalg, modgb
from .lie import LieModule, LinearMap, Report, Violation, direct_sum, is_module_morphism
from .linalg import Frozen, Mat, Scalar, Vec
from .modgb import FreeModule, ModuleVector
from .pbw import PBWElement
from .poly import DEFAULT_PAIR_BUDGET, MultiplicationTable, _unit_keys, _words, _Words
from .representations import MatrixARep, tensor_lie_module
from .universal_algebra import UniversalAlgebra

ZERO = 0


# ---------------------------------------------------------------------------
# The universal A-module U(U,Z)
# ---------------------------------------------------------------------------


class UniversalAModule:
    """U(U,Z) presented over the polynomial ring of A by the relation vectors
    of its defining family, with the ideal of A folded into the module basis."""

    def __init__(self, A: UniversalAlgebra, U: LieModule, Z: LieModule,
                 budget: int = DEFAULT_PAIR_BUDGET):
        if U.algebra != A.h:
            raise ValueError("U must be a Lie module over h")
        if Z.algebra != A.g:
            raise ValueError("Z must be a Lie module over g")
        self.A = A
        self.U = U
        self.Z = Z
        self.rank = U.dim * Z.dim
        self.free = FreeModule(A.ring, self.rank)
        self.budget = budget
        self._units = _unit_keys(A.ring, self.rank)
        self.relations, self.rel_labels = self._relations()
        self._last: tuple | None = None  # the last target of ``_adjunction``

    @cached_property
    def mgb(self) -> modgb.ModuleGroebnerBasis:
        """The module basis, with A's basis folded in, built on first read
        under the budget given at construction."""
        return modgb.module_buchberger(self.relations, self.A.gb, self.free,
                                       budget=self.budget)

    @cached_property
    def table(self) -> MultiplicationTable:
        return self.mgb.multiplication_table()

    @property
    def relgens(self) -> list[ModuleVector]:
        """The relations as vectors of the free module, made on each read."""
        return [modgb._vector(self.free, terms) for terms in self.relations]

    @cached_property
    def rel_terms(self) -> tuple[_Words, ...]:
        """The relations as (p, word, c) terms, for evaluation in targets."""
        return tuple(_words(terms, self.A.ring) for terms in self.relations)

    # generator ordering (s,r) lexicographic
    def pos(self, s: int, r: int) -> int:
        """1-based (U index s, Z index r) -> 0-based free-module position."""
        return (s - 1) * self.Z.dim + (r - 1)

    def _gen(self, r: int, t: int) -> int:
        """The position of y_tr, r indexing Z and t indexing U."""
        return self.pos(t, r)

    def _key(self, p: int, v: int = -1) -> int:
        """The packed key of x_v e_p, or of e_p when v is -1: ``_units[p]``
        holds those of e_p, x_0 e_p, ..., x_(n-1) e_p."""
        return self._units[p][v + 1]

    def _relations(self) -> tuple[list[dict[int, Scalar]], list[tuple[int, int, int]]]:
        """The relations (s, i, j) as packed terms, straight from the matrices:
        eta_jpi at y_sp and -omega_rst x_rj at y_ti."""
        A, U, Z, key = self.A, self.U, self.Z, self._key
        rels: list[dict[int, Scalar]] = []
        labels: list[tuple[int, int, int]] = []
        for s in range(1, U.dim + 1):
            for i in range(1, Z.dim + 1):
                for j in range(1, A.g.dim + 1):
                    terms = {key(self.pos(s, p)): zrow[i - 1]
                             for p, zrow in enumerate(Z.matrices[j - 1], start=1)
                             if zrow[i - 1]}
                    for t in range(1, U.dim + 1):
                        for r, u in enumerate(U.matrices, start=1):
                            if u[s - 1][t - 1]:
                                terms[key(self.pos(t, i), A.var_index(r, j))] = \
                                    -u[s - 1][t - 1]
                    rels.append(terms)
                    labels.append((s, i, j))
        return rels, labels

    def check_relations(self) -> Report:
        """Every defining relation must reduce to zero."""
        bad = tuple(
            Violation("module-relation", label, "nonzero normal form")
            for label, terms in zip(self.rel_labels, self.relations)
            if not self.mgb.contains(terms)
        )
        return Report(bad)

    def check_rho_equivariance(self) -> Report:
        """rho(f_j act z_r) = f_j act rho(z_r) for all basis (j, r): with f_j
        sending u_s (x) y_sr to sum_q sum_t omega_qst u_t (x) x_qj y_sr, the
        component at u_t of their difference, as packed terms, must be the
        stored relation (t, r, j) term by term.  Nothing is reduced, so a
        relation that differs fails even where it spans the true one."""
        A, U, Z, key = self.A, self.U, self.Z, self._key
        by_label = dict(zip(self.rel_labels, self.relations))
        bad: list[Violation] = []
        for j in range(1, A.g.dim + 1):
            for r in range(1, Z.dim + 1):
                diff = [{key(self.pos(t, p)): zrow[r - 1] for p, zrow
                         in enumerate(Z.matrices[j - 1], start=1) if zrow[r - 1]}
                        for t in range(1, U.dim + 1)]
                for s in range(1, U.dim + 1):
                    for q, u in enumerate(U.matrices, start=1):
                        k = key(self.pos(s, r), A.var_index(q, j))
                        for t in range(1, U.dim + 1):
                            if u[t - 1][s - 1]:
                                diff[t - 1][k] = -u[t - 1][s - 1]
                if any(d != by_label[t, r, j] for t, d in enumerate(diff, start=1)):
                    bad.append(Violation("rho-equivariance", (j, r), "nonzero"))
        return Report(tuple(bad))

    def _adjunction(self, X: MatrixARep) -> "_Adjunction":
        """U(U,Z) against X: y_sr sits at rows (s,t) of U (x) X, column r;
        remembered for the last target, by its algebras and matrices."""
        key = (X.owner.h, X.owner.g, X.dim, X.matrices)
        if self._last is None or self._last[0] != key:
            layout = [
                ((s, r), self.pos(s, r), r - 1,
                 [(s - 1) * X.dim + t for t in range(X.dim)])
                for r in range(1, self.Z.dim + 1) for s in range(1, self.U.dim + 1)
            ]
            self._last = key, _Adjunction(self.Z, tensor_lie_module(self.U, X),
                                          X.matrices, X.dim,
                                          self.rel_terms, self.rel_labels, layout)
        return self._last[1]


def build_universal_amodule(
    A: UniversalAlgebra, U: LieModule, Z: LieModule,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> UniversalAModule:
    """Construct U(U,Z), build its module basis now by verifying its defining
    relations in it, and verify the structure map; raises on failure."""
    um = UniversalAModule(A, U, Z, budget=budget)
    um.check_relations().require(AssertionError, "defining relations fail in U(U,Z)")
    um.check_rho_equivariance().require(AssertionError,
                                        "structure map is not equivariant")
    return um


# ---------------------------------------------------------------------------
# Factorization through a finite-dimensional A-module
# ---------------------------------------------------------------------------


@dataclass
class FactorizationResult:
    """The factoring map theta on generators, with the image of every relation
    under theta as its witness.  theta is unique because the generators
    generate the universal object; it is well defined when every witness is
    zero, and then Gamma(theta) = f is the commuting diagram."""

    images: dict[tuple[int, int], Vec]  # generator (1-based pair) -> target vector
    witnesses: dict[tuple[int, int, int], Vec]

    @property
    def ok(self) -> bool:
        return all(not any(w) for w in self.witnesses.values())


@dataclass(frozen=True)
class _Adjunction:
    """A universal object against one target.  ``layout`` holds one (key, free
    position, source column, tensor rows) per generator, column and rows from
    0, the rows in the order of the target's basis."""

    source: LieModule      # Z or W
    tensor: LieModule      # U (x) X or Y (x) V
    mats: tuple[Frozen, ...]  # the target's action matrices, indexed by word letters
    dim: int               # the target's dimension
    terms: tuple[_Words, ...]
    labels: list[tuple[int, int, int]]
    layout: list[tuple[tuple[int, int], int, int, list[int]]]

    def relation_images(self, theta: dict[tuple[int, int], Vec]) -> Iterator[Vec]:
        """The relations' images, one at a time, under theta on generators."""
        images = {pos: theta[key] for key, pos, _, _ in self.layout}
        return (linalg.evaluate(t, self.mats, images, self.dim) for t in self.terms)

    def matrix(self, theta: dict[tuple[int, int], Vec]) -> Mat:
        """The matrix of the map source -> tensor that theta determines."""
        mat = linalg.zeros(self.tensor.dim, self.source.dim)
        for key, _, col, rows in self.layout:
            for row, x in zip(rows, theta[key]):
                mat[row][col] = x
        return mat


def _factorize(adj: _Adjunction, f: LinearMap, into: str) -> FactorizationResult:
    """Read theta off the equivariant f through the layout table and witness
    that every relation maps to zero."""
    if not is_module_morphism(f, adj.source, adj.tensor):
        raise ValueError(f"f is not a morphism of Lie g-modules into {into}")
    fm = f.mat()
    theta = {key: [fm[row][col] for row in rows] for key, _, col, rows in adj.layout}
    return FactorizationResult(theta, dict(zip(adj.labels, adj.relation_images(theta))))


def _gamma(adj: _Adjunction, theta: dict[tuple[int, int], Vec], name: str) -> LinearMap:
    """The map that a well-defined theta on generators determines, checked
    equivariant."""
    keys = {key for key, _, _, _ in adj.layout}
    if theta.keys() != keys:
        raise ValueError("theta must be given on exactly the generators"
                         f" {sorted(keys)}")
    if any(len(v) != adj.dim for v in theta.values()):
        raise ValueError(f"theta: vector/target dimension mismatch (dim {adj.dim})")
    for label, img in zip(adj.labels, adj.relation_images(theta)):
        if any(img):
            raise ValueError(f"theta is ill-defined: relation {label}"
                             f" maps to {linalg.vec_str(img)}")
    f = LinearMap.from_matrix(adj.matrix(theta), adj.source.dim)
    if not is_module_morphism(f, adj.source, adj.tensor):
        raise AssertionError(f"{name} produced a non-equivariant map")
    return f


def factorize_through_universal(
    um: UniversalAModule, X: MatrixARep, f: LinearMap
) -> FactorizationResult:
    """Factor an equivariant f: Z -> U (x) X through the universal module."""
    return _factorize(um._adjunction(X), f, "U (x) X")


def gamma(um: UniversalAModule, X: MatrixARep,
          theta: dict[tuple[int, int], Vec]) -> LinearMap:
    """The adjunction bijection: a well-defined A-module map theta on the
    generators of U(U,Z) yields the equivariant map (Id_U (x) theta) o rho."""
    return _gamma(um._adjunction(X), theta, "gamma")


# ---------------------------------------------------------------------------
# Functoriality in the Lie g-module argument
# ---------------------------------------------------------------------------


def _collect(terms: Iterable[tuple[Hashable, Scalar]]) -> dict:
    """The terms (key, c) of a sum gathered by key, zeros dropped."""
    acc: dict = {}
    for key, c in terms:
        acc[key] = acc.get(key, ZERO) + c
    return {key: c for key, c in acc.items() if c}


@dataclass
class PresentedMap:
    """A-module map between presented modules, given by the normal forms of
    the images of the source generators as packed terms."""

    source: UniversalAModule
    target: UniversalAModule
    terms: dict[int, dict[int, Scalar]]

    @cached_property
    def images(self) -> dict[int, ModuleVector]:
        """The images as vectors of the target's free module, unpacked on
        first read."""
        return {p: modgb._vector(self.target.free, t) for p, t in self.terms.items()}


def _induced(x: UniversalAModule | UniversalLieHModule,
             y: UniversalAModule | UniversalLieHModule,
             f: LinearMap, others: int) -> dict[int, list[tuple[int, Scalar]]]:
    """The generator images of the map from x to y that f, a map of their
    Lie g-module arguments, induces: y_(r,t) -> sum_r' f_r'r y_(r',t), r
    indexing the Lie g-module argument and t, up to ``others``, the other
    argument (``_gen``); each image as (target position, coefficient) pairs."""
    return {x._gen(r, t): [(y._gen(rp, t), row[r - 1])
                           for rp, row in enumerate(f.matrix, 1) if row[r - 1]]
            for t in range(1, others + 1) for r in range(1, f.source_dim + 1)}


def _unpreserved(x: UniversalAModule | UniversalLieHModule,
                 y: UniversalAModule | UniversalLieHModule,
                 f: LinearMap, rels_x: list[dict], rels_y: list[dict],
                 image: Callable[[dict], dict]) -> tuple[int, int, int] | None:
    """The first relation (t, r, j) of x, if any, whose image ``image(rel)``
    under the induced map is not, term by term, sum_r' f_r'r times the
    relation (t, r', j) of y; the relations are dicts of terms.  The two
    differ by sum_r' ((f a_j - b_j f) e_r)_r' times generators of y, a_j and
    b_j the actions of g's j-th basis element on the Lie g-module arguments
    of x and y, so they agree exactly when f is equivariant, and no normal
    form is needed."""
    by_label = dict(zip(y.rel_labels, rels_y))
    for (t, r, j), rel in zip(x.rel_labels, rels_x):
        expected = _collect((k, row[r - 1] * c) for rp, row in enumerate(f.matrix, 1)
                            if row[r - 1] for k, c in by_label[t, rp, j].items())
        if _collect(image(rel).items()) != expected:
            return t, r, j
    return None


def _induced_U(
    um_x: UniversalAModule, um_y: UniversalAModule, f: LinearMap
) -> tuple[dict[int, dict[int, Scalar]], tuple[int, int, int] | None]:
    """The induced map's generator images as packed terms of U(U,Y), keyed
    once, and the first relation of U(U,X) they do not preserve, or None;
    a relation's image is the target's ``table.substitute``."""
    keyed = {p: {um_y._key(q): c for q, c in pairs}
             for p, pairs in _induced(um_x, um_y, f, um_x.U.dim).items()}
    return keyed, _unpreserved(um_x, um_y, f, um_x.relations, um_y.relations,
                               lambda rel: um_y.table.substitute(rel, keyed))


def functor_on_morphism_U(
    um_x: UniversalAModule, um_y: UniversalAModule, f: LinearMap
) -> PresentedMap:
    """The induced map U(U,X) -> U(U,Y) of an equivariant f: X -> Y, checked
    term by term on the relations (``_unpreserved``), with the normal forms
    of its generator images."""
    if um_x.A != um_y.A:
        raise ValueError("universal modules over different algebras")
    if um_x.U != um_y.U:
        raise ValueError("the Lie h-module argument must coincide")
    if not is_module_morphism(f, um_x.Z, um_y.Z):
        raise ValueError("f is not a morphism of Lie g-modules")
    keyed, label = _induced_U(um_x, um_y, f)
    if label:
        raise AssertionError(f"relation {label} not preserved by induced map")
    return PresentedMap(um_x, um_y, {p: um_y.mgb.remainder(t) for p, t in keyed.items()})


# ---------------------------------------------------------------------------
# Direct-sum preservation
# ---------------------------------------------------------------------------


def direct_sum_check(
    A: UniversalAlgebra, U: LieModule, W1: LieModule, W2: LieModule,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> Report:
    """Mutually inverse generator-level maps between U(U, W1 (+) W2) and
    U(U,W1) (+) U(U,W2): the maps induced by the projections preserve the
    relations of the sum (forward) and those induced by the injections the
    relations of each summand (backward), term by term, and both composites
    are the identity on generators (round trip), composed exactly."""
    ds = direct_sum(W1, W2)
    um_sum = build_universal_amodule(A, U, ds.module, budget=budget)
    um_1 = build_universal_amodule(A, U, W1, budget=budget)
    um_2 = build_universal_amodule(A, U, W2, budget=budget)
    (p1, lost_p1), (p2, lost_p2) = (_induced_U(um_sum, um_1, ds.proj1),
                                    _induced_U(um_sum, um_2, ds.proj2))
    (i1, lost_i1), (i2, lost_i2) = (_induced_U(um_1, um_sum, ds.inj1),
                                    _induced_U(um_2, um_sum, ds.inj2))
    bad: list[Violation] = []
    if lost_p1 or lost_p2:
        bad.append(Violation("direct-sum-forward", (), "relations not preserved"))
    if lost_i1 or lost_i2:
        bad.append(Violation("direct-sum-backward", (), "relations not preserved"))

    def composite(*maps) -> dict[int, dict[int, Scalar]]:
        """The sum of the composites a after b, on the generators of b's
        source; the tables over one ring share their keys."""
        return {p: _collect(chain.from_iterable(
            um_sum.table.substitute(b[p], a).items() for a, b in maps)) for p in maps[0][1]}

    def identity(um: UniversalAModule) -> dict[int, dict[int, Scalar]]:
        return {p: {um._key(p): 1} for p in range(um.rank)}

    # i1 p1 + i2 p2 = id on the sum, and p_a i_b = delta_ab id on the summands.
    if not (composite((i1, p1), (i2, p2)) == identity(um_sum)
            and composite((p1, i1)) == identity(um_1)
            and composite((p2, i2)) == identity(um_2)
            and not any(composite((p2, i1)).values())
            and not any(composite((p1, i2)).values())):
        bad.append(Violation("direct-sum-round-trip", (), "not identity"))
    return Report(tuple(bad))


# ---------------------------------------------------------------------------
# The universal Lie h-module V(V,W)
# ---------------------------------------------------------------------------


class PBWVector:
    """Element of the free module over the enveloping algebra of h:
    map from generator position to PBWElement."""

    __slots__ = ("vm", "components")

    def __init__(self, vm: "UniversalLieHModule", components: dict[int, PBWElement]):
        self.vm = vm
        self.components = {p: e for p, e in components.items() if not e.is_zero()}


class UniversalLieHModule:
    """V(V,W) as a presentation over the enveloping algebra of h; element
    equality in the quotient is not decided, only factorization through
    finite-dimensional Lie h-modules."""

    def __init__(self, A: UniversalAlgebra, V: MatrixARep, W: LieModule):
        if V.owner != A:
            raise ValueError("V is a module over a different universal algebra")
        if W.algebra != A.g:
            raise ValueError("W must be a Lie module over g")
        self.A = A
        self.V = V
        self.W = W
        self.rank = W.dim * V.dim
        self.rel_terms, self.rel_labels = self._relations()
        self._last: tuple | None = None  # the last target of ``_adjunction``

    @property
    def relgens(self) -> list[PBWVector]:
        """The relations as free PBW vectors, made on each read; a PBW word
        indexes h's basis from 1."""
        out = []
        for terms in self.rel_terms:
            comps: dict[int, dict[tuple[int, ...], Scalar]] = {}
            for p, w, c in terms:
                comps.setdefault(p, {})[tuple(t + 1 for t in w)] = c
            out.append(PBWVector(self, {p: PBWElement(self.A.h, e) for p, e in comps.items()}))
        return out

    # generator ordering (r,s) lexicographic
    def pos(self, r: int, s: int) -> int:
        """1-based (W index r, V index s) -> 0-based generator position."""
        return (r - 1) * self.V.dim + (s - 1)

    def _gen(self, r: int, t: int) -> int:
        """The position of y_rt, r indexing W and t indexing V."""
        return self.pos(r, t)

    def _relations(self) -> tuple[tuple[_Words, ...], list[tuple[int, int, int]]]:
        """The relations (s, r, j) as terms (p, word, c), straight from the
        matrices: sigma_jpr at y_ps and -gamma_tj[s][k] e_t at y_rk.  No two
        terms of a relation share a position and a word."""
        A, V, W = self.A, self.V, self.W
        rels: list[_Words] = []
        labels: list[tuple[int, int, int]] = []
        for s in range(1, V.dim + 1):
            for r in range(1, W.dim + 1):
                for j in range(1, A.g.dim + 1):
                    terms = [(self.pos(p, s), (), wrow[r - 1])
                             for p, wrow in enumerate(W.matrices[j - 1], start=1)
                             if wrow[r - 1]]
                    for t in range(1, A.h.dim + 1):
                        vrow = V.matrix(t, j)[s - 1]
                        terms += [(self.pos(r, k), (t - 1,), -gam)
                                  for k, gam in enumerate(vrow, start=1) if gam]
                    rels.append(tuple(terms))
                    labels.append((s, r, j))
        return tuple(rels), labels

    def _adjunction(self, Y: LieModule) -> "_Adjunction":
        """V(V,W) against Y: y_rs sits at rows (a,s) of Y (x) V, column r;
        remembered for the last target, by its algebra and matrices."""
        if Y.algebra != self.A.h:
            raise ValueError("target must be a Lie module over h")
        key = (Y.algebra, Y.dim, Y.matrices)
        if self._last is None or self._last[0] != key:
            layout = [
                ((r, s), self.pos(r, s), r - 1,
                 [a * self.V.dim + (s - 1) for a in range(Y.dim)])
                for r in range(1, self.W.dim + 1) for s in range(1, self.V.dim + 1)
            ]
            self._last = key, _Adjunction(self.W, tensor_lie_module(Y, self.V),
                                          Y.matrices, Y.dim,
                                          self.rel_terms, self.rel_labels, layout)
        return self._last[1]

    def tau_images(self) -> dict[int, list[tuple[int, int]]]:
        """tau(w_r) = sum_s y_rs (x) v_s, recorded as generator index pairs."""
        return {
            r: [(self.pos(r, s), s) for s in range(1, self.V.dim + 1)]
            for r in range(1, self.W.dim + 1)
        }


def build_universal_lie_hmodule(
    A: UniversalAlgebra, V: MatrixARep, W: LieModule
) -> UniversalLieHModule:
    return UniversalLieHModule(A, V, W)


def factorize_lie(
    vm: UniversalLieHModule, Y: LieModule, f: LinearMap
) -> FactorizationResult:
    """Factor an equivariant f: W -> Y (x) V through the universal Lie
    h-module: f(w_r) = sum_s theta(y_rs) (x) v_s."""
    return _factorize(vm._adjunction(Y), f, "Y (x) V")


def gamma_lie(vm: UniversalLieHModule, Y: LieModule,
              theta: dict[tuple[int, int], Vec]) -> LinearMap:
    """Adjunction bijection for V(V,W): theta on generators, well-defined,
    yields the equivariant map (theta (x) Id_V) o tau."""
    return _gamma(vm._adjunction(Y), theta, "gamma_lie")


@dataclass
class LiePresentedMap:
    """Generator-level map between V(V,X) and V(V,Y) presentations induced by
    an equivariant map of the Lie g-module arguments; the image of each
    generator is terms (p, word, c) of V(V,Y)."""

    source: UniversalLieHModule
    target: UniversalLieHModule
    images: dict[int, _Words]


def functor_on_morphism_V(
    vm_x: UniversalLieHModule, vm_y: UniversalLieHModule, f: LinearMap
) -> LiePresentedMap:
    """Induced map V(V,X) -> V(V,Y) of an equivariant f: X -> Y, checked term
    by term on the relations (``_unpreserved``).  The images of generators
    have words of length 0, so a term c w y_p maps to c w images[p]
    unnormalized."""
    if vm_x.A != vm_y.A or vm_x.V.matrices != vm_y.V.matrices:
        raise ValueError("the A-module argument must coincide")
    if not is_module_morphism(f, vm_x.W, vm_y.W):
        raise ValueError("f is not a morphism of Lie g-modules")
    images = _induced(vm_x, vm_y, f, vm_x.V.dim)
    rels_x, rels_y = ([{(p, w): c for p, w, c in rel} for rel in vm.rel_terms]
                      for vm in (vm_x, vm_y))
    label = _unpreserved(vm_x, vm_y, f, rels_x, rels_y, lambda rel: _collect(
        ((q, w), c * d) for (p, w), c in rel.items() for q, d in images[p]))
    if label:
        raise AssertionError(f"relation {label} not preserved by induced map")
    return LiePresentedMap(vm_x, vm_y, {
        p: tuple((q, (), c) for q, c in pairs) for p, pairs in images.items()})
