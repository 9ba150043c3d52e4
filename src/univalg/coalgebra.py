"""Coalgebra structure on U(U) = U(U,U) for h = g, its comodule and
B-module-coalgebra certificates, and the universal coalgebra map.

An element of the tensor square U(U) (x) U(U) maps pairs of keys of U(U)'s
multiplication table, one key per factor, to scalars.  Its canonical form is
universal_algebra.tensor_normal_form, the one that B (x) B uses at rank 1: it
multiplies the rows of the two factors, nf(x^m e_p) from U(U)'s table, which
decides equality in the quotient tensor square without a second Groebner
computation, and every TensorSquare over one U(U) shares those rows.  Delta
and epsilon of U(U) take packed terms, a relation or a table row's integer
terms, and read B's tables of Delta and epsilon by monomial key, Delta
placed at positions by additions of keys; the action of B multiplies keys.
A certificate equation is decided by one normal form of the integer
difference of its sides, cleared by the row's denominator, since that
normal form is linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, modgb
from .lie import LinearMap, Report, Violation
from .linalg import Scalar, Vec
from .modgb import ModuleVector
from .representations import MatrixARep
from .universal_algebra import (
    BialgebraStructure,
    TensorSquareElement,
    add_pairs,
    bialgebra_structure,
    tensor_normal_form,
)
from .universal_modules import (
    FactorizationResult,
    UniversalAModule,
    factorize_through_universal,
)

ZERO = 0
ONE = 1


def _nonzero(acc: TensorSquareElement) -> TensorSquareElement:
    """The nonzero entries of ``acc``, an integral coefficient as an int."""
    return {key: c if type(c) is int or c.denominator != 1 else c.numerator
            for key, c in acc.items() if c}


class TensorSquare:
    """The tensor square of a presented module U(U,Z), its terms pairs of
    keys of U(U)'s multiplication table, with a factor-wise canonical form.
    Delta and epsilon take an element of U(U) as packed terms, key ->
    scalar, such as a relation or the integer terms of a table row."""

    def __init__(self, um: UniversalAModule, bial: BialgebraStructure):
        self.um = um
        self.bial = bial
        self._at = [um.table.shift(0, p) for p in range(um.rank)]  # + e_0 -> e_p

    def normal_form(self, elem: TensorSquareElement) -> TensorSquareElement:
        """Factor-wise canonical form, rows from U(U)'s multiplication table."""
        return tensor_normal_form(elem, self.um.table)

    def bmodule_act(self, i: int, j: int, elem: TensorSquareElement
                    ) -> TensorSquareElement:
        """x_ij * (y (x) t) = sum_s (x_is . y) (x) (x_sj . t): multiplication
        by the Delta-image of the variable."""
        times = self.um.table.times
        factor = self.bial._delta_of_key(self.bial.variables[self.um.A.var_index(i, j)])
        out: TensorSquareElement = {}
        for (k1, k2), c in elem.items():
            for (a, b), d in factor.items():
                key = (times(k1, a), times(k2, b))
                out[key] = out.get(key, ZERO) + c * d
        return _nonzero(out)

    def delta_of_terms(self, terms: dict[int, Scalar]) -> TensorSquareElement:
        """Comultiplication, unreduced: x^m y_lt -> Delta(x^m) sum_s y_ls (x)
        y_st, Delta(x^m) read from B's table at the key that ``split`` gives
        and each pair moved to its positions by ``shift``."""
        m, split, at = self.um.U.dim, self.um.table.split, self._at
        out: TensorSquareElement = {}
        for k, c in terms.items():
            p, q = split(k)
            l, t = divmod(p, m)
            dq = self.bial._delta_of_key(q)
            for ls, st in zip(at[l * m:l * m + m], at[t::m]):
                for (a, b), d in dq.items():
                    key = (a + ls, b + st)
                    out[key] = out.get(key, ZERO) + c * d
        return _nonzero(out)

    def epsilon_of_terms(self, terms: dict[int, Scalar]) -> Scalar:
        """Counit: x^m y_lt -> epsilon(x^m) delta_lt."""
        m, split, eps = self.um.U.dim, self.um.table.split, self.bial._epsilon_of_key
        out = ZERO
        for k, c in terms.items():
            p, q = split(k)
            if p // m == p % m:
                out += c * eps(q)
        return out


def _bialgebra_of(um: UniversalAModule,
                  bial: BialgebraStructure | None) -> BialgebraStructure:
    """``bial``, or B built over the algebra of ``um`` when it is None;
    raises unless B is built over that algebra."""
    if bial is None:
        return bialgebra_structure(um.A)
    if bial.owner != um.A:
        raise ValueError("B is the bialgebra of another algebra")
    return bial


class CoalgebraOnU:
    """Delta and epsilon on U(U), with their well-definedness certificates."""

    def __init__(self, um: UniversalAModule, bial: BialgebraStructure | None = None):
        if not um.A.is_same_hg():
            raise ValueError("the coalgebra on U(U) requires h = g")
        if um.U != um.Z:
            raise ValueError("the coalgebra on U(U) requires Z = U")
        self.um = um
        self.bial = _bialgebra_of(um, bial)
        self.square = TensorSquare(um, self.bial)

    def delta(self, v: ModuleVector) -> TensorSquareElement:
        return self.square.normal_form(self.square.delta_of_terms(modgb._terms(v)))

    def epsilon(self, v: ModuleVector) -> Scalar:
        return self.square.epsilon_of_terms(modgb._terms(v))

    def verify(self) -> Report:
        """Well-definedness on the quotient: Delta and epsilon kill every
        relation, read from its packed terms.  The laws themselves are the
        comodule axioms, checked by verify_comodule."""
        bad: list[Violation] = []
        sq = self.square
        for label, terms in zip(self.um.rel_labels, self.um.relations):
            eps = sq.epsilon_of_terms(terms)
            if eps != 0:
                bad.append(Violation("counit-kills-relations", label, f"eps = {eps}"))
            if sq.normal_form(sq.delta_of_terms(terms)):
                bad.append(Violation("comult-descends", label,
                                     "Delta(relation) has nonzero normal form"))
        return Report(tuple(bad))

    def _delta_matches_coaction(self, l: int, r: int) -> bool:
        """Delta(y_lr), taken on its table row (den, n) = nf(y_lr), equals
        sum_s y_ls (x) y_sr, the u_l coordinate of (rho (x) id) o rho (u_r):
        Delta(n) - den sum_s y_ls (x) y_sr has normal form zero."""
        um, sq, key = self.um, self.square, self.um._key
        den, nums = um.table.row(key(um.pos(l, r)))
        w = sq.delta_of_terms(nums)
        add_pairs(w, {(key(um.pos(l, s)), key(um.pos(s, r))): den
                      for s in range(1, um.U.dim + 1)}, -ONE)
        return not sq.normal_form(w)

    def epsilon_by_factorization(self) -> FactorizationResult:
        """Recover epsilon as the factorization of can_U through the counit
        representation of B.  build_coalgebra does not run it: the counit
        axiom of verify_comodule checks epsilon(y_lr) = delta_lr on the
        epsilon that C uses."""
        um = self.um
        X = MatrixARep.counit(um.A)
        f = LinearMap.from_matrix(linalg.identity(um.U.dim))  # U -> U (x) k
        return factorize_through_universal(um, X, f)


def _require_module_of(um: UniversalAModule, C: CoalgebraOnU) -> None:
    """Raise unless ``um`` is the U(U) of ``C``: the same object, or one with
    the same A, U and Z."""
    if um is not C.um and (um.A, um.U, um.Z) != (C.um.A, C.um.U, C.um.Z):
        raise ValueError("C is the coalgebra of another module")


def bmodule_on_tensor_square(um: UniversalAModule,
                             bial: BialgebraStructure | None = None) -> Report:
    """The actions of B on the tensor square (x_ij by Delta(x_ij)) and on k
    (x_ij by eps(x_ij) = delta_ij) kill a relation P iff Delta(P) lies in the
    tensor ideal and eps(P) = 0: that is B's descent report."""
    if not um.A.is_same_hg():
        raise ValueError("the B-module structures require h = g")
    return _bialgebra_of(um, bial).descent


def build_coalgebra(um: UniversalAModule,
                    bial: BialgebraStructure | None = None) -> CoalgebraOnU:
    """Build and certify the coalgebra structure on U(U): its laws and the
    comodule axioms; raises on failure."""
    C = CoalgebraOnU(um, bial)
    C.verify().require(AssertionError, "coalgebra verification failed")
    verify_comodule(um, C).require(AssertionError, "comodule axioms fail")
    return C


def verify_comodule(um: UniversalAModule, C: CoalgebraOnU) -> Report:
    """Both right-comodule axioms for (U, rho) on every basis vector u_r of U:
    Delta matches the coaction (so Delta is the factorization of
    (rho (x) id) o rho) and epsilon(y_lr) = delta_lr, both read on the table
    row of y_lr."""
    _require_module_of(um, C)
    m = um.U.dim

    def counit(l: int, r: int) -> bool:
        den, nums = um.table.row(um._key(um.pos(l, r)))
        return C.square.epsilon_of_terms(nums) == (den if l == r else ZERO)

    return Report(tuple(
        Violation("comodule-axiom", (r,), "fails")
        for r in range(1, m + 1)
        if not all(C._delta_matches_coaction(l, r) and counit(l, r)
                   for l in range(1, m + 1))
    ))


def verify_bmodule_coalgebra(um: UniversalAModule, C: CoalgebraOnU) -> Report:
    """Delta(x_ab . y_lt) = x_ab . Delta(y_lt), with B acting on the tensor
    square through Delta of B, and eps(x_ab . y_lt) = delta_ab delta_lt, on
    all generator pairs.  x_ab . y_lt is its table row (den, n), so each
    Delta equation is one normal form of the integer difference
    Delta(n) - den x_ab . Delta(y_lt), and eps(n) must be den or 0."""
    _require_module_of(um, C)
    bad: list[Violation] = []
    um = C.um
    table, key, sq = um.table, um._key, C.square
    n = um.A.h.dim
    m = um.U.dim
    dy = {y: sq.delta_of_terms({y: ONE}) for y in map(key, range(um.rank))}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            xab = C.bial.variables[um.A.var_index(a, b)]
            for l in range(1, m + 1):
                for t in range(1, m + 1):
                    y = key(um.pos(l, t))
                    den, nums = table.row(table.times(y, xab))
                    diff = sq.delta_of_terms(nums)
                    add_pairs(diff, sq.bmodule_act(a, b, dy[y]), -den)
                    if sq.normal_form(diff):
                        bad.append(Violation("bmodule-coalgebra-delta",
                                             (a, b, l, t), "sides differ"))
                    eps = sq.epsilon_of_terms(nums)
                    if eps != (den if (a == b and l == t) else ZERO):
                        bad.append(Violation("bmodule-coalgebra-eps", (a, b, l, t),
                                             f"eps = {Fraction(eps, den)}"))
    return Report(tuple(bad))


# ---------------------------------------------------------------------------
# The universal coalgebra map
# ---------------------------------------------------------------------------


@dataclass
class FiniteCoalgebraModule:
    """A finite-dimensional coalgebra carrying a B-module structure."""

    rep: MatrixARep
    delta: LinearMap    # X -> X (x) X, rows ordered (t1,t2) lexicographically
    epsilon: LinearMap  # X -> k

    def validate(self) -> Report:
        bad: list[Violation] = []
        q = self.rep.dim
        d = self.delta.mat()
        # Coassociativity: (delta (x) id) delta = (id (x) delta) delta.
        left = linalg.mat_mul(linalg.kron(d, linalg.identity(q)), d) if q else []
        right = linalg.mat_mul(linalg.kron(linalg.identity(q), d), d) if q else []
        if left != right:
            bad.append(Violation("coassociativity", (), "matrices differ"))
        e = self.epsilon.mat()
        lid = linalg.mat_mul(linalg.kron(e, linalg.identity(q)), d) if q else []
        rid = linalg.mat_mul(linalg.kron(linalg.identity(q), e), d) if q else []
        if lid != linalg.identity(q) or rid != linalg.identity(q):
            bad.append(Violation("counit-law", (), "law fails"))
        return Report(tuple(bad))


def universal_coalgebra_map(
    um: UniversalAModule,
    C: CoalgebraOnU,
    X: FiniteCoalgebraModule,
    psi: LinearMap,
) -> dict[tuple[int, int], Vec]:
    """The unique B-module and coalgebra morphism theta: U(U) -> X induced by
    a comodule structure psi: U -> U (x) X; raises if any input check or any
    morphism property fails."""
    _require_module_of(um, C)
    X.validate().require(ValueError, "X is not a coalgebra")
    m, q = um.U.dim, X.rep.dim
    psi_m = psi.mat()
    # Comodule axioms for (U, psi).
    lhs = linalg.mat_mul(linalg.kron(psi_m, linalg.identity(q)), psi_m)
    rhs = linalg.mat_mul(linalg.kron(linalg.identity(m), X.delta.mat()), psi_m)
    if lhs != rhs:
        raise ValueError("psi fails the comodule coassociativity axiom")
    counit_side = linalg.mat_mul(linalg.kron(linalg.identity(m), X.epsilon.mat()),
                                 psi_m)
    if counit_side != linalg.identity(m):
        raise ValueError("psi fails the comodule counit axiom")
    # theta on generators comes from the factorization of psi, which raises
    # ValueError unless psi is a morphism of Lie h-modules.
    fact = factorize_through_universal(um, X.rep, psi)
    if not fact.ok:
        raise AssertionError("factorization of psi failed")
    theta = fact.images
    # Coalgebra morphism: Delta_X(theta(y_lt)) = sum_s theta(y_ls) (x)
    # theta(y_st) and eps_X(theta(y_lt)) = delta_lt.
    for l in range(1, m + 1):
        for t in range(1, m + 1):
            z = theta[(l, t)]
            left = X.delta.apply(z)
            right = [ZERO] * (q * q)
            for s in range(1, m + 1):
                zs, st = theta[(l, s)], theta[(s, t)]
                for t1 in range(q):
                    for t2 in range(q):
                        right[t1 * q + t2] += zs[t1] * st[t2]
            if left != right:
                raise AssertionError("theta is not a coalgebra map (Delta side)")
            eps = X.epsilon.apply(z)[0] if q else ZERO
            if eps != (ONE if l == t else ZERO):
                raise AssertionError("theta is not a coalgebra map (eps side)")
    return theta
