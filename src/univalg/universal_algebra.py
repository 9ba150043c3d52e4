"""The universal algebra A(h,g) = Q[X_si]/J and, for h = g, the bialgebra
structure on B = A(h,h).

Variables X[s,i] are indexed by a basis index s of h and a basis index i of g,
ranked (s,i)-lexicographically.  J is generated by one polynomial per triple
(a,i,j): the linear combination of X_{au} prescribed by the bracket of g minus
the quadratic combination of X_{si}X_{tj} prescribed by the bracket of h.
These generators are written once, as the Groebner engine's packed terms
(``UniversalAlgebra.relations``), which the library reads as they are;
``universal_polynomials`` unpacks them into polynomials for callers.  Both
brackets are antisymmetric, so
P_(a,j,i) = -P_(a,i,j) and P_(a,i,i) = 0: the engine is handed the
independent half, i < j, and the relation certificate reads all of them.

The tensor square over B = A(h,h) is one class, ``TensorSquare``, at the
pairs (l, t) of a module's positions l*m + t: B (x) B is its case over A's
table at m = 1, and U(U) (x) U(U) of the coalgebra module its case over
U(U)'s table at m = dim U.  Its descent, its product and its normal form
(``tensor_normal_form``) serve both.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from . import poly
from .lie import LieAlgebra, Report, Violation
from .linalg import Scalar
from .poly import (
    DEFAULT_PAIR_BUDGET,
    DEGREVLEX,
    GroebnerBasis,
    MonomialOrder,
    MultiplicationTable,
    PolyRing,
    Polynomial,
    _Terms,
    mono_divides,
)

ZERO = 0
ONE = 1

# A tensor-square element: pair of table keys -> nonzero exact scalar.
TensorSquareElement = dict[tuple[int, int], Scalar]


def algebra_ring(h: LieAlgebra, g: LieAlgebra, order: MonomialOrder = DEGREVLEX) -> PolyRing:
    names = [
        f"X[{s},{i}]" for s in range(1, h.dim + 1) for i in range(1, g.dim + 1)
    ]
    return PolyRing(names, order)


def _universal_relations(h: LieAlgebra, g: LieAlgebra, ring: PolyRing) -> tuple[_Terms, ...]:
    """The generators P_(a,i,j) of J in (a,i,j) order as the engine's packed
    terms, key -> nonzero scalar, zeros retained as empty dicts.  The keys
    come from the nonzero structure constants only: beta^u_ij at X_au, and
    -tau^a_st at X_si X_tj, whose key is the sum of the two variables' keys;
    terms that cancel are dropped."""
    n, d = h.dim, g.dim
    x = poly._variable_keys(ring)  # x[s*d + i] is the key of X_(s+1,i+1)
    beta = [[[(u, c) for u, c in enumerate(g.table[i][j]) if c] for j in range(d)]
            for i in range(d)]
    tau = [[(s * d, t * d, c) for s in range(n) for t in range(n)
            if (c := h.table[s][t][a])] for a in range(n)]
    rels: list[_Terms] = []
    for a in range(n):
        for i in range(d):
            for j in range(d):
                terms = {x[a * d + u]: c for u, c in beta[i][j]}
                for s, t, c in tau[a]:
                    # Two of these terms meet only as X_si X_ti and X_ti X_si
                    # of an i = j triple, whose constants are opposite.
                    k = x[s + i] + x[t + j]
                    c = terms.pop(k, ZERO) - c
                    if c:
                        terms[k] = c
                rels.append(terms)
    return tuple(rels)


def universal_polynomials(
    h: LieAlgebra, g: LieAlgebra, ring: PolyRing | None = None
) -> list[Polynomial]:
    """The generators P_(a,i,j) of J in (a,i,j) order, zeros retained: the
    polynomials of ``_universal_relations``."""
    if ring is None:
        ring = algebra_ring(h, g)
    return [poly._polynomial(t, ring) for t in _universal_relations(h, g, ring)]


def jgen_labels(h: LieAlgebra, g: LieAlgebra) -> list[tuple[int, int, int]]:
    return [
        (a, i, j)
        for a in range(1, h.dim + 1)
        for i in range(1, g.dim + 1)
        for j in range(1, g.dim + 1)
    ]


class UniversalAlgebra:
    """A(h,g) presented by its polynomial ring and the generators of the
    relation ideal J as packed terms (``relations``, in the order of
    ``labels``).  Its reduced Groebner basis ``gb`` and multiplication table
    ``table`` are built on first read, under the given order and budget."""

    def __init__(self, h: LieAlgebra, g: LieAlgebra, order: MonomialOrder = DEGREVLEX,
                 budget: int = DEFAULT_PAIR_BUDGET):
        for L, which in ((h, "h"), (g, "g")):
            L.validation.require(ValueError, f"{which} is not a Lie algebra")
        self.h = h
        self.g = g
        self.ring = algebra_ring(h, g, order)
        self.relations = _universal_relations(h, g, self.ring)
        self.labels = jgen_labels(h, g)
        self.budget = budget

    @functools.cached_property
    def gb(self) -> GroebnerBasis:
        """The reduced Groebner basis G of J, computed from the generators
        with i < j only, so (G) lies in J; ``check_defining_relations`` then
        reduces every generator to zero, so J lies in (G), and (G) = J."""
        gb = poly.groebner([terms for (_, i, j), terms in zip(self.labels, self.relations)
                            if i < j], self.ring, budget=self.budget)
        check_defining_relations(self, gb).require(AssertionError,
                                                   "defining relations fail in A(h,g)")
        return gb

    @functools.cached_property
    def table(self) -> MultiplicationTable:
        return self.gb.multiplication_table()

    def var_index(self, s: int, i: int) -> int:
        """1-based (s,i) -> 0-based variable index."""
        return (s - 1) * self.g.dim + (i - 1)

    def is_same_hg(self) -> bool:
        return self.h.dim == self.g.dim and self.h.table == self.g.table

    def __eq__(self, other):
        return (isinstance(other, UniversalAlgebra)
                and (self.h, self.g, self.ring) == (other.h, other.g, other.ring))

    def __hash__(self):
        return hash((self.h, self.g, self.ring))

    def __repr__(self):
        return f"UniversalAlgebra(h={self.h.name or self.h.dim}, g={self.g.name or self.g.dim})"


def build_universal_algebra(h: LieAlgebra, g: LieAlgebra, order: MonomialOrder = DEGREVLEX,
                            budget: int = DEFAULT_PAIR_BUDGET) -> UniversalAlgebra:
    """Construct A(h,g) and build its certified Groebner basis now
    (``UniversalAlgebra.gb``)."""
    A = UniversalAlgebra(h, g, order, budget)
    A.gb  # the first read builds and certifies it
    return A


def check_defining_relations(A: UniversalAlgebra, gb: GroebnerBasis | None = None) -> Report:
    """Every generator P_(a,i,j) of J, the i >= j half that the engine
    never read included, must leave an empty integer remainder modulo
    ``gb``, by default A's basis: so the basis spans all of J."""
    gb = A.gb if gb is None else gb
    bad = tuple(
        Violation("relation", label, "normal forms differ")
        for label, terms in zip(A.labels, A.relations)
        if not poly.ideal_contains(gb, terms)
    )
    return Report(bad)


def monomial_basis_up_to_degree(A: UniversalAlgebra, dmax: int):
    """Standard monomials (not divisible by any gb lead monomial) of total
    degree <= dmax, ascending in the ring order.

    They form an order ideal, so they are walked degree by degree: each
    standard monomial m is extended by each x_i whose index is at least the
    highest index among m's variables, which reaches every monomial once,
    and the product is kept when no lead divides it.  A lead that divides
    m x_i but not m has the exponent of x_i that m x_i has, so only those
    leads are tested."""
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    leads = A.gb.lead_monomials()
    n = A.ring.nvars
    one = (0,) * n
    level = [] if any(mono_divides(lm, one) for lm in leads) else [(one, 0)]
    out = [m for m, _ in level]
    for _ in range(dmax):
        nxt = []
        for m, high in level:
            for i in range(high, n):
                e = m[:i] + (m[i] + 1,) + m[i + 1:]
                if not any(lm[i] == e[i] and mono_divides(lm, e) for lm in leads):
                    nxt.append((e, i))
        out += [m for m, _ in nxt]
        level = nxt
    out.sort(key=A.ring.order.key)
    return out


def tensor_normal_form(elem: TensorSquareElement,
                       table: MultiplicationTable) -> TensorSquareElement:
    """Factor-wise canonical form in the tensor square of a presented module
    over A, whose terms are pairs of ``table``'s keys: the two factors'
    leads are coprime, so t1 (x) t2 reduces to row(t1) (x) row(t2).  The
    products and sums run on integers over one common denominator, divided
    out once per output coefficient."""
    row, gathered, den = table.row, [], ONE
    for (k1, k2), c in elem.items():
        (d1, f1), (d2, f2) = row(k1), row(k2)
        if f1 and f2:
            d = c.denominator * d1 * d2
            den = lcm(den, d)
            gathered.append((c.numerator, d, f1, f2))
    acc: dict[tuple[int, int], int] = {}
    for c, d, f1, f2 in gathered:
        c *= den // d
        for u1, n1 in f1.items():
            n1 *= c
            for u2, n2 in f2.items():
                key = (u1, u2)
                acc[key] = acc.get(key, ZERO) + n1 * n2
    return {key: n // den if n % den == 0 else Fraction(n, den)
            for key, n in acc.items() if n}


def add_pairs(elem: TensorSquareElement, pairs: TensorSquareElement,
              c: Scalar = ONE) -> None:
    """elem += c * pairs, keeping only nonzero coefficients, an integral one
    as an int."""
    for key, d in pairs.items():
        if c != ONE:
            d *= c
        if key in elem:
            d += elem[key]
        if not d:
            elem.pop(key, None)
        else:
            elem[key] = d if type(d) is int or d.denominator != 1 else d.numerator


def _nonzero(acc: TensorSquareElement) -> TensorSquareElement:
    """The nonzero entries of ``acc``, an integral coefficient as an int."""
    return {key: c if type(c) is int or c.denominator != 1 else c.numerator
            for key, c in acc.items() if c}


class TensorSquare:
    """The tensor square over B of a presented module whose terms at position
    l*m + t stand for the pairs (l, t): U(U) (x) U(U) over U(U)'s table with
    m = dim U, and B (x) B over A's table at m = 1.  An element maps pairs of
    the table's keys to scalars.  Delta and epsilon take an element of the
    module as packed terms, key -> scalar, such as a relation or the integer
    terms of a table row: x^m e_(l,t) -> Delta(x^m) sum_s e_(l,s) (x) e_(s,t)
    and epsilon(x^m) delta_lt, Delta and epsilon of x^m read from B's tables
    by the monomial key that ``split`` gives."""

    def __init__(self, bial: BialgebraStructure, table: MultiplicationTable, m: int):
        self.bial = bial
        self.table = table
        self.m = m
        self._at = [table.shift(0, p) for p in range(m * m)]  # + e_0 -> e_p

    def normal_form(self, elem: TensorSquareElement) -> TensorSquareElement:
        """Factor-wise canonical form, rows from the module's table."""
        return tensor_normal_form(elem, self.table)

    def product(self, d1: TensorSquareElement, d2: TensorSquareElement
                ) -> TensorSquareElement:
        """(a1 (x) b1)(a2 (x) b2) = a1 a2 (x) b1 b2, unreduced, where a2 and b2
        are keys of monomials of B."""
        times, out = self.table.times, {}
        for (a1, b1), c1 in d1.items():
            for (a2, b2), c2 in d2.items():
                key = (times(a1, a2), times(b1, b2))
                out[key] = out.get(key, ZERO) + c1 * c2
        return _nonzero(out)

    def bmodule_act(self, i: int, j: int, elem: TensorSquareElement
                    ) -> TensorSquareElement:
        """x_ij * (y (x) t) = sum_s (x_is . y) (x) (x_sj . t): multiplication
        by the Delta-image of the variable."""
        bial = self.bial
        return self.product(elem, bial._delta_of_key(bial.variables[bial.owner.var_index(i, j)]))

    def delta_of_terms(self, terms: dict[int, Scalar]) -> TensorSquareElement:
        """Comultiplication, unreduced: each pair of Delta(x^m) moved to the
        positions (l, s) and (s, t) by ``shift``."""
        m, split, at = self.m, self.table.split, self._at
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
        """Counit: x^m e_(l,t) -> epsilon(x^m) delta_lt."""
        m, split, eps = self.m, self.table.split, self.bial._epsilon_of_key
        out = ZERO
        for k, c in terms.items():
            p, q = split(k)
            if p // m == p % m:
                out += c * eps(q)
        return out

    def descent(self, relations: Sequence[_Terms], labels: Sequence[tuple[int, ...]],
                counit_kind: str) -> Report:
        """Well-definedness on the quotient: epsilon and Delta kill every
        relation, read from its packed terms."""
        bad: list[Violation] = []
        for label, terms in zip(labels, relations):
            eps = self.epsilon_of_terms(terms)
            if eps != 0:
                bad.append(Violation(counit_kind, label, f"eps = {eps}"))
            if self.normal_form(self.delta_of_terms(terms)):
                bad.append(Violation("comult-descends", label,
                                     "Delta(relation) has nonzero normal form"))
        return Report(tuple(bad))


# ---------------------------------------------------------------------------
# Bialgebra structure on B = A(h,h)
# ---------------------------------------------------------------------------


class BialgebraStructure:
    """Comultiplication x_ij -> sum_s x_is (x) x_sj and counit x_ij -> delta_ij
    on B = A(h,h), with machine-checked well-definedness.

    B (x) B is ``square``, the TensorSquare over A's multiplication table at
    m = 1.  Delta and epsilon are two tables by monomial key, ``_deltas``
    (Delta(x^m) as pairs of keys with integer coefficients, a product in
    ``square``) and ``_epsilons`` (epsilon(x^m), 1 iff every variable of x^m
    is diagonal), seeded at 1 and at the variables, whose keys are
    ``variables`` in ring order, and read by the descent, the laws and the
    tensor square of U(U).
    """

    def __init__(self, owner: UniversalAlgebra):
        if not owner.is_same_hg():
            raise ValueError("bialgebra structure requires h = g")
        self.owner = owner
        n = owner.h.dim
        self.n = n
        one = owner.table.key(0, (0,) * (n * n))
        self.variables = x = poly._variable_keys(owner.ring)
        self._deltas = {one: {(one, one): ONE}} | {
            x[i * n + j]: {(x[i * n + s], x[s * n + j]): ONE for s in range(n)}
            for i in range(n) for j in range(n)}
        self._epsilons = {one: ONE} | {x[i * n + j]: int(i == j)
                                       for i in range(n) for j in range(n)}
        self.square = TensorSquare(self, owner.table, 1)

    def _of_key(self, memo: dict, key: int, product):
        """memo[key] for the monomial with ``key``, memo[t] being product(
        memo[t / x_i], memo[x_i]): filled once per monomial up its chain of
        divisors by a loop."""
        if key not in memo:
            table, chain = self.owner.table, [key]
            while chain[-1] not in memo:
                chain.append(table.factor(chain[-1])[0])
            for t in reversed(chain[:-1]):
                s, q = table.factor(t)
                memo[t] = product(memo[s], memo[q])
        return memo[key]

    def _delta_of_key(self, key: int) -> TensorSquareElement:
        """Delta(x^m) = Delta(x^m / x_i) Delta(x_i), unreduced."""
        return self._of_key(self._deltas, key, self.square.product)

    def _epsilon_of_key(self, key: int) -> int:
        """epsilon(x^m) = epsilon(x^m / x_i) epsilon(x_i)."""
        return self._of_key(self._epsilons, key, operator.mul)

    @functools.cached_property
    def descent(self) -> Report:
        """epsilon kills J and Delta maps J into J'(x)k[X] + k[X](x)J'', on
        each generator P of J: the descent of B's own square over A's
        relations, computed once per structure."""
        return self.square.descent(self.owner.relations, self.owner.labels,
                                   "counit-kills-ideal")

    def laws(self) -> Report:
        """Coassociativity and counit laws on the generators x_ij, in the free
        tensor powers: (Delta (x) id) Delta and (id (x) Delta) Delta as triples
        of A's keys, (eps (x) id) Delta and (id (x) eps) Delta as keys.
        Equality in a free ring implies it in the quotient."""
        bad: list[Violation] = []
        delta, eps = self._delta_of_key, self._epsilon_of_key
        for k, x in enumerate(self.variables):
            left, right, eps_id, id_eps = {}, {}, {}, {}
            for (a, b), c in delta(x).items():
                add_pairs(left, {(a1, a2, b): e for (a1, a2), e in delta(a).items()}, c)
                add_pairs(right, {(a, b1, b2): e for (b1, b2), e in delta(b).items()}, c)
                add_pairs(eps_id, {b: c * eps(a)})
                add_pairs(id_eps, {a: c * eps(b)})
            loc = (k // self.n + 1, k % self.n + 1)
            if left != right:
                bad.append(Violation("coassociativity", loc, "sides differ"))
            if eps_id != {x: ONE} or id_eps != {x: ONE}:
                bad.append(Violation("counit-law", loc, "law fails"))
        return Report(tuple(bad))

    def verify(self) -> Report:
        """The descent report, then the laws."""
        return Report(self.descent.violations + self.laws().violations)


def bialgebra_structure(A: UniversalAlgebra) -> BialgebraStructure:
    """Equip B = A(h,h) with its comultiplication/counit and verify the
    bialgebra laws; raises on verification failure."""
    B = BialgebraStructure(A)
    B.verify().require(AssertionError, "bialgebra verification failed")
    return B
