"""The universal algebra A(h,g) = Q[X_si]/J and, for h = g, the bialgebra
structure on B = A(h,h).

Variables X[s,i] are indexed by a basis index s of h and a basis index i of g,
ranked (s,i)-lexicographically.  J is generated by one polynomial per triple
(a,i,j): the linear combination of X_{au} prescribed by the bracket of g minus
the quadratic combination of X_{si}X_{tj} prescribed by the bracket of h.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import poly
from .lie import LieAlgebra, Report, Violation, validate_lie_algebra
from .linalg import Scalar
from .poly import (
    DEFAULT_PAIR_BUDGET,
    DEGREVLEX,
    GroebnerBasis,
    Monomial,
    MonomialOrder,
    PolyRing,
    Polynomial,
    mono_divides,
)

ZERO = 0
ONE = 1

# A tensor-square element: position pair -> polynomial in the doubled ring.
TensorSquareElement = dict[tuple[int, int], Polynomial]

# A normal form on integers: one positive denominator, the lcm of its
# coefficients' denominators, and the integer numerators by position.
Row = tuple[int, tuple[tuple[int, tuple[tuple[Monomial, int], ...]], ...]]


def algebra_ring(h: LieAlgebra, g: LieAlgebra, order: MonomialOrder = DEGREVLEX) -> PolyRing:
    names = [
        f"X[{s},{i}]" for s in range(1, h.dim + 1) for i in range(1, g.dim + 1)
    ]
    return PolyRing(names, order)


def universal_polynomials(
    h: LieAlgebra, g: LieAlgebra, ring: PolyRing | None = None
) -> list[Polynomial]:
    """The generators P_(a,i,j) of J in (a,i,j) order, zeros retained."""
    if ring is None:
        ring = algebra_ring(h, g)
    n, d = h.dim, g.dim

    def vidx(s: int, i: int) -> int:  # 1-based (s,i) -> variable index
        return (s - 1) * d + (i - 1)

    gens: list[Polynomial] = []
    for a in range(1, n + 1):
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                p = ring.zero()
                for u in range(1, d + 1):
                    beta = g.table[i - 1][j - 1][u - 1]
                    if beta:
                        p = p + ring.var(vidx(a, u)).scale(beta)
                for s in range(1, n + 1):
                    for t in range(1, n + 1):
                        tau = h.table[s - 1][t - 1][a - 1]
                        if tau:
                            p = p - (
                                ring.var(vidx(s, i)) * ring.var(vidx(t, j))
                            ).scale(tau)
                gens.append(p)
    return gens


def jgen_labels(h: LieAlgebra, g: LieAlgebra) -> list[tuple[int, int, int]]:
    return [
        (a, i, j)
        for a in range(1, h.dim + 1)
        for i in range(1, g.dim + 1)
        for j in range(1, g.dim + 1)
    ]


class UniversalAlgebra:
    """A(h,g) presented by its polynomial ring and the reduced Groebner basis
    of the relation ideal J."""

    def __init__(
        self,
        h: LieAlgebra,
        g: LieAlgebra,
        ring: PolyRing,
        jgens: list[Polynomial],
        gb: GroebnerBasis,
    ):
        self.h = h
        self.g = g
        self.ring = ring
        self.jgens = jgens
        self.labels = jgen_labels(h, g)
        self.gb = gb

    @property
    def nvars(self) -> int:
        return self.h.dim * self.g.dim

    def var_index(self, s: int, i: int) -> int:
        """1-based (s,i) -> 0-based variable index."""
        return (s - 1) * self.g.dim + (i - 1)

    def reduce(self, p: Polynomial) -> "AlgebraElement":
        if p.ring != self.ring:
            raise ValueError("polynomial from a different variable set")
        return AlgebraElement(self, poly.normal_form(p, self.gb))

    def is_same_hg(self) -> bool:
        return self.h.dim == self.g.dim and self.h.table == self.g.table

    def __repr__(self):
        return (
            f"UniversalAlgebra(h={self.h.name or self.h.dim}, "
            f"g={self.g.name or self.g.dim}, |gb|={len(self.gb)})"
        )


@dataclass(frozen=True)
class AlgebraElement:
    owner: UniversalAlgebra
    value: Polynomial  # always in normal form

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.owner, self.value + other.value)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.owner, self.value - other.value)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.owner.reduce(self.value * other.value)

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __str__(self):
        return poly.render(self.value)


def build_universal_algebra(
    h: LieAlgebra,
    g: LieAlgebra,
    order: MonomialOrder = DEGREVLEX,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> UniversalAlgebra:
    """Construct A(h,g) and verify the defining relations hold in it."""
    for L, which in ((h, "h"), (g, "g")):
        validate_lie_algebra(L).require(ValueError, f"{which} is not a Lie algebra")
    ring = algebra_ring(h, g, order)
    jgens = universal_polynomials(h, g, ring)
    gb = poly.groebner(jgens, ring, budget=budget)
    A = UniversalAlgebra(h, g, ring, jgens, gb)
    check_defining_relations(A).require(AssertionError,
                                        "defining relations fail in A(h,g)")
    return A


def check_defining_relations(A: UniversalAlgebra) -> Report:
    """Every generator P_(a,i,j) of J must have normal form zero in A."""
    bad = tuple(
        Violation("relation", label, "normal forms differ")
        for label, p in zip(A.labels, A.jgens)
        if not A.reduce(p).is_zero()
    )
    return Report(bad)


def monomial_basis_up_to_degree(A: UniversalAlgebra, dmax: int):
    """Standard monomials (not divisible by any gb lead monomial) of total
    degree <= dmax."""
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    leads = A.gb.lead_monomials()
    out = []
    for m in A.ring.monomials_up_to_degree(dmax):
        if not any(mono_divides(lm, m) for lm in leads):
            out.append(m)
    return out


def integer_row(components: dict[int, Polynomial]) -> Row:
    """A normal form, by position, as a Row (den, ((q, ((m, n), ...)), ...)),
    which stands for the sum of n/den x^m e_q."""
    den = lcm(*(c.denominator for p in components.values() for c in p.terms.values()))
    return (den, tuple(
        (q, tuple((m, c.numerator * (den // c.denominator)) for m, c in p.terms.items()))
        for q, p in components.items() if p.terms))


def tensor_normal_form(elem: TensorSquareElement, ring2: PolyRing,
                       row) -> TensorSquareElement:
    """Factor-wise canonical form in the tensor square of a presented module
    over A, its factors the two variable blocks of ``ring2``: their leads are
    coprime, so x^m1 x^m2 at (p1, p2) reduces to row(p1, m1) (x) row(p2, m2),
    ``row`` the presented module's memoising getter of its Rows.  The products
    and sums run on integers over one common denominator, divided out once per
    output coefficient."""
    n2 = ring2.nvars // 2
    gathered = []
    den = ONE
    for (p1, p2), q in elem.items():
        for m, c in q.terms.items():
            (d1, f1), (d2, f2) = row(p1, m[:n2]), row(p2, m[n2:])
            if f1 and f2:
                d = c.denominator * d1 * d2
                den = lcm(den, d)
                gathered.append((c.numerator, d, f1, f2))
    acc: dict[tuple[int, int], dict[Monomial, int]] = {}
    for c, d, f1, f2 in gathered:
        c *= den // d
        for q1, t1 in f1:
            for q2, t2 in f2:
                terms = acc.setdefault((q1, q2), {})
                for m1, c1 in t1:
                    c1 *= c
                    for m2, c2 in t2:
                        m12 = m1 + m2
                        terms[m12] = terms.get(m12, ZERO) + c1 * c2
    out: TensorSquareElement = {}
    for key, terms in acc.items():
        if den != ONE:
            for m, c in terms.items():
                q, r = divmod(c, den)
                terms[m] = Fraction(c, den) if r else q
        p = Polynomial(ring2, terms)
        if not p.is_zero():
            out[key] = p
    return out


# ---------------------------------------------------------------------------
# Bialgebra structure on B = A(h,h)
# ---------------------------------------------------------------------------


class BialgebraStructure:
    """Comultiplication x_ij -> sum_s x_is (x) x_sj and counit x_ij -> delta_ij
    on B = A(h,h), with machine-checked well-definedness.

    The tensor square of B is handled in the polynomial ring on the doubled
    variable set {X'[i,j]} u {X''[i,j]}, with ideal J' + J'', as the rank-1
    case of tensor_normal_form.
    """

    def __init__(self, owner: UniversalAlgebra):
        if not owner.is_same_hg():
            raise ValueError("bialgebra structure requires h = g")
        self.owner = owner
        n = owner.h.dim
        self.n = n
        names = [f"X'[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1)]
        names += [f"X''[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1)]
        self.tensor_ring = PolyRing(names, owner.ring.order)
        self._delta_images = self._build_delta_images()
        # monomial of A's ring -> integer terms of Delta(x^m) in the doubled ring
        self._deltas = {(0,) * (n * n): {(0,) * (2 * n * n): ONE}}
        # (0, monomial) -> the Row of the normal form of x^m in A
        self._rows: dict[tuple[int, Monomial], Row] = {}

    def _block_var(self, block: int, i: int, j: int) -> Polynomial:
        n = self.n
        return self.tensor_ring.var(block * n * n + (i - 1) * n + (j - 1))

    def _build_delta_images(self) -> list[Polynomial]:
        images = []
        n = self.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                p = self.tensor_ring.zero()
                for s in range(1, n + 1):
                    p = p + self._block_var(0, i, s) * self._block_var(1, s, j)
                images.append(p)
        return images

    def _delta_of_monomial(self, m: Monomial) -> dict[Monomial, int]:
        """Delta(x^m) = Delta(x^(m - e_i)) * Delta(x_i) for the first variable
        x_i of m, as integer terms, computed once per monomial."""
        d = self._deltas.get(m)
        if d is None:
            i = next(k for k, e in enumerate(m) if e)
            rest = m[:i] + (m[i] - 1,) + m[i + 1:]
            d = (Polynomial(self.tensor_ring, self._delta_of_monomial(rest))
                 * self._delta_images[i]).terms
            self._deltas[m] = d
        return d

    def delta_image(self, p: Polynomial) -> Polynomial:
        """Comultiplication as a ring map into the doubled ring, unreduced."""
        terms: dict[Monomial, Scalar] = {}
        for m, c in p.terms.items():
            for m2, d in self._delta_of_monomial(m).items():
                terms[m2] = terms.get(m2, ZERO) + c * d
        return Polynomial(self.tensor_ring, terms)

    def _row(self, pos: int, m: Monomial) -> Row:
        """The Row of the normal form of x^m in A, built once into ``_rows``."""
        r = self._rows.get((pos, m))
        if r is None:
            r = integer_row({pos: self.owner.reduce(self.owner.ring.monomial(m)).value})
            self._rows[(pos, m)] = r
        return r

    def delta(self, p: Polynomial) -> Polynomial:
        """Comultiplication reduced modulo J' + J'', factor-wise."""
        nf = tensor_normal_form({(0, 0): self.delta_image(p)}, self.tensor_ring,
                                self._row)
        return nf.get((0, 0), self.tensor_ring.zero())

    def epsilon(self, p: Polynomial) -> Scalar:
        """Counit: evaluate at X[i,j] = delta_ij."""
        n = self.n
        values = [
            ONE if i == j else ZERO
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
        return p.eval_scalars(values)

    @functools.cached_property
    def descent(self) -> Report:
        """epsilon kills J and Delta maps J into J'(x)k[X] + k[X](x)J'', on
        each generator P of J; computed once per structure."""
        bad: list[Violation] = []
        for label, p in zip(self.owner.labels, self.owner.jgens):
            eps = self.epsilon(p)
            if eps != 0:
                bad.append(Violation("counit-kills-ideal", label, f"eps(P) = {eps}"))
            if not self.delta(p).is_zero():
                bad.append(Violation("comult-descends", label,
                                     "Delta(P) not in tensor ideal"))
        return Report(tuple(bad))

    def laws(self) -> Report:
        """Coassociativity and counit laws on the generators x_ij, through the
        ring maps Delta(x)id, id(x)Delta, eps(x)id and id(x)eps out of the
        doubled ring.  Equality in a free ring implies it in the quotient."""
        bad: list[Violation] = []
        n, n2 = self.n, self.n * self.n
        ring = self.owner.ring
        triple = PolyRing(
            [f"X{b}[{i},{j}]" for b in (1, 2, 3)
             for i in range(1, n + 1) for j in range(1, n + 1)],
            ring.order,
        )
        tvars = [triple.var(k) for k in range(3 * n2)]
        into12 = [d.map_coeffs_and_vars(triple, tvars[:2 * n2])
                  for d in self._delta_images]
        into23 = [d.map_coeffs_and_vars(triple, tvars[n2:])
                  for d in self._delta_images]
        delta_id = into12 + tvars[2 * n2:]
        id_delta = tvars[:n2] + into23
        xs = [ring.var(k) for k in range(n2)]
        eps = [ring.const(self.epsilon(x)) for x in xs]
        eps_id = eps + xs
        id_eps = xs + eps
        for k, d in enumerate(self._delta_images):
            loc = (k // n + 1, k % n + 1)
            if (d.map_coeffs_and_vars(triple, delta_id)
                    != d.map_coeffs_and_vars(triple, id_delta)):
                bad.append(Violation("coassociativity", loc, "sides differ"))
            if (d.map_coeffs_and_vars(ring, eps_id) != xs[k]
                    or d.map_coeffs_and_vars(ring, id_eps) != xs[k]):
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
