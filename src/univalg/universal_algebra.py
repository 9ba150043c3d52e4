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

from . import poly
from .lie import LieAlgebra, Report, Violation, validate_lie_algebra
from .linalg import Scalar
from .poly import (
    DEFAULT_PAIR_BUDGET,
    DEGREVLEX,
    GroebnerBasis,
    MonomialOrder,
    PolyRing,
    Polynomial,
    mono_divides,
)

ZERO = 0
ONE = 1


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


# ---------------------------------------------------------------------------
# Bialgebra structure on B = A(h,h)
# ---------------------------------------------------------------------------


class BialgebraStructure:
    """Comultiplication x_ij -> sum_s x_is (x) x_sj and counit x_ij -> delta_ij
    on B = A(h,h), with machine-checked well-definedness.

    The tensor square of B is handled in the polynomial ring on the doubled
    variable set {X'[i,j]} u {X''[i,j]}, with ideal J' + J''.
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
        self.tensor_gb = self._tensor_gb()
        self._delta_images = self._build_delta_images()

    def _block_var(self, block: int, i: int, j: int) -> Polynomial:
        n = self.n
        return self.tensor_ring.var(block * n * n + (i - 1) * n + (j - 1))

    def _tensor_gb(self) -> GroebnerBasis:
        # The union of the two block images of A.gb is already a reduced GB of
        # J' + J'': cross-block leads are coprime.
        gens = []
        for block in (0, 1):
            for gpoly in self.owner.gb.generators:
                images = [
                    self._block_var(block, s, i)
                    for s in range(1, self.n + 1)
                    for i in range(1, self.n + 1)
                ]
                gens.append(gpoly.map_coeffs_and_vars(self.tensor_ring, images))
        key = self.tensor_ring.order.key
        gens.sort(key=lambda g: key(g.lead_monomial()))
        return GroebnerBasis(self.tensor_ring, tuple(gens))

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

    def delta(self, p: Polynomial) -> Polynomial:
        """Comultiplication as a ring map into the doubled-variable ring,
        reduced modulo J' + J''."""
        img = p.map_coeffs_and_vars(self.tensor_ring, self._delta_images)
        return poly.normal_form(img, self.tensor_gb)

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
    def descent(self) -> tuple[tuple[tuple[int, int, int], Scalar, bool], ...]:
        """For each generator P of J: its label, eps(P), and whether Delta(P)
        reduces to zero modulo J' + J''; computed once per structure."""
        return tuple((label, self.epsilon(p), self.delta(p).is_zero())
                     for label, p in zip(self.owner.labels, self.owner.jgens))

    def verify(self) -> Report:
        bad: list[Violation] = []
        # epsilon kills J; Delta maps J into J'(x)k[X] + k[X](x)J''.
        for label, eps, descends in self.descent:
            if eps != 0:
                bad.append(Violation("counit-kills-ideal", label, f"eps(P) = {eps}"))
            if not descends:
                bad.append(Violation("comult-descends", label,
                                     "Delta(P) not in tensor ideal"))
        # Coassociativity and counit laws on the generators x_ij, through the
        # ring maps Delta(x)id, id(x)Delta, eps(x)id and id(x)eps out of the
        # doubled ring.  Equality in a free ring implies it in the quotient.
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


def bialgebra_structure(A: UniversalAlgebra) -> BialgebraStructure:
    """Equip B = A(h,h) with its comultiplication/counit and verify the
    bialgebra laws; raises on verification failure."""
    B = BialgebraStructure(A)
    B.verify().require(AssertionError, "bialgebra verification failed")
    return B
