"""Exact multivariate polynomials over Q and Buchberger's algorithm.

Monomials are dense exponent tuples over the ring's variable list; polynomials
are immutable-by-convention dicts from monomial to nonzero Fraction.  The two
supported monomial orders (degrevlex, lex) rank variables by their position in
the ring's variable list.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Monomial = tuple[int, ...]

DEFAULT_PAIR_BUDGET = 100_000


class ResourceBudgetError(RuntimeError):
    """Raised when a Groebner computation exceeds its S-pair budget."""


@dataclass(frozen=True)
class MonomialOrder:
    kind: str = "degrevlex"  # "degrevlex" | "lex"

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex"):
            raise ValueError(f"unknown monomial order {self.kind!r}")

    def key(self, m: Monomial):
        """Sort key: larger key means larger monomial."""
        if self.kind == "lex":
            return m
        return (sum(m), tuple(-e for e in reversed(m)))

    def greater(self, a: Monomial, b: Monomial) -> bool:
        return self.key(a) > self.key(b)


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(m: Monomial) -> int:
    return sum(m)


class PolyRing:
    """Polynomial ring Q[x_0, ..., x_{nvars-1}] with a fixed monomial order."""

    def __init__(self, names: Iterable[str], order: MonomialOrder = DEGREVLEX):
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.order = order
        self._one_mono = (0,) * self.nvars

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.names, self.order))

    def __repr__(self):
        return f"PolyRing({list(self.names)}, {self.order.kind})"

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {self._one_mono: ONE})

    def const(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self, {self._one_mono: c} if c else {})

    def var(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): ONE})

    def monomial(self, m: Monomial, c=ONE) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self, {m: c} if c else {})

    def monomials_up_to_degree(self, dmax: int) -> Iterator[Monomial]:
        """All monomials of total degree <= dmax, ascending in the ring order."""
        monos = []
        for d in range(dmax + 1):
            for combo in itertools.combinations_with_replacement(range(self.nvars), d):
                e = [0] * self.nvars
                for i in combo:
                    e[i] += 1
                monos.append(tuple(e))
        monos.sort(key=self.order.key)
        return iter(monos)

    def render_monomial(self, m: Monomial) -> str:
        if not any(m):
            return "1"
        parts = []
        for i, e in enumerate(m):
            if e == 1:
                parts.append(self.names[i])
            elif e > 1:
                parts.append(f"{self.names[i]}^{e}")
        return "*".join(parts)


class Polynomial:
    """A polynomial; ``terms`` maps monomials to nonzero rational coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Monomial, Fraction]):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending ring order."""
        key = self.ring.order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def lead_monomial(self) -> Monomial:
        key = self.ring.order.key
        return max(self.terms, key=key)

    def lead_coeff(self) -> Fraction:
        return self.terms[self.lead_monomial()]

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        inv = ONE / self.lead_coeff()
        return Polynomial(self.ring, {m: c * inv for m, c in self.terms.items()})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) + c
        return Polynomial(self.ring, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) - c
        return Polynomial(self.ring, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                terms[m] = terms.get(m, ZERO) + c1 * c2
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def scale(self, c: Fraction) -> "Polynomial":
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {m: x * c for m, x in self.terms.items()})

    def mul_term(self, m: Monomial, c: Fraction) -> "Polynomial":
        if not c:
            return self.ring.zero()
        return Polynomial(
            self.ring, {mono_mul(m0, m): c0 * c for m0, c0 in self.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- evaluation / substitution -----------------------------------------

    def map_coeffs_and_vars(self, target: PolyRing, images: list["Polynomial"]) -> "Polynomial":
        """Ring homomorphism sending variable i to images[i]."""
        out = target.zero()
        for m, c in self.terms.items():
            t = target.const(c)
            for i, e in enumerate(m):
                for _ in range(e):
                    t = t * images[i]
            out = out + t
        return out

    def eval_scalars(self, values: list[Fraction]) -> Fraction:
        """Evaluate at rational values, one per variable."""
        out = ZERO
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    v *= values[i] ** e
            out += v
        return out

    def eval_matrices(self, mats: list) -> list:
        """Evaluate at commuting square matrices (one per variable)."""
        from . import linalg

        dim = len(mats[0]) if mats else 0
        out = linalg.zeros(dim, dim)
        for m, c in self.terms.items():
            acc = linalg.identity(dim)
            for i, e in enumerate(m):
                for _ in range(e):
                    acc = linalg.mat_mul(acc, mats[i])
            out = linalg.mat_add(out, linalg.mat_scale(c, acc))
        return out

    def __repr__(self):
        return f"Polynomial({render(self)})"


def render(p: Polynomial) -> str:
    """Canonical text form: terms descending, rationals as p/q."""
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        mono = p.ring.render_monomial(m)
        if mono == "1":
            body = str(c)
        elif c == 1:
            body = mono
        elif c == -1:
            body = f"-{mono}"
        else:
            body = f"{c}*{mono}"
        if parts and not body.startswith("-"):
            parts.append(f" + {body}")
        elif parts:
            parts.append(f" - {body[1:]}")
        else:
            parts.append(body)
    return "".join(parts)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis; generators are monic and canonically sorted."""

    ring: PolyRing
    generators: tuple[Polynomial, ...]

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    @cached_property
    def _leads(self) -> tuple["_LeadEntry", ...]:
        """Lead data of the generators, built on first use for the reducer."""
        return tuple(_lead_entry(g) for g in self.generators)

    def lead_monomials(self) -> list[Monomial]:
        return [lm for lm, _, _ in self._leads]

    def contains_unit(self) -> bool:
        return any(not any(lm) for lm, _, _ in self._leads)


# (lead monomial, lead coefficient, polynomial) of a nonzero basis element.
_LeadEntry = tuple[Monomial, Fraction, Polynomial]


def _lead_entry(g: Polynomial) -> _LeadEntry:
    lm = g.lead_monomial()
    return lm, g.terms[lm], g


def _reduce_full(p: Polynomial, leads: Sequence[_LeadEntry]) -> Polynomial:
    """Full multivariate division: no term of the result is divisible by any
    of the lead monomials in ``leads``."""
    if not leads:
        return p
    ring = p.ring
    key = ring.order.key
    remainder: dict[Monomial, Fraction] = {}
    work = dict(p.terms)
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        if not c:
            continue
        for lm, lc, g in leads:
            if mono_divides(lm, m):
                q = mono_div(m, lm)
                factor = c / lc
                for gm, gc in g.terms.items():
                    t = mono_mul(gm, q)
                    if t == m:
                        continue
                    work[t] = work.get(t, ZERO) - factor * gc
                break
        else:
            remainder[m] = remainder.get(m, ZERO) + c
    return Polynomial(ring, remainder)


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of ``p`` modulo the ideal with Groebner basis ``gb``."""
    if p.ring != gb.ring:
        raise ValueError("polynomial and Groebner basis live in different rings")
    return _reduce_full(p, gb._leads)


def _s_poly(ef: _LeadEntry, eg: _LeadEntry) -> Polynomial:
    (lf, cf, f), (lg, cg, g) = ef, eg
    lcm = mono_lcm(lf, lg)
    return f.mul_term(mono_div(lcm, lf), ONE / cf) - g.mul_term(
        mono_div(lcm, lg), ONE / cg
    )


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    return _s_poly(_lead_entry(f), _lead_entry(g))


def buchberger(
    gens: Iterable[Polynomial],
    order: MonomialOrder | None = None,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Uses normal pair selection with Buchberger's coprimality and chain
    criteria.  Pending pairs sit in a heap keyed by the sort key of the lcm of
    their leads, computed once when the pair is queued; each basis element's
    lead data is computed once, when it joins the basis, and shared by pair
    creation, the criteria and the reducer.  Raises ResourceBudgetError once
    more than ``budget`` S-pairs have been taken from the queue.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError(
            "cannot infer the ring from an empty generator list; use groebner()"
        )
    ring = gens[0].ring
    if order is not None and order != ring.order:
        ring = PolyRing(ring.names, order)
        gens = [Polynomial(ring, g.terms) for g in gens]
    if any(g.ring != ring for g in gens):
        raise ValueError("generators live in different rings")

    key = ring.order.key
    leads: list[_LeadEntry] = []
    queue: list[tuple[object, int, int]] = []  # (key of the lcm, i, j), i > j
    pending: set[tuple[int, int]] = set()

    def add(g: Polynomial) -> None:
        k = len(leads)
        leads.append(_lead_entry(g.monic()))
        lk = leads[k][0]
        for t in range(k):
            heapq.heappush(queue, (key(mono_lcm(lk, leads[t][0])), k, t))
            pending.add((k, t))

    for g in gens:
        add(g)
    processed = 0
    while queue:
        _, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        processed += 1
        if processed > budget:
            raise ResourceBudgetError(
                f"S-pair budget of {budget} exceeded in buchberger"
            )
        li, lj = leads[i][0], leads[j][0]
        lcm = mono_lcm(li, lj)
        if lcm == mono_mul(li, lj):
            continue  # coprime leads: S-poly reduces to zero
        if _chain_criterion(leads, pending, i, j, lcm):
            continue
        r = _reduce_full(_s_poly(leads[i], leads[j]), leads)
        if not r.is_zero():
            add(r)
    return _interreduce(ring, leads)


def _chain_criterion(leads, pending, i, j, lcm) -> bool:
    for k, (lk, _, _) in enumerate(leads):
        if k in (i, j) or not mono_divides(lk, lcm):
            continue
        a = (max(i, k), min(i, k))
        b = (max(j, k), min(j, k))
        if a not in pending and b not in pending:
            return True
    return False


def _interreduce(ring: PolyRing, leads: list[_LeadEntry]) -> GroebnerBasis:
    key = ring.order.key
    # Drop generators whose lead is divisible by another generator's lead.
    kept = [
        entry
        for idx, entry in enumerate(leads)
        if not any(
            other != idx
            and mono_divides(lo, entry[0])
            and (lo != entry[0] or other < idx)
            for other, (lo, _, _) in enumerate(leads)
        )
    ]
    # Fully reduce each survivor against the others.
    reduced: list[Polynomial] = []
    for idx, (_, _, g) in enumerate(kept):
        r = _reduce_full(g, kept[:idx] + kept[idx + 1 :])
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: key(g.lead_monomial()))
    return GroebnerBasis(ring, tuple(reduced))


def empty_basis(ring: PolyRing) -> GroebnerBasis:
    return GroebnerBasis(ring, ())


def groebner(
    gens: Iterable[Polynomial], ring: PolyRing, budget: int = DEFAULT_PAIR_BUDGET
) -> GroebnerBasis:
    """Like :func:`buchberger` but usable with an empty generator list."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return empty_basis(ring)
    return buchberger(gens, budget=budget)


def ideal_contains(gb: GroebnerBasis, p: Polynomial) -> bool:
    return normal_form(p, gb).is_zero()


def ideal_equal(
    g1: Iterable[Polynomial],
    g2: Iterable[Polynomial],
    ring: PolyRing,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> bool:
    """True iff the two generating sets span the same ideal."""
    g1 = list(g1)
    g2 = list(g2)
    b1 = groebner(g1, ring, budget=budget)
    b2 = groebner(g2, ring, budget=budget)
    return all(ideal_contains(b2, p) for p in g1) and all(
        ideal_contains(b1, p) for p in g2
    )
