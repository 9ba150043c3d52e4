"""Exact multivariate polynomials over Q and the one Groebner engine.

Monomials are dense exponent tuples over the ring's variable list; polynomials
are immutable-by-convention dicts from monomial to nonzero Fraction.  The two
supported monomial orders (degrevlex, lex) rank variables by their position in
the ring's variable list.

The Buchberger engine here serves both ideals and submodules of free modules
(see :mod:`univalg.modgb`).  It works on terms (position, monomial) under
position-over-term order; an ideal is the rank-1 case, with every term at
position 0.  ``buchberger``, ``groebner`` and ``normal_form`` convert
polynomials in and out.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

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
    def _table(self) -> "_LeadTable":
        """Lead table of the generators, built on first use for the reducer."""
        key = _term_key(self.ring.order)
        return _lead_table(_monic_entry(_terms(g), key) for g in self.generators)

    def lead_monomials(self) -> list[Monomial]:
        return [lm for lm, _ in self._table.get(0, ())]

    def contains_unit(self) -> bool:
        return any(not any(lm) for lm in self.lead_monomials())


# -- the Groebner engine -----------------------------------------------------
#
# One engine serves ideals and submodules of free modules.  It works on flat
# term dicts keyed by (position, monomial) under position-over-term order: a
# lower position wins, then the larger monomial.  An ideal is the rank-1 case,
# with every term at position 0.  Elements inside the engine are monic, so
# lead data carries no coefficient.

_Term = tuple[int, Monomial]
_Terms = dict[_Term, Fraction]
# (lead position, lead monomial, terms) of a monic element.
_Entry = tuple[int, Monomial, _Terms]
# (lead monomial, tail terms) of a monic element.
_Row = tuple[Monomial, list[tuple[_Term, Fraction]]]
# Lead position -> rows of the elements with their lead there, in basis order.
_LeadTable = dict[int, list[_Row]]


def _term_key(order: MonomialOrder):
    """Sort key of terms: larger key means larger term."""
    okey = order.key
    return lambda t: (-t[0], okey(t[1]))


def _terms(p: Polynomial) -> _Terms:
    return {(0, m): c for m, c in p.terms.items()}


def _monic_entry(terms: _Terms, key) -> _Entry:
    pos, mono = lead = max(terms, key=key)
    c = terms[lead]
    if c != ONE:
        terms = {t: x / c for t, x in terms.items()}
    return pos, mono, terms


def _table_row(entry: _Entry) -> _Row:
    pos, mono, terms = entry
    lead = (pos, mono)
    return mono, [(t, c) for t, c in terms.items() if t != lead]


def _lead_table(entries: Iterable[_Entry]) -> _LeadTable:
    table: _LeadTable = {}
    for entry in entries:
        table.setdefault(entry[0], []).append(_table_row(entry))
    return table


def _reduce(terms: _Terms, table: _LeadTable, key) -> _Terms:
    """Full division: no term of the result is divisible by a lead in
    ``table`` at the same position."""
    if not table:
        return dict(terms)
    work = dict(terms)
    keys = {t: key(t) for t in work}
    remainder: _Terms = {}
    while work:
        # Every term a reduction step adds is smaller than the term it
        # removes, so a term leaves ``work`` at most once.
        t = max(work, key=keys.__getitem__)
        c = work.pop(t)
        if not c:
            continue
        pos, mono = t
        for lm, tail in table.get(pos, ()):
            if mono_divides(lm, mono):
                q = mono_div(mono, lm)
                for (gp, gm), gc in tail:
                    u = (gp, mono_mul(gm, q))
                    if u in work:
                        work[u] -= c * gc
                    else:
                        work[u] = -c * gc
                        keys[u] = key(u)
                break
        else:
            remainder[t] = c
    return remainder


def _s_terms(ef: _Entry, eg: _Entry) -> _Terms:
    """S-element of two monic elements with leads at the same position."""
    (_, mf, f), (_, mg, g) = ef, eg
    lcm = mono_lcm(mf, mg)
    qf, qg = mono_div(lcm, mf), mono_div(lcm, mg)
    s = {(p, mono_mul(m, qf)): c for (p, m), c in f.items()}
    for (p, m), c in g.items():
        u = (p, mono_mul(m, qg))
        s[u] = s.get(u, ZERO) - c
    return {t: c for t, c in s.items() if c}


def _buchberger(
    gens: Iterable[_Terms],
    confluent: Iterable[_Terms],
    key,
    budget: int,
    name: str,
) -> list[_Terms]:
    """Reduced Groebner basis of the span of ``gens`` and ``confluent``, as
    monic term dicts in ascending order of their leads.

    ``confluent`` elements already form a Groebner basis among themselves, so
    no pair of two of them is queued: its S-element reduces to zero against
    them.  Pairs are taken by normal selection from a heap keyed by the sort
    key of (position, lcm of the leads), computed once when the pair is
    queued.  A pair is skipped when both elements sit at a single position
    and their leads are coprime (product criterion), or when the chain
    criterion applies.  Raises ResourceBudgetError once more than ``budget``
    pairs, skipped or not, have been taken from the queue.
    """
    entries: list[_Entry] = []
    single: list[bool] = []  # all terms of the element at its lead position
    table: _LeadTable = {}
    queue: list[tuple[object, int, int]] = []  # (key of the lcm, i, j), i > j
    pending: set[tuple[int, int]] = set()

    def add(terms: _Terms, partners: Iterable[int]) -> None:
        k = len(entries)
        entry = pos, mono, terms = _monic_entry(terms, key)
        entries.append(entry)
        single.append(all(p == pos for p, _ in terms))
        table.setdefault(pos, []).append(_table_row(entry))
        for t in partners:
            pt, mt, _ = entries[t]
            if pt == pos:
                heapq.heappush(queue, (key((pos, mono_lcm(mono, mt))), k, t))
                pending.add((k, t))

    for g in gens:
        if g:
            add(g, range(len(entries)))
    n_gens = len(entries)
    for g in confluent:
        add(g, range(n_gens))
    processed = 0
    while queue:
        _, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        processed += 1
        if processed > budget:
            raise ResourceBudgetError(
                f"S-pair budget of {budget} exceeded in {name}"
            )
        li, lj = entries[i][1], entries[j][1]
        lcm = mono_lcm(li, lj)
        if single[i] and single[j] and lcm == mono_mul(li, lj):
            continue  # coprime leads: the S-element reduces to zero
        if _chain_criterion(entries, pending, i, j, lcm):
            continue
        r = _reduce(_s_terms(entries[i], entries[j]), table, key)
        if r:
            add(r, range(len(entries)))
    return _interreduce(entries, key)


def _chain_criterion(entries, pending, i, j, lcm) -> bool:
    pos = entries[i][0]
    for k, (pk, lk, _) in enumerate(entries):
        if k in (i, j) or pk != pos or not mono_divides(lk, lcm):
            continue
        a = (max(i, k), min(i, k))
        b = (max(j, k), min(j, k))
        if a not in pending and b not in pending:
            return True
    return False


def _interreduce(entries: list[_Entry], key) -> list[_Terms]:
    # Drop elements whose lead is divisible by another element's lead.
    kept = [
        entry
        for idx, entry in enumerate(entries)
        if not any(
            other != idx
            and po == entry[0]
            and mono_divides(mo, entry[1])
            and (mo != entry[1] or other < idx)
            for other, (po, mo, _) in enumerate(entries)
        )
    ]
    # Reduce each survivor's tail.  No tail term, nor any term its reduction
    # produces, is divisible by the survivor's own lead, so reducing against
    # all survivors is reducing against the others.
    table = _lead_table(kept)
    kept.sort(key=lambda entry: key(entry[:2]))
    return [
        {entry[:2]: ONE, **_reduce(dict(_table_row(entry)[1]), table, key)}
        for entry in kept
    ]


def _poly(ring: PolyRing, terms: _Terms) -> Polynomial:
    return Polynomial(ring, {m: c for (_, m), c in terms.items()})


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of ``p`` modulo the ideal with Groebner basis ``gb``."""
    if p.ring != gb.ring:
        raise ValueError("polynomial and Groebner basis live in different rings")
    return _poly(p.ring, _reduce(_terms(p), gb._table, _term_key(p.ring.order)))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    key = _term_key(f.ring.order)
    return _poly(
        f.ring, _s_terms(_monic_entry(_terms(f), key), _monic_entry(_terms(g), key))
    )


def buchberger(
    gens: Iterable[Polynomial],
    order: MonomialOrder | None = None,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Runs the shared engine on rank 1, every term at position 0: normal pair
    selection with the product and chain criteria.  Raises
    ResourceBudgetError once more than ``budget`` S-pairs have been taken
    from the queue.
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
    basis = _buchberger(
        map(_terms, gens), (), _term_key(ring.order), budget, "buchberger"
    )
    return GroebnerBasis(ring, tuple(_poly(ring, t) for t in basis))


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
