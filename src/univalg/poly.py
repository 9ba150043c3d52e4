"""Exact multivariate polynomials over Q and the one Groebner engine.

Monomials are dense exponent tuples over the ring's variable list; polynomials
are immutable-by-convention dicts from monomial to nonzero exact scalar, an
``int`` when integral and a ``Fraction`` otherwise (see ``linalg.scalar``;
division goes through ``Fraction(a, b)``, never ``/``).  The two
supported monomial orders (degrevlex, lex) rank variables by their position in
the ring's variable list.

The Buchberger engine here serves both ideals and submodules of free modules
(see :mod:`univalg.modgb`).  It works on terms (position, monomial) under
position-over-term order; an ideal is the rank-1 case, with every term at
position 0.  Inside the engine each term is one packed int whose integer
order is the term order: multiplying by a monomial is an addition and a
divisibility test is one mask (see "packed terms" below).  Exponents above
``MAX_EXPONENT`` raise ``ExponentOverflowError``.  Coefficients inside the
engine are integers: each element is a primitive row (content 1, positive
lead coefficient) divided by cross-multiplication, so a basis element or a
normal form becomes a rational, monic or divided once by its scale, only as
it leaves the engine.

Between the engine and the public edges every element is packed terms, key
-> exact scalar; ``_pack`` and ``_unpack`` convert vectors at those edges (a
polynomial p is the vector {0: p}).  A reduced basis of either kind
(``_Basis``) stores one form, the engine's lead table of its reduced rows;
its monic packed terms and its ``generators`` are made only when read.  It
is the one door to the reducer for the constructions above: ``remainder``
reduces a vector once and ``contains`` tests membership as an empty integer
remainder, each with the basis's own lead table and codec.  The
constructions read evaluation words off packed terms (``_words``);
``groebner``, ``ideal_contains`` and ``render`` take packed terms as they
are.  No library code does ``Polynomial`` arithmetic.  A
``MultiplicationTable`` keeps the normal forms of single terms as they come
out of the reducer, integers over one denominator keyed by packed term, and
substitutes packed images into a vector.  No module but this one reads a
codec's fields or calls the reducer.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable

from . import linalg
from .linalg import Scalar, scalar

ZERO = 0
ONE = 1

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


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_word(m: Monomial) -> tuple[int, ...]:
    """The variables of ``m`` with multiplicity, in ring order: the word of
    (2, 0, 1) is (0, 0, 2)."""
    return tuple(i for i, e in enumerate(m) for _ in range(e))


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

    def var(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): ONE})

    def monomial(self, m: Monomial, c=ONE) -> "Polynomial":
        c = scalar(c)
        return Polynomial(self, {m: c} if c else {})

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

    def __init__(self, ring: PolyRing, terms: dict[Monomial, Scalar]):
        # An integral Fraction is stored as its int numerator (linalg.scalar).
        self.ring = ring
        self.terms = {m: c if type(c) is int or c.denominator != 1 else c.numerator
                      for m, c in terms.items() if c}

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(scalar(other))
        terms: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                terms[m] = terms.get(m, ZERO) + c1 * c2
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "Polynomial":
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {m: x * c for m, x in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({render(self)})"


def render(p: "Polynomial | _Terms", ring: PolyRing | None = None) -> str:
    """Canonical text form of a polynomial, or of the polynomial of ``ring``
    with packed terms ``p``: terms descending (a larger key is a larger
    term), rationals as p/q."""
    if isinstance(p, Polynomial):
        ring, key = p.ring, p.ring.order.key
        terms = sorted(p.terms.items(), key=lambda t: key(t[0]), reverse=True)
    else:
        unpack = _codec_of(ring).unpack
        terms = ((unpack(t)[1], p[t]) for t in sorted(p, reverse=True))
    return linalg.combination_str((ring.render_monomial(m), c) for m, c in terms)


class _Basis:
    """A reduced basis, stored as one form: the engine's lead table
    ``leads`` of its reduced primitive rows, ascending by lead.  Its monic
    packed terms ``basis`` and its ``generators`` are made on first read."""

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return sum(map(len, self.leads.values()))

    @cached_property
    def _codec(self) -> "_Codec":
        return _codec_of(self.ring)

    @cached_property
    def basis(self) -> "tuple[_Terms, ...]":
        """The monic packed terms, ascending by lead: each row's tail divided
        by its lead coefficient."""
        return tuple({lead: ONE, **_divided(dict(tail), lc)}
                     for rows in self.leads.values() for _, lead, _, tail, lc in rows)

    def multiplication_table(self) -> "MultiplicationTable":
        """A new, empty multiplication table of the quotient."""
        return MultiplicationTable(self.ring, self.leads)

    def remainder(self, terms: "_Terms") -> "_Terms":
        """The packed terms of the normal form of the element with packed
        ``terms``: one division, whose integer remainder is divided once by
        the denominator of ``terms`` times the scale of the division."""
        ints, den = _integral(terms)
        r, d = _reduce(ints, self.leads, self._codec)
        return _divided(r, den * d)

    def contains(self, terms: "_Terms") -> bool:
        """Whether the element with packed ``terms`` lies in the span: one
        division leaves no nonzero integer term."""
        return not any(_reduce(_integral(terms)[0], self.leads, self._codec)[0].values())


@dataclass(frozen=True)
class GroebnerBasis(_Basis):
    """A reduced Groebner basis of an ideal, as the engine's lead table."""

    ring: PolyRing
    leads: "_LeadTable" = field(hash=False, repr=False)

    @cached_property
    def generators(self) -> tuple[Polynomial, ...]:
        """The basis as polynomials, unpacked on first read."""
        return tuple(_polynomial(t, self.ring) for t in self.basis)

    def lead_monomials(self) -> list[Monomial]:
        """The lead monomials, read off the rows' lead keys."""
        unpack = self._codec.unpack
        return [unpack(row[1])[1] for rows in self.leads.values() for row in rows]


# -- packed terms ------------------------------------------------------------
#
# Inside the engine a term (position, monomial) is one Python int, its key.
# The exponent vector E of the monomial holds each exponent in a field of
# FIELD_BITS bits whose top bit is a guard bit, clear in every valid term, so
# an exponent is at most MAX_EXPONENT.
#
#   degrevlex: E has the last variable in its most significant field, the
#              total degree sits in a field above E, and
#              key = (deg << BN) - E - (pos << TOP);
#   lex:       E has the first variable in its most significant field, and
#              key = E - (pos << TOP).
#
# Integer order of keys is position-over-term order: a lower position wins,
# then the larger monomial.  Keys are linear in the exponents, so multiplying
# a term by a monomial adds the monomial's key, and a quotient of terms at one
# position is a difference of keys.  ``sign * key`` (sign -1 for degrevlex,
# +1 for lex) carries E in its low BN bits, so a lead l divides a term t at
# its position iff ``(sign*t - sign*l) & GUARD`` is 0: a field that would go
# negative borrows and sets its guard bit.  Only ``_pack`` and ``_unpack``
# convert between vectors and packed terms, and ``MultiplicationTable.key``
# and ``.term``, ``_variable_keys``, ``_words``, ``lead_monomials`` and
# ``render`` between single terms and their keys.

FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_DIGITS = (1 << FIELD_BITS) - 1


class ExponentOverflowError(ValueError):
    """Raised when an exponent, given or computed, does not fit a packed
    term: it exceeds MAX_EXPONENT (or a given one is negative)."""

    def __init__(self, message: str = f"a computed exponent exceeds {MAX_EXPONENT}"):
        super().__init__(message)


class _Codec:
    """Packing of the terms of one ring, for one monomial order, into ints."""

    def __init__(self, nvars: int, kind: str):
        lex = kind == "lex"
        self.nvars = nvars
        self.sign = 1 if lex else -1
        self.bn = bn = FIELD_BITS * nvars
        self.emask = (1 << bn) - 1
        self.guard = sum(
            1 << (FIELD_BITS * i + FIELD_BITS - 1) for i in range(nvars)
        )
        # MAX_EXPONENT in every field: adding it to exponents sets the guard
        # bit of exactly the nonzero ones, the support of a monomial.
        self.low = self.guard - (self.guard >> (FIELD_BITS - 1))
        # The degree field of degrevlex holds nvars * MAX_EXPONENT.
        self.top = bn if lex else bn + FIELD_BITS + nvars.bit_length()
        self.dmask = (1 << (self.top - bn)) - 1  # the degree field of degrevlex
        self._struct = struct.Struct((">" if lex else "<") + "H" * nvars)
        self._byteorder = "big" if lex else "little"
        # The keys of the terms (0, x_v), v = 0, ..., nvars - 1.
        self.variables = tuple(self.monomial(tuple(int(k == v) for k in range(nvars)))
                               for v in range(nvars))

    def monomial(self, m: Monomial) -> int:
        """Key of the term (0, m)."""
        try:
            e = int.from_bytes(self._struct.pack(*m), self._byteorder)
        except struct.error:  # an exponent outside 0..65535, or a wrong length
            e = self.guard
        if e & self.guard:
            raise ExponentOverflowError(
                f"monomial {m} does not have {self.nvars} exponents"
                f" in 0..{MAX_EXPONENT}"
            )
        return e if self.sign > 0 else (sum(m) << self.bn) - e

    def unpack(self, key: int) -> tuple[int, Monomial]:
        """(position, monomial) of a key."""
        e = (self.sign * key) & self.emask
        return -(key >> self.top), self._exponents(e)

    def _exponents(self, e: int) -> Monomial:
        return self._struct.unpack(e.to_bytes(self._struct.size, self._byteorder))

    def degree(self, key: int) -> int:
        """Total degree of the monomial of a term."""
        e = (self.sign * key) & self.emask
        if self.sign < 0:
            return (key + e) >> self.bn & self.dmask
        return sum(self._exponents(e))

    def exponents_max(self, a: int, b: int) -> int:
        """Fieldwise maximum of two exponent vectors."""
        guard = self.guard
        sel = ((a | guard) - b) & guard  # guard bits of the fields where a >= b
        sel -= sel >> (FIELD_BITS - 1)  # ... widened to the whole field
        return b ^ ((a ^ b) & sel)

    def lcm(self, a: int, b: int) -> int:
        """Key of the lcm of two terms at the same position."""
        s, emask, top = self.sign, self.emask, self.top
        ea, eb = (s * a) & emask, (s * b) & emask
        e = self.exponents_max(ea, eb)
        if s < 0:
            # A key holds (degree << BN) - E, so key + E has the degree above
            # E.  The fields of E are its digits in base R = 2^FIELD_BITS, and
            # R = 1 mod R - 1, so E % (R - 1) is the sum of the exponents when
            # that sum is below R - 1, as the lcm's is when the two degrees'.
            bn, dmask = self.bn, self.dmask
            if ((a + ea) >> bn & dmask) + ((b + eb) >> bn & dmask) < _DIGITS:
                deg = e % _DIGITS
            else:
                deg = sum(self._exponents(e))
            e = (deg << bn) - e
        return e + ((a >> top) << top)

    def check(self, tail_max: int, q: int) -> None:
        """Raise unless multiplying exponents up to ``tail_max`` by the
        monomial with key ``q`` stays within MAX_EXPONENT in every field."""
        if (tail_max + self.sign * q) & self.guard:
            raise ExponentOverflowError()


@functools.cache
def _codec(nvars: int, kind: str) -> _Codec:
    return _Codec(nvars, kind)


def _codec_of(ring: PolyRing) -> _Codec:
    return _codec(ring.nvars, ring.order.kind)


# -- the Groebner engine -----------------------------------------------------
#
# One engine serves ideals and submodules of free modules.  It works on flat
# dicts from packed term keys to coefficients; an ideal is the rank-1 case,
# with every term at position 0.  Elements inside the engine are primitive
# integer rows: integer coefficients with content 1 and a positive lead
# coefficient.  Division cross-multiplies instead of dividing, so the engine
# makes no ``Fraction``; an element is made monic only where it leaves the
# engine (a reduced basis's ``basis``, when read, and the fronts' normal forms).

_Terms = dict[int, Scalar]
# A primitive element as the reducer sees it: (sign * lead key, lead key,
# fieldwise maximum of the tail's exponents, integer tail terms, positive
# lead coefficient).
_Row = tuple[int, int, int, list[tuple[int, int]], int]
# Lead position key (lead >> TOP) -> rows of the elements with their lead
# there, in basis order; a reduced basis lists its rows ascending by lead.
_LeadTable = dict[int, list[_Row]]


def _pack(vector: dict[int, Polynomial], codec: _Codec) -> _Terms:
    """Packed terms of a vector given by its components, position -> nonzero
    polynomial; a polynomial p is the vector {0: p}."""
    terms: _Terms = {}
    for p, q in vector.items():
        shift = p << codec.top
        for m, c in q.terms.items():
            terms[codec.monomial(m) - shift] = c
    return terms


def _unpack(terms: _Terms, ring: PolyRing, codec: _Codec) -> dict[int, Polynomial]:
    """The components, position -> polynomial, of the vector with packed
    ``terms``: the inverse of ``_pack``."""
    comps: dict[int, dict[Monomial, Scalar]] = {}
    for t, c in terms.items():
        p, m = codec.unpack(t)
        comps.setdefault(p, {})[m] = c
    return {p: Polynomial(ring, ts) for p, ts in comps.items()}


def _variable_keys(ring: PolyRing) -> tuple[int, ...]:
    """The keys of the terms (0, x_v), v = 0, ..., nvars - 1: the key of a
    monomial is the sum of its variables' keys."""
    return _codec_of(ring).variables


# A vector as the terms (position, word, c) that ``linalg.evaluate`` reads: a
# monomial's word is its variables with multiplicity in ring order.
_Words = tuple[tuple[int, tuple[int, ...], Scalar], ...]


def _words(terms: _Terms, ring: PolyRing) -> _Words:
    """The terms (position, mono_word(monomial), c) of the vector of
    ``ring`` with packed ``terms``."""
    unpack, out = _codec_of(ring).unpack, []
    for t, c in terms.items():
        p, m = unpack(t)
        out.append((p, mono_word(m), c))
    return tuple(out)


def _polynomial(terms: _Terms, ring: PolyRing) -> Polynomial:
    """The polynomial of ``ring`` with packed ``terms``, all at position 0."""
    return _unpack(terms, ring, _codec_of(ring)).get(0, ring.zero())


def _packed(p: "Polynomial | _Terms", ring: PolyRing, message: str) -> _Terms:
    """The packed terms of a polynomial of ``ring``, or ``p`` itself when it
    is packed already; ``message`` is the error for a polynomial of another
    ring."""
    if isinstance(p, dict):
        return p
    if p.ring != ring:
        raise ValueError(message)
    return _pack({0: p}, _codec_of(ring))


def _integral(terms: _Terms) -> tuple[dict[int, int], int]:
    """Integer terms n, a new dict, and a positive integer d with ``terms`` =
    n / d."""
    if all(type(c) is int for c in terms.values()):
        return dict(terms), ONE
    d = lcm(*(c.denominator for c in terms.values()))
    return {t: c.numerator * (d // c.denominator) for t, c in terms.items()}, d


def _divided(terms: dict[int, int], d: int) -> _Terms:
    """The exact scalar terms n / d of integer terms n."""
    if d == 1:
        return terms
    return {t: scalar(Fraction(c, d)) for t, c in terms.items()}


def _row(ints: dict[int, int], codec: _Codec) -> _Row:
    """Row of the primitive multiple, with a positive lead coefficient, of a
    nonzero element with integer terms; its tail descends by key."""
    lead, *rest = sorted(ints, reverse=True)
    g = gcd(*ints.values())
    if ints[lead] < 0:
        g = -g
    s, emask, guard = codec.sign, codec.emask, codec.guard
    tail, tail_max = [], 0
    for t in rest:
        tail.append((t, ints[t] // g))
        # The fieldwise maximum of tail_max and e, as in _Codec.exponents_max.
        e = (s * t) & emask
        sel = ((tail_max | guard) - e) & guard
        sel -= sel >> (FIELD_BITS - 1)
        tail_max = e ^ ((tail_max ^ e) & sel)
    return s * lead, lead, tail_max, tail, ints[lead] // g


def _lead_table(rows: Iterable[_Row], codec: _Codec) -> _LeadTable:
    table: _LeadTable = {}
    for row in rows:
        table.setdefault(row[1] >> codec.top, []).append(row)
    return table


def _reduce(work: dict[int, int], table: _LeadTable,
            codec: _Codec) -> tuple[dict[int, int], int]:
    """Full division of the element with integer terms ``work``, which it
    consumes: integer terms r and a positive integer scale d such that r / d
    is the remainder, no term of r divisible by a lead in ``table`` at the
    same position.

    A step by a row whose lead coefficient lc does not divide the term's
    coefficient c multiplies what is left by lc / gcd(lc, c); the scale is
    the product of these factors."""
    scale = ONE
    if not table:
        return work, scale
    sign, guard, top = codec.sign, codec.guard, codec.top
    remainder: dict[int, int] = {}
    while work:
        # Every term a reduction step adds is smaller than the term it
        # removes, so a term leaves ``work`` at most once.
        t = max(work)
        c = work.pop(t)
        if not c:
            continue
        st = sign * t
        for sl, lead, tail_max, tail, lc in table.get(t >> top, ()):
            d = st - sl  # the quotient's exponents in the low fields
            if not d & guard:
                if (tail_max + d) & guard:
                    raise ExponentOverflowError()
                if lc != 1:
                    g = gcd(lc, c)
                    if g != lc:
                        f = lc // g
                        scale *= f
                        for u in work:
                            work[u] *= f
                        for u in remainder:
                            remainder[u] *= f
                    c //= g
                q = t - lead
                for u, uc in tail:
                    u += q
                    if u in work:
                        work[u] -= c * uc
                    else:
                        work[u] = -c * uc
                break
        else:
            remainder[t] = c
    return remainder, scale


def _s_terms(a: _Row, b: _Row, codec: _Codec) -> dict[int, int]:
    """S-element lc_b * x^qa * a - lc_a * x^qb * b of two rows with leads at
    the same position, x^qa and x^qb their cofactors to the lcm of the
    leads; the leads cancel, so only the tails are multiplied."""
    (_, la, ma, ta, ca), (_, lb, mb, tb, cb) = a, b
    m = codec.lcm(la, lb)
    qa, qb = m - la, m - lb
    codec.check(ma, qa)
    codec.check(mb, qb)
    s = {u + qa: cb * c for u, c in ta}
    for u, c in tb:
        u += qb
        s[u] = s.get(u, ZERO) - ca * c
    return {u: c for u, c in s.items() if c}


def _buchberger(
    gens: Iterable[_Terms],
    ideal: _LeadTable,
    rank: int,
    codec: _Codec,
    budget: int,
    name: str,
) -> _LeadTable:
    """Reduced Groebner basis of the span of ``gens`` and the copies j*e_p,
    as the lead table of its primitive rows.

    The copies j*e_p are the rows of ``ideal``, the lead table of a Groebner
    basis of an ideal of the ring, each shifted to every position p below
    ``rank``, with no repacking.  They form a Groebner basis among
    themselves, so no pair of two of them is queued.  A pair never enters
    the queue when the leads of its two elements are coprime and both
    elements sit at a single position, or one of them is a copy (product
    criterion): a copy j*e_p and an element g with lead lm(g_p) e_p give

        lm(j) g - lm(g_p) j e_p
            = sum_{q > p} g_q (j e_q) - (j - lt j) g + (g_p - lt g_p) j e_p,

    every term of the right-hand side below the lcm.  Pairs are taken by the
    sugar strategy (Giovini, Mora, Niesi, Robbiano & Traverso, ISSAC 1991):
    every element carries a sugar, the largest total degree among its terms
    for a generator or a copy, and for the element an S-pair (i, j) adds the
    pair's sugar

        max(sugar_i + deg lcm - deg lead_i, sugar_j + deg lcm - deg lead_j),

    the degree its S-element would have if every element were homogeneous.
    The heap is keyed by (pair sugar, term (position, lcm of the leads)),
    computed once when the pair is queued, so the pairs of least sugar go
    first, whatever their position, and a taken pair is skipped when the
    chain criterion applies.  Raises ResourceBudgetError once more than
    ``budget`` pairs have been taken from the queue.
    """
    top, emask, guard, low = codec.top, codec.emask, codec.guard, codec.low
    degree = codec.degree
    rows: list[_Row] = []
    ecart: list[int] = []  # the sugar less the degree of the lead
    support: list[int] = []  # the guard bits of the variables of the lead
    single: list[bool] = []  # all terms of the element at its lead position
    copy: list[bool] = []
    table: _LeadTable = {}
    at: dict[int, list[int]] = {}  # position key -> indices of the rows there
    queue: list[tuple[int, int, int, int]] = []  # (sugar, lcm, i, j), i > j
    pending: set[tuple[int, int]] = set()

    def add(row: _Row, sugar: int, partners: int, is_copy: bool) -> None:
        """Append an element's row and queue its pairs with the elements at
        its position among the first ``partners``; a copy sits at a single
        position."""
        k = len(rows)
        lead = row[1]
        pk = lead >> top
        sup = ((row[0] & emask) + low) & guard
        one = is_copy or all(u >> top == pk for u, _ in row[3])
        e = sugar - degree(lead)
        rows.append(row)
        ecart.append(e)
        support.append(sup)
        single.append(one)
        copy.append(is_copy)
        table.setdefault(pk, []).append(row)
        same_pos = at.setdefault(pk, [])
        for t in same_pos:
            if t >= partners:
                break
            if not sup & support[t] and (is_copy or copy[t] or one and single[t]):
                continue
            m = codec.lcm(lead, rows[t][1])
            heapq.heappush(queue, (degree(m) + max(e, ecart[t]), m, k, t))
            pending.add((k, t))
        same_pos.append(k)

    for g in gens:
        if g:
            add(_row(_integral(g)[0], codec), max(map(degree, g)), len(rows), False)
    n_gens = len(rows)
    for sl, lead, tail_max, tail, lc in itertools.chain.from_iterable(ideal.values()):
        sugar = max(map(degree, [lead, *(t for t, _ in tail)]))
        for shift in (p << top for p in range(rank)):
            add((sl - codec.sign * shift, lead - shift, tail_max,
                 [(t - shift, c) for t, c in tail], lc), sugar, n_gens, True)
    processed = 0
    while queue:
        sugar, lcm, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        processed += 1
        if processed > budget:
            raise ResourceBudgetError(
                f"S-pair budget of {budget} exceeded in {name}"
            )
        if _chain_criterion(rows, at[lcm >> top], pending, i, j, lcm, codec):
            continue
        r, _ = _reduce(_s_terms(rows[i], rows[j], codec), table, codec)
        if r:
            add(_row(r, codec), sugar, len(rows), False)
    return _interreduce(table, codec)


def _chain_criterion(rows, same_pos, pending, i, j, lcm, codec) -> bool:
    """Some other element k at the position of the pair has its lead
    dividing ``lcm`` and neither pair (i, k) nor (j, k) pending."""
    guard, slcm = codec.guard, codec.sign * lcm
    for k in same_pos:
        if k in (i, j) or (slcm - rows[k][0]) & guard:
            continue
        a = (max(i, k), min(i, k))
        b = (max(j, k), min(j, k))
        if a not in pending and b not in pending:
            return True
    return False


def _interreduce(table: _LeadTable, codec: _Codec) -> _LeadTable:
    """The lead table of the reduced basis of the rows in ``table``, its
    primitive rows ascending by lead."""
    guard = codec.guard
    # Keep the rows whose lead no other lead at its position divides, of
    # equal leads the first in basis order.  A divisor of a lead is not
    # larger than it, so one pass in ascending lead order (stable, so equal
    # leads stay in basis order) tests each row against the kept ones.
    kept = []
    for rows in table.values():
        minimal: list[_Row] = []
        for row in sorted(rows, key=lambda row: row[1]):
            if all((row[0] - m[0]) & guard for m in minimal):
                minimal.append(row)
        kept += minimal
    # Reduce each survivor's tail.  No tail term, nor any term its reduction
    # produces, is divisible by the survivor's own lead, so reducing against
    # all survivors is reducing against the others.  A row whose tail comes
    # back unchanged stays as it is: both descend by key.
    table = _lead_table(kept, codec)
    kept.sort(key=lambda row: row[1])
    reduced = []
    for row in kept:
        _, lead, _, tail, lc = row
        r, d = _reduce(dict(tail), table, codec)
        unchanged = list(r.items()) == tail
        reduced.append(row if unchanged else _row({lead: lc * d, **r}, codec))
    return _lead_table(reduced, codec)


# -- multiplication tables ---------------------------------------------------

TableRow = tuple[int, dict[int, int]]


class MultiplicationTable:
    """nf(x^m e_p) for the terms of a presented module over a polynomial ring
    (of the quotient ring at rank 1), each as a row (den, {key: n}), the sum
    of n/den times the terms with those keys, den > 0 and gcd(den, n, ...) =
    1.  Rows are filled on demand as FGLM fills its multiplication matrices:
    the row of t = x_i s is one reduction of t when s is standard, and
    x_i row(s) otherwise, whose terms x_i u, u < s, are read in turn.

    Terms are the engine's packed keys, opaque outside this module and
    shared by the tables over one ring: ``key`` makes one, ``shift`` and
    ``times`` move it, ``term`` reads it back and ``substitute`` multiplies
    images by the monomials of a vector's terms.
    """

    def __init__(self, ring: PolyRing, leads: _LeadTable):
        self.ring = ring
        self._codec = _codec_of(ring)
        self._leads = leads
        self.rows: dict[int, TableRow] = {}

    def key(self, pos: int, m: Monomial) -> int:
        """Key of the term x^m e_pos."""
        return self._codec.monomial(m) - (pos << self._codec.top)

    def term(self, key: int) -> tuple[int, Monomial]:
        """(position, monomial) of a key."""
        return self._codec.unpack(key)

    def shift(self, key: int, pos: int) -> int:
        """The term of ``key`` moved ``pos`` positions on."""
        return key - (pos << self._codec.top)

    def split(self, key: int) -> tuple[int, int]:
        """(position, key of the monomial at position 0) of a term."""
        pos = -(key >> self._codec.top)
        return pos, key + (pos << self._codec.top)

    def times(self, key: int, q: int) -> int:
        """Key of the term ``key`` times the monomial with key ``q``, once the
        guard bits show every exponent within MAX_EXPONENT."""
        t = key + q
        if (self._codec.sign * t) & self._codec.guard:
            raise ExponentOverflowError()
        return t

    def substitute(self, terms: _Terms, images: dict[int, _Terms]) -> _Terms:
        """The packed terms of the sum of c x^m images[p] over the terms
        c x^m e_p of ``terms``: the image, before reduction, under the map
        that sends e_p to the vector with packed terms images[p]."""
        top, sign, guard = self._codec.top, self._codec.sign, self._codec.guard
        out: _Terms = {}
        for t, c in terms.items():
            p = -(t >> top)
            q = t + (p << top)  # the key of x^m
            for u, d in images[p].items():
                u += q
                if (sign * u) & guard:
                    raise ExponentOverflowError()
                out[u] = out.get(u, ZERO) + c * d
        return out

    def factor(self, key: int) -> tuple[int, int] | None:
        """(key of t / x_i, key of x_i) for the term t with ``key`` and x_i
        its variable in the lowest nonzero exponent field; None for t = e_p."""
        c = self._codec
        e = (c.sign * key) & c.emask
        if not e:
            return None
        unit = 1 << ((e & -e).bit_length() - 1) // FIELD_BITS * FIELD_BITS
        q = unit if c.sign > 0 else (1 << c.bn) - unit
        return key - q, q

    def row(self, key: int) -> TableRow:
        """The row of the term with ``key``, filling missing rows from a
        stack of the terms still owed, so that no chain of divisors
        recurses."""
        rows, owed = self.rows, [key]
        while key not in rows:
            t = owed.pop()
            if t in rows:
                continue
            split = self.factor(t)
            if split and split[0] not in rows:
                owed += [t, split[0]]
            elif split is None or rows[split[0]] == (ONE, {split[0]: ONE}):
                r, d = _reduce({t: ONE}, self._leads, self._codec)
                rows[t] = _cancelled(d, r)
            else:
                den, nums = rows[split[0]]
                up = [(self.times(u, split[1]), n) for u, n in nums.items()]
                missing = [u for u, _ in up if u not in rows]
                if missing:
                    owed += [t, *missing]
                    continue
                common = lcm(*(rows[u][0] for u, _ in up))
                acc: dict[int, int] = {}
                for u, n in up:
                    d, f = rows[u]
                    for v, m in f.items():
                        acc[v] = acc.get(v, ZERO) + n * (common // d) * m
                rows[t] = _cancelled(den * common, acc)
        return rows[key]


def _cancelled(den: int, nums: dict[int, int]) -> TableRow:
    """The row of nums / den, for den > 0."""
    nums = {u: n for u, n in nums.items() if n}
    g = gcd(den, *nums.values())
    return den // g, {u: n // g for u, n in nums.items()}


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of ``p`` modulo the ideal with Groebner basis ``gb``."""
    terms = _packed(p, gb.ring, "polynomial and Groebner basis live in different rings")
    return _polynomial(gb.remainder(terms), gb.ring)


def groebner(
    gens: Iterable[Polynomial | _Terms], ring: PolyRing,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> GroebnerBasis:
    """Reduced Groebner basis in ``ring`` of the ideal generated by ``gens``,
    polynomials or their packed terms; the empty basis when every generator
    is zero.

    Runs the shared engine on rank 1, every term at position 0: a pair with
    coprime leads never enters the queue (product criterion), and the queued
    pairs are taken by the sugar strategy, least pair sugar first, and
    skipped by the chain criterion.
    Raises ResourceBudgetError once more than ``budget`` S-pairs have been
    taken from the queue.
    """
    terms = [_packed(g, ring, "generators live in different rings") for g in gens]
    return GroebnerBasis(ring, _buchberger(terms, {}, 1, _codec_of(ring), budget,
                                           "buchberger"))


def ideal_contains(gb: GroebnerBasis, p: Polynomial | _Terms) -> bool:
    """Whether ``p``, a polynomial or its packed terms, lies in the ideal:
    its integer remainder is empty."""
    terms = _packed(p, gb.ring, "polynomial and Groebner basis live in different rings")
    return gb.contains(terms)


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
