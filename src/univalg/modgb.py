"""Groebner bases for submodules of free modules over a polynomial ring.

The term order is position-over-term: terms are compared first by free-module
position (lower index wins) and then by the ring's monomial order.  Folding the
generators of a ring ideal into every position makes the resulting normal forms
canonical representatives over the quotient ring.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .poly import (
    DEFAULT_PAIR_BUDGET,
    GroebnerBasis,
    Monomial,
    PolyRing,
    Polynomial,
    ResourceBudgetError,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class FreeModule:
    ring: PolyRing
    rank: int

    def zero(self) -> "ModuleVector":
        return ModuleVector(self, {})

    def basis_vector(self, pos: int) -> "ModuleVector":
        return ModuleVector(self, {pos: self.ring.one()})

    def from_components(self, comps: dict[int, Polynomial]) -> "ModuleVector":
        return ModuleVector(self, comps)


class ModuleVector:
    """Element of a free module; ``components`` maps positions to nonzero
    polynomials."""

    __slots__ = ("module", "components")

    def __init__(self, module: FreeModule, components: dict[int, Polynomial]):
        self.module = module
        self.components = {p: q for p, q in components.items() if not q.is_zero()}

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        comps = dict(self.components)
        for p, q in other.components.items():
            comps[p] = comps[p] + q if p in comps else q
        return ModuleVector(self.module, comps)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        comps = dict(self.components)
        for p, q in other.components.items():
            comps[p] = comps[p] - q if p in comps else -q
        return ModuleVector(self.module, comps)

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(self.module, {p: -q for p, q in self.components.items()})

    def scale(self, c: Fraction) -> "ModuleVector":
        return ModuleVector(
            self.module, {p: q.scale(c) for p, q in self.components.items()}
        )

    def poly_mul(self, f: Polynomial) -> "ModuleVector":
        return ModuleVector(
            self.module, {p: q * f for p, q in self.components.items()}
        )

    def mul_term(self, m: Monomial, c: Fraction) -> "ModuleVector":
        return ModuleVector(
            self.module, {p: q.mul_term(m, c) for p, q in self.components.items()}
        )

    def lead(self) -> tuple[int, Monomial]:
        """Lead term position and monomial under position-over-term."""
        pos = min(self.components)
        return pos, self.components[pos].lead_monomial()

    def lead_coeff(self) -> Fraction:
        pos, mono = self.lead()
        return self.components[pos].terms[mono]

    def monic(self) -> "ModuleVector":
        if self.is_zero():
            return self
        return self.scale(ONE / self.lead_coeff())

    def __eq__(self, other):
        return (
            isinstance(other, ModuleVector)
            and self.module == other.module
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.module, frozenset(
            (p, frozenset(q.terms.items())) for p, q in self.components.items()
        )))

    def __repr__(self):
        from .poly import render

        if self.is_zero():
            return "ModuleVector(0)"
        parts = [f"({render(q)})*e{p + 1}" for p, q in sorted(self.components.items())]
        return "ModuleVector(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class ModuleGroebnerBasis:
    module: FreeModule
    generators: tuple[ModuleVector, ...]

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    @cached_property
    def _by_pos(self) -> "_LeadTable":
        """Lead data of the generators by position, built on first use for the
        reducer."""
        return _lead_table(_lead_entry(g) for g in self.generators)


# (lead position, lead monomial, lead coefficient, vector) of a nonzero vector.
_LeadEntry = tuple[int, Monomial, Fraction, ModuleVector]
# Lead position -> (lead monomial, lead coefficient, vector), in basis order.
_LeadTable = dict[int, list[tuple[Monomial, Fraction, ModuleVector]]]


def _lead_entry(g: ModuleVector) -> _LeadEntry:
    pos = min(g.components)
    comp = g.components[pos]
    mono = comp.lead_monomial()
    return pos, mono, comp.terms[mono], g


def _lead_table(entries: Iterable[_LeadEntry]) -> _LeadTable:
    by_pos: _LeadTable = {}
    for pos, mono, lc, g in entries:
        by_pos.setdefault(pos, []).append((mono, lc, g))
    return by_pos


def _sort_key(module: FreeModule):
    okey = module.ring.order.key

    def key(term: tuple[int, Monomial]):
        pos, mono = term
        return (-pos, okey(mono))  # lower position and larger monomial = larger

    return key


def _reduce_vector(v: ModuleVector, by_pos: _LeadTable) -> ModuleVector:
    """Full reduction: no term of the result is divisible by a lead in
    ``by_pos`` at the same position."""
    module = v.module
    key = _sort_key(module)
    remainder: dict[int, dict[Monomial, Fraction]] = {}
    work: dict[tuple[int, Monomial], Fraction] = {}
    for p, q in v.components.items():
        for m, c in q.terms.items():
            work[(p, m)] = c
    while work:
        term = max(work, key=key)
        c = work.pop(term)
        if not c:
            continue
        pos, mono = term
        for lmono, lc, g in by_pos.get(pos, ()):
            if mono_divides(lmono, mono):
                qmono = mono_div(mono, lmono)
                factor = c / lc
                for gp, gq in g.components.items():
                    for gm, gc in gq.terms.items():
                        t = (gp, mono_mul(gm, qmono))
                        if t == term:
                            continue
                        work[t] = work.get(t, ZERO) - factor * gc
                break
        else:
            remainder.setdefault(pos, {})[mono] = (
                remainder.get(pos, {}).get(mono, ZERO) + c
            )
    ring = module.ring
    return ModuleVector(
        module, {p: Polynomial(ring, ts) for p, ts in remainder.items()}
    )


def module_normal_form(v: ModuleVector, mgb: ModuleGroebnerBasis) -> ModuleVector:
    if v.module != mgb.module:
        raise ValueError("vector and module basis live in different free modules")
    return _reduce_vector(v, mgb._by_pos)


def _s_vec(ef: _LeadEntry, eg: _LeadEntry) -> ModuleVector:
    (pf, mf, cf, f), (pg, mg, cg, g) = ef, eg
    assert pf == pg
    lcm = mono_lcm(mf, mg)
    return f.mul_term(mono_div(lcm, mf), ONE / cf) - g.mul_term(
        mono_div(lcm, mg), ONE / cg
    )


def _s_vector(f: ModuleVector, g: ModuleVector) -> ModuleVector:
    return _s_vec(_lead_entry(f), _lead_entry(g))


def module_buchberger(
    gens: Iterable[ModuleVector],
    ring_ideal: GroebnerBasis | None,
    module: FreeModule,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> ModuleGroebnerBasis:
    """Reduced Groebner basis of the submodule generated by ``gens`` together
    with j*e_p for every ring-ideal generator j and position p.

    Pairs are taken by normal selection from a heap keyed by the sort key of
    (position, lcm of the leads), computed once when the pair is queued.  Each
    basis element's lead data is computed once, when it joins the basis; the
    reducer's table of leads by position grows with the basis instead of being
    rebuilt.  Raises ResourceBudgetError once more than ``budget`` S-pairs have
    been taken from the queue.
    """
    key = _sort_key(module)
    leads: list[_LeadEntry] = []
    by_pos: _LeadTable = {}
    queue: list[tuple[object, int, int]] = []  # (key of the lcm, i, j), i > j

    def add(g: ModuleVector, partners: Iterable[int]) -> None:
        k = len(leads)
        entry = _lead_entry(g)
        pos, mono, lc, _ = entry
        leads.append(entry)
        by_pos.setdefault(pos, []).append((mono, lc, g))
        for t in partners:
            if leads[t][0] == pos:
                lcm = mono_lcm(mono, leads[t][1])
                heapq.heappush(queue, (key((pos, lcm)), k, t))

    for g in gens:
        if not g.is_zero():
            add(g.monic(), range(len(leads)))
    # Pairs of two ring-ideal copies at the same position are skipped: their
    # S-vector is a ring S-polynomial times a basis vector, which reduces to
    # zero against the ring basis copies because that basis is already
    # confluent.
    n_gens = len(leads)
    if ring_ideal is not None:
        for j in ring_ideal.generators:
            for p in range(module.rank):
                add(ModuleVector(module, {p: j}), range(n_gens))
    processed = 0
    while queue:
        _, i, j = heapq.heappop(queue)
        processed += 1
        if processed > budget:
            raise ResourceBudgetError(
                f"S-pair budget of {budget} exceeded in module_buchberger"
            )
        r = _reduce_vector(_s_vec(leads[i], leads[j]), by_pos)
        if not r.is_zero():
            add(r.monic(), range(len(leads)))
    return _interreduce_module(module, leads)


def _interreduce_module(
    module: FreeModule, leads: list[_LeadEntry]
) -> ModuleGroebnerBasis:
    kept = [
        entry
        for idx, entry in enumerate(leads)
        if not any(
            other != idx
            and po == entry[0]
            and mono_divides(mo, entry[1])
            and (mo != entry[1] or other < idx)
            for other, (po, mo, _, _) in enumerate(leads)
        )
    ]
    reduced: list[ModuleVector] = []
    for idx, entry in enumerate(kept):
        r = _reduce_vector(entry[3], _lead_table(kept[:idx] + kept[idx + 1 :]))
        if not r.is_zero():
            reduced.append(r.monic())
    key = _sort_key(module)
    reduced.sort(key=lambda g: key(g.lead()))
    return ModuleGroebnerBasis(module, tuple(reduced))
