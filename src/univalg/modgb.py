"""Groebner bases for submodules of free modules over a polynomial ring.

The term order is position-over-term: terms are compared first by free-module
position (lower index wins) and then by the ring's monomial order.  Folding the
generators of a ring ideal into every position makes the resulting normal forms
canonical representatives over the quotient ring.

The Groebner work is done by the engine in :mod:`univalg.poly`, of which an
ideal is the rank-1 case.  The engine packs each term (position, monomial)
into one int, ``monomial key - (position << TOP)``, so a lower position gives
a larger int.  This module packs and unpacks nothing itself: its fronts call
``poly._pack``, ``poly._unpack``, ``poly._basis_table`` and
``poly._remainder``, which serve ideals and modules alike, and a basis hands
out its ``poly.MultiplicationTable``, whose rows are the reducer's integer
remainders keyed by packed term.  The engine works on primitive integer rows;
a basis comes out monic and a normal form divided once by its scale, so both
are the same rationals as over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .linalg import Scalar
from .poly import (
    DEFAULT_PAIR_BUDGET,
    GroebnerBasis,
    Monomial,
    MultiplicationTable,
    PolyRing,
    Polynomial,
    _basis_table,
    _buchberger,
    _codec_of,
    _LeadTable,
    _pack,
    _remainder,
    _unpack,
    render,
)


@dataclass(frozen=True)
class FreeModule:
    ring: PolyRing
    rank: int

    def zero(self) -> "ModuleVector":
        return ModuleVector(self, {})

    def basis_vector(self, pos: int) -> "ModuleVector":
        return ModuleVector(self, {pos: self.ring.one()})


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

    def scale(self, c: Scalar) -> "ModuleVector":
        return ModuleVector(
            self.module, {p: q.scale(c) for p, q in self.components.items()}
        )

    def poly_mul(self, f: Polynomial) -> "ModuleVector":
        return ModuleVector(
            self.module, {p: q * f for p, q in self.components.items()}
        )

    def mul_term(self, m: Monomial, c: Scalar) -> "ModuleVector":
        return ModuleVector(
            self.module, {p: q.mul_term(m, c) for p, q in self.components.items()}
        )

    def lead(self) -> tuple[int, Monomial]:
        """Lead term position and monomial under position-over-term."""
        pos = min(self.components)
        return pos, self.components[pos].lead_monomial()

    def lead_coeff(self) -> Scalar:
        pos, mono = self.lead()
        return self.components[pos].terms[mono]

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
        return f"ModuleVector({render_module_vector(self)})"


def render_module_vector(v: ModuleVector) -> str:
    """Text form: "(p)*e{k}" for each nonzero component, by position; the
    zero vector reads "0"."""
    return " + ".join(
        f"({render(q)})*e{p + 1}" for p, q in sorted(v.components.items())) or "0"


@dataclass(frozen=True)
class ModuleGroebnerBasis:
    module: FreeModule
    generators: tuple[ModuleVector, ...]

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    @cached_property
    def _table(self) -> _LeadTable:
        """Lead table of the generators, built on first use for the reducer."""
        return _basis_table(self.module.ring, (g.components for g in self.generators))

    def multiplication_table(self) -> MultiplicationTable:
        """A new, empty multiplication table of the quotient module."""
        return MultiplicationTable(self.module.ring, self._table)


def module_normal_form(v: ModuleVector, mgb: ModuleGroebnerBasis) -> ModuleVector:
    if v.module != mgb.module:
        raise ValueError("vector and module basis live in different free modules")
    return ModuleVector(v.module, _remainder(v.components, mgb._table, v.module.ring))


def module_buchberger(
    gens: Iterable[ModuleVector],
    ring_ideal: GroebnerBasis | None,
    module: FreeModule,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> ModuleGroebnerBasis:
    """Reduced Groebner basis of the submodule generated by ``gens`` together
    with j*e_p for every ring-ideal generator j and position p.

    Runs the shared engine of :mod:`univalg.poly`, with the copies j*e_p as
    elements that are already confluent among themselves.  No pair of two
    copies is queued, nor a pair whose leads are coprime when one element is
    a copy or both sit at a single position; the chain criterion applies to
    the queued pairs as they are taken.  Raises ResourceBudgetError once more
    than ``budget`` S-pairs have been taken from the queue, which the skipped
    pairs never enter.
    """
    ring = module.ring
    codec = _codec_of(ring)
    copies = [] if ring_ideal is None else [
        _pack({p: j}, codec)
        for j in ring_ideal.generators
        for p in range(module.rank)
    ]
    basis = _buchberger(
        (_pack(g.components, codec) for g in gens),
        copies,
        codec,
        budget,
        "module_buchberger",
    )
    return ModuleGroebnerBasis(
        module, tuple(ModuleVector(module, _unpack(t, ring, codec)) for t in basis)
    )
