"""Groebner bases for submodules of free modules over a polynomial ring.

The term order is position-over-term: terms are compared first by free-module
position (lower index wins) and then by the ring's monomial order.  Folding the
generators of a ring ideal into every position makes the resulting normal forms
canonical representatives over the quotient ring.

The Groebner work is done by the engine in :mod:`univalg.poly`, of which an
ideal is the rank-1 case.  The engine packs each term (position, monomial)
into one int, ``monomial key - (position << TOP)``, so a lower position gives
a larger int.  ``module_buchberger`` takes relations as packed terms and the
copies j*e_p as the ideal basis's rows shifted to each position; a basis
stores only the engine's lead table of its reduced rows, as an ideal's
``GroebnerBasis`` does (both are a ``poly._Basis``), and makes its monic
``generators`` only when read.  The constructions
above reduce and test membership through the basis itself
(``_Basis.remainder`` and ``_Basis.contains``) and substitute images through
the quotient's ``poly.MultiplicationTable``, all on packed terms; this
module keeps only the free-module edge, where a ``ModuleVector`` is made or
packed.  A basis comes out monic and a normal form divided once by its
scale, so both are the same rationals as over Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .linalg import Scalar
from .poly import (
    DEFAULT_PAIR_BUDGET,
    GroebnerBasis,
    PolyRing,
    Polynomial,
    _Basis,
    _buchberger,
    _codec_of,
    _LeadTable,
    _pack,
    _Terms,
    _unpack,
    render,
)


@dataclass(frozen=True)
class FreeModule:
    ring: PolyRing
    rank: int


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
        return self + other.scale(-1)

    def scale(self, c: Scalar) -> "ModuleVector":
        return ModuleVector(self.module, {p: q.scale(c) for p, q in self.components.items()})

    def __eq__(self, other):
        return (
            isinstance(other, ModuleVector)
            and self.module == other.module
            and self.components == other.components
        )

    def __repr__(self):
        return f"ModuleVector({render_module_vector(self)})"


def render_module_vector(v: ModuleVector) -> str:
    """Text form: "(p)*e{k}" for each nonzero component, by position; the
    zero vector reads "0"."""
    return " + ".join(
        f"({render(q)})*e{p + 1}" for p, q in sorted(v.components.items())) or "0"


@dataclass(frozen=True)
class ModuleGroebnerBasis(_Basis):
    """A reduced module Groebner basis, as the engine's lead table."""

    module: FreeModule
    leads: _LeadTable = field(hash=False, repr=False)

    @property
    def ring(self) -> PolyRing:
        return self.module.ring

    @cached_property
    def generators(self) -> tuple[ModuleVector, ...]:
        """The basis as vectors of the free module, unpacked on first read."""
        return tuple(_vector(self.module, t) for t in self.basis)


def module_normal_form(v: ModuleVector, mgb: ModuleGroebnerBasis) -> ModuleVector:
    if v.module != mgb.module:
        raise ValueError("vector and module basis live in different free modules")
    return _vector(mgb.module, mgb.remainder(_terms(v)))


# -- packed vectors: the engine's terms, key -> scalar -------------------------

def _terms(v: ModuleVector) -> _Terms:
    """The packed terms of ``v``."""
    return _pack(v.components, _codec_of(v.module.ring))


def _vector(module: FreeModule, terms: _Terms) -> ModuleVector:
    """The vector of ``module`` with packed ``terms``."""
    return ModuleVector(module, _unpack(terms, module.ring, _codec_of(module.ring)))


def module_buchberger(
    gens: Iterable[ModuleVector | _Terms],
    ring_ideal: GroebnerBasis | None,
    module: FreeModule,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> ModuleGroebnerBasis:
    """Reduced Groebner basis of the submodule generated by ``gens``, vectors
    or their packed terms, together with j*e_p for every ring-ideal generator
    j and position p.

    Runs the shared engine of :mod:`univalg.poly`, with the copies j*e_p as
    elements that are already confluent among themselves.  No pair of two
    copies is queued, nor a pair whose leads are coprime when one element is
    a copy or both sit at a single position.  The queued pairs are taken by
    the sugar strategy, least pair sugar first at any position, and the
    chain criterion applies to them as they are taken.  Raises
    ResourceBudgetError once more than ``budget`` S-pairs would be reduced;
    the pairs a criterion skips are not counted.
    """
    codec = _codec_of(module.ring)
    terms = (g if isinstance(g, dict) else _pack(g.components, codec) for g in gens)
    ideal = {} if ring_ideal is None else ring_ideal.leads
    return ModuleGroebnerBasis(module, _buchberger(terms, ideal, module.rank, codec, budget,
                                                   "module_buchberger"))
