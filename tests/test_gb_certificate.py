"""Reduced Groebner bases built by the engine pass the independent
certificate of gb_certificate, and the certificate can fail."""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gb_certificate import ideal_failures, module_failures
from univalg.modgb import FreeModule, ModuleGroebnerBasis, ModuleVector, module_buchberger
from univalg.poly import (
    DEGREVLEX,
    LEX,
    GroebnerBasis,
    PolyRing,
    Polynomial,
    ResourceBudgetError,
    groebner,
)

BUDGET = 2000
orders = st.sampled_from([DEGREVLEX, LEX])


def polys(nvars: int):
    """Small polynomial data: exponent tuples to integer coefficients."""
    return st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * nvars), st.integers(-3, 3), max_size=3
    )


def _poly(R: PolyRing, data) -> Polynomial:
    return Polynomial(R, {m: Fraction(c) for m, c in data.items()})


# (nvars, generators) of an ideal in 2 or 3 variables.
ideal_cases = st.integers(2, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(polys(n), min_size=1, max_size=3))
)
# (rank, generators, ring ideal or None) of a submodule over Q[x, y].
module_cases = st.integers(1, 3).flatmap(lambda r: st.tuples(
    st.just(r),
    st.lists(
        st.dictionaries(st.integers(0, r - 1), polys(2), max_size=r),
        min_size=1, max_size=3,
    ),
    st.none() | st.lists(polys(2), min_size=1, max_size=2),
))


# Each @example is a case on which a known engine fault gives a basis that
# fails the certificate: the chain criterion without its pending test, the
# product criterion without its single-position condition, every third
# queued pair skipped.
@given(orders, ideal_cases)
@example(DEGREVLEX, (2, [{(0, 0): 1, (1, 0): 1, (2, 0): 1}, {(2, 0): 1}]))
@example(DEGREVLEX, (3, [
    {(0, 1, 0): 1}, {(0, 0, 0): 1, (0, 0, 2): 1}, {(0, 0, 1): 1, (0, 1, 2): 1},
]))
@settings(max_examples=80, deadline=None)
def test_ideal_bases_pass_the_certificate(order, case):
    nvars, data = case
    R = PolyRing("xyz"[:nvars], order)
    gens = [_poly(R, d) for d in data]
    try:
        gb = groebner(gens, R, budget=BUDGET)
    except ResourceBudgetError:
        assume(False)
    assert ideal_failures(gb, gens) == []


@given(orders, module_cases)
@example(DEGREVLEX, (2, [{1: {(0, 0): 1}, 0: {(0, 0): 1, (1, 0): 1}},
                         {0: {(1, 0): 1}}], None))
@example(DEGREVLEX, (2, [{0: {(0, 0): 1}, 1: {(0, 0): 1}}, {0: {(0, 0): 1}}], None))
@example(DEGREVLEX, (2, [{0: {(1, 1): 1, (2, 1): 1}, 1: {(0, 0): 1, (0, 1): 1}}],
                     [{(2, 1): 1}]))
@settings(max_examples=80, deadline=None)
def test_module_bases_pass_the_certificate(order, case):
    rank, data, ideal = case
    R = PolyRing("xy", order)
    F = FreeModule(R, rank)
    gens = [ModuleVector(F, {p: _poly(R, q) for p, q in d.items()}) for d in data]
    try:
        ring_gb = None if ideal is None else groebner(
            [_poly(R, j) for j in ideal], R, budget=BUDGET
        )
        mgb = module_buchberger(gens, ring_gb, F, budget=BUDGET)
    except ResourceBudgetError:
        assume(False)
    assert module_failures(mgb, gens, ring_gb) == []


def test_universal_bases_pass_the_certificate(A_sl2, um_adjoint):
    assert ideal_failures(A_sl2.gb, A_sl2.jgens) == []
    assert module_failures(um_adjoint.mgb, um_adjoint.relgens, A_sl2.gb) == []


def test_certificate_fails_on_broken_bases(A_sl2, um_adjoint):
    gb = A_sl2.gb
    gens = list(gb.generators)
    # One element missing: some generator or S-element no longer reduces.
    assert ideal_failures(GroebnerBasis(gb.ring, tuple(gens[1:])), A_sl2.jgens)
    # Not monic.
    scaled = (gens[0].scale(Fraction(2)), *gens[1:])
    assert "lead of element 0 is not monic" in ideal_failures(
        GroebnerBasis(gb.ring, scaled), A_sl2.jgens
    )
    # Not reduced: a multiple of one element's lead added to another.
    x = gb.ring.var(0)
    unreduced = (gens[0], gens[1] + gens[0] * x, *gens[2:])
    assert any("divides a term" in f for f in ideal_failures(
        GroebnerBasis(gb.ring, unreduced), A_sl2.jgens
    ))
    # A module basis with its last element missing.
    mgb = um_adjoint.mgb
    assert module_failures(
        ModuleGroebnerBasis(mgb.module, mgb.generators[:-1]),
        um_adjoint.relgens, A_sl2.gb,
    )
