"""Reduced Groebner bases built by the engine pass the independent
certificate of gb_certificate, and the certificate can fail."""

from fractions import Fraction
from types import SimpleNamespace

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gb_certificate import ideal_failures, module_failures
from helpers import jgens, reference_remainder
from univalg.modgb import (
    FreeModule,
    ModuleVector,
    module_buchberger,
    module_normal_form,
)
from univalg.poly import (
    DEGREVLEX,
    LEX,
    PolyRing,
    Polynomial,
    ResourceBudgetError,
    groebner,
    normal_form,
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
# queued pair skipped, a reduced tail left unscaled (its division's scale
# factor not divided out: x - y, 2y - 1 gives x - 1 for x - 1/2).
@given(orders, ideal_cases)
@example(DEGREVLEX, (2, [{(0, 0): 1, (1, 0): 1, (2, 0): 1}, {(2, 0): 1}]))
@example(DEGREVLEX, (3, [
    {(0, 1, 0): 1}, {(0, 0, 0): 1, (0, 0, 2): 1}, {(0, 0, 1): 1, (0, 1, 2): 1},
]))
@example(DEGREVLEX, (2, [{(1, 0): 1, (0, 1): -1}, {(0, 1): 2, (0, 0): -1}]))
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


# The last two @examples fail under the coprime skip granted to a pair with
# one single-position element that is not a ring-ideal copy (x e1 and
# y e1 + e2, whose S-element is -x e2), and under an unscaled reduced tail.
@given(orders, module_cases)
@example(DEGREVLEX, (2, [{1: {(0, 0): 1}, 0: {(0, 0): 1, (1, 0): 1}},
                         {0: {(1, 0): 1}}], None))
@example(DEGREVLEX, (2, [{0: {(0, 0): 1}, 1: {(0, 0): 1}}, {0: {(0, 0): 1}}], None))
@example(DEGREVLEX, (2, [{0: {(1, 1): 1, (2, 1): 1}, 1: {(0, 0): 1, (0, 1): 1}}],
                     [{(2, 1): 1}]))
@example(DEGREVLEX, (2, [{0: {(1, 0): 1}}, {0: {(0, 1): 1}, 1: {(0, 0): 1}}], None))
@example(DEGREVLEX, (1, [{0: {(1, 0): 1, (0, 1): -1}}, {0: {(0, 1): 2, (0, 0): -1}}],
                     None))
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


def rational_polys(nvars: int, max_size: int = 4):
    """Small polynomial data with rational coefficients."""
    return st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * nvars),
        st.fractions(-4, 4, max_denominator=3), max_size=max_size,
    )


def _element(components) -> dict:
    return {(p, m): c for p, q in components.items() for m, c in q.terms.items()}


@given(orders, st.lists(rational_polys(2, 3), min_size=1, max_size=3),
       st.lists(rational_polys(2), min_size=1, max_size=3))
@example(DEGREVLEX, [{(1, 0): 1, (0, 1): -1}, {(0, 1): 2, (0, 0): -1}],
         [{(1, 1): Fraction(1, 3), (0, 0): 5}])
@settings(max_examples=50, deadline=None)
def test_ideal_normal_forms_match_the_rational_reducer(order, gen_data, data):
    # Normal forms leave the engine divided once by the input's denominator
    # times the scale of the integer division; they equal the remainders of
    # plain division over Q by the reduced basis.
    R = PolyRing("xy", order)
    gens = [_poly(R, d) for d in gen_data]
    try:
        gb = groebner(gens, R, budget=BUDGET)
    except ResourceBudgetError:
        assume(False)
    basis = [_element({0: g}) for g in gb]
    for d in data:
        p = _poly(R, d)
        assert _element({0: normal_form(p, gb)}) == reference_remainder(
            basis, _element({0: p}), order)


@given(orders, module_cases, st.lists(
    st.dictionaries(st.integers(0, 2), rational_polys(2), max_size=3),
    min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_module_normal_forms_match_the_rational_reducer(order, case, data):
    rank, gen_data, ideal = case
    R = PolyRing("xy", order)
    F = FreeModule(R, rank)
    gens = [ModuleVector(F, {p: _poly(R, q) for p, q in d.items()}) for d in gen_data]
    try:
        ring_gb = None if ideal is None else groebner(
            [_poly(R, j) for j in ideal], R, budget=BUDGET
        )
        mgb = module_buchberger(gens, ring_gb, F, budget=BUDGET)
    except ResourceBudgetError:
        assume(False)
    basis = [_element(v.components) for v in mgb]
    for d in data:
        comps = {p % rank: _poly(R, q) for p, q in d.items()}
        comps = {p: q for p, q in comps.items() if not q.is_zero()}
        nf = module_normal_form(ModuleVector(F, comps), mgb)
        assert _element(nf.components) == reference_remainder(
            basis, _element(comps), order)


def test_universal_bases_pass_the_certificate(A_sl2, um_adjoint):
    assert ideal_failures(A_sl2.gb, jgens(A_sl2)) == []
    assert module_failures(um_adjoint.mgb, um_adjoint.relgens, A_sl2.gb) == []


def test_certificate_fails_on_broken_bases(A_sl2, um_adjoint):
    # The certificate reads a basis's ``ring`` (or ``module``) and its
    # ``generators`` only, so a broken basis is a stand-in holding those.
    gb = A_sl2.gb
    gens = list(gb.generators)

    def broken(polynomials):
        return SimpleNamespace(ring=gb.ring, generators=tuple(polynomials))

    # One element missing: some generator or S-element no longer reduces.
    assert ideal_failures(broken(gens[1:]), jgens(A_sl2))
    # Not monic.
    scaled = (gens[0].scale(Fraction(2)), *gens[1:])
    assert "lead of element 0 is not monic" in ideal_failures(broken(scaled), jgens(A_sl2))
    # Not reduced: a multiple of one element's lead added to another.
    x = gb.ring.var(0)
    unreduced = (gens[0], gens[1] + gens[0] * x, *gens[2:])
    assert any("divides a term" in f
               for f in ideal_failures(broken(unreduced), jgens(A_sl2)))
    # A module basis with its last element missing.
    mgb = um_adjoint.mgb
    assert module_failures(
        SimpleNamespace(module=mgb.module, generators=mgb.generators[:-1]),
        um_adjoint.relgens, A_sl2.gb,
    )
