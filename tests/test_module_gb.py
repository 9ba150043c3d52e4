import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import const, free_generator, lead, lead_coeff, mono_div, mono_lcm, poly_mul
from univalg.modgb import (
    FreeModule,
    ModuleVector,
    module_buchberger,
    module_normal_form,
)
from univalg.poly import (
    DEGREVLEX,
    PolyRing,
    Polynomial,
    ResourceBudgetError,
    groebner,
)

ONE = Fraction(1)


def _s_vector(f, g):
    """S-vector of two vectors with leads at the same position, built from
    public vector operations only."""
    (_, mf), (_, mg) = lead(f), lead(g)
    lcm = mono_lcm(mf, mg)
    R = f.module.ring
    return poly_mul(f, R.monomial(mono_div(lcm, mf), ONE / lead_coeff(f))) - poly_mul(
        g, R.monomial(mono_div(lcm, mg), ONE / lead_coeff(g)))


@pytest.fixture
def setup():
    R = PolyRing(["x", "y"], DEGREVLEX)
    F = FreeModule(R, 2)
    return R, F


def test_vector_arithmetic(setup):
    R, F = setup
    x = R.var(0)
    v = poly_mul(free_generator(F, 0), x) + free_generator(F, 1)
    w = v - free_generator(F, 1)
    assert w.components == {0: x}
    assert (v - v).is_zero()
    assert lead(v) == (0, (1, 0))  # position over term: position 0 leads


def test_position_over_term_order(setup):
    R, F = setup
    x, y = R.var(0), R.var(1)
    # A huge monomial at position 1 still loses to a constant at position 0.
    v = free_generator(F, 0) + poly_mul(free_generator(F, 1), x * x * y * y)
    assert lead(v) == (0, (0, 0))


def test_module_normal_form_quotient(setup):
    R, F = setup
    x, y = R.var(0), R.var(1)
    # Submodule: (x - 2)e0, and the ring ideal (y^2 - x) folded in.
    ring_gb = groebner([y * y - x], R)
    mgb = module_buchberger([ModuleVector(F, {0: x - const(R, 2)})], ring_gb, F)
    v = poly_mul(free_generator(F, 0), y * y)  # y^2 e0 -> x e0 -> 2 e0
    nf = module_normal_form(v, mgb)
    assert nf == free_generator(F, 0).scale(Fraction(2))
    # Position 1 only sees the ring ideal.
    w = poly_mul(free_generator(F, 1), y * y + x)
    nf1 = module_normal_form(w, mgb)
    assert nf1 == poly_mul(free_generator(F, 1), x.scale(Fraction(2)))


# Small inputs over Q[x, y] with degrevlex: a polynomial is a dict from
# exponent pairs to integer coefficients, a vector a dict from position to
# polynomial.
R2 = PolyRing(["x", "y"], DEGREVLEX)
BUDGET = 2000
polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=3
)
vectors = st.dictionaries(st.integers(0, 1), polys, max_size=2)


def _poly(data):
    return Polynomial(R2, {m: Fraction(c) for m, c in data.items()})


@given(st.lists(vectors, min_size=1, max_size=3), st.lists(polys, max_size=2))
@example(
    gens=[
        {0: {(1, 1): 1, (0, 0): -1}, 1: {(0, 1): 1}},  # (xy - 1)e0 + y e1
        {0: {(0, 2): 1}},  # y^2 e0
        {1: {(1, 0): 1, (0, 0): -3}},  # (x - 3)e1
    ],
    ideal=[{(2, 0): 1, (0, 1): -1}],  # x^2 - y
)
@settings(max_examples=40, deadline=None)
def test_module_gb_svector_recheck_oracle(gens, ideal):
    # Independent certificate that the pair criteria in module_buchberger are
    # sound: all same-position S-vectors of the final basis reduce to zero,
    # and the reduced basis does not depend on the order of the generators.
    F = FreeModule(R2, 2)
    gens = [ModuleVector(F, {p: _poly(q) for p, q in g.items()}) for g in gens]
    try:
        ring_gb = groebner([_poly(j) for j in ideal], R2, budget=BUDGET)
        mgb = module_buchberger(gens, ring_gb, F, budget=BUDGET)
        again = module_buchberger(list(reversed(gens)), ring_gb, F, budget=BUDGET)
    except ResourceBudgetError:
        assume(False)
    assert again.generators == mgb.generators
    basis = list(mgb.generators)
    for i in range(len(basis)):
        for j in range(i):
            if lead(basis[i])[0] != lead(basis[j])[0]:
                continue
            s = _s_vector(basis[i], basis[j])
            assert module_normal_form(s, mgb).is_zero()
    # Generators and folded ideal reduce to zero.
    for g in gens:
        assert module_normal_form(g, mgb).is_zero()
    for jpoly in ring_gb.generators:
        for p in range(F.rank):
            assert module_normal_form(ModuleVector(F, {p: jpoly}), mgb).is_zero()


@given(st.lists(polys, min_size=1, max_size=3), st.lists(polys, max_size=2))
@settings(max_examples=40, deadline=None)
def test_rank_one_module_basis_is_the_ideal_basis(gens, ideal):
    # An ideal is the rank-1 case: g*e0 with the ring ideal J folded in spans
    # the ideal generated by the g and J.
    F = FreeModule(R2, 1)
    gens = [_poly(g) for g in gens]
    try:
        J = groebner([_poly(j) for j in ideal], R2, budget=BUDGET)
        mgb = module_buchberger(
            [ModuleVector(F, {0: g}) for g in gens], J, F, budget=BUDGET
        )
        gb = groebner(gens + list(J.generators), R2, budget=BUDGET)
    except ResourceBudgetError:
        assume(False)
    assert [v.components[0] for v in mgb.generators] == list(gb.generators)


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_normal_form_linearity(a, b, e1, e2):
    R = PolyRing(["x", "y"], DEGREVLEX)
    F = FreeModule(R, 2)
    x, y = R.var(0), R.var(1)
    mgb = module_buchberger(
        [ModuleVector(F, {0: x - R.one(), 1: y})], groebner([y * y - R.one()], R), F
    )
    v = poly_mul(free_generator(F, 0), R.monomial((e1, e2), Fraction(a)))
    w = poly_mul(free_generator(F, 1), R.monomial((e2, e1), Fraction(b)))
    lhs = module_normal_form(v + w, mgb)
    rhs = module_normal_form(v, mgb) + module_normal_form(w, mgb)
    assert lhs == module_normal_form(rhs, mgb)


def test_module_budget(setup):
    R, F = setup
    x, y = R.var(0), R.var(1)
    gens = [
        ModuleVector(F, {0: x * y - R.one(), 1: y}),
        ModuleVector(F, {0: y * y - x}),
        ModuleVector(F, {0: x * x - y}),
    ]
    with pytest.raises(ResourceBudgetError):
        module_buchberger(gens, None, F, budget=0)


@pytest.mark.parametrize("with_ideal", [False, True])
def test_module_buchberger_order_of_generators_irrelevant(with_ideal):
    # The reduced basis is unique, so neither the order of the generators nor
    # the order in which pairs are taken may change it.
    R = PolyRing(["x", "y", "z"], DEGREVLEX)
    F = FreeModule(R, 2)
    x, y, z = (R.var(i) for i in range(3))
    ring_gb = groebner([x * x - y * z, y * y - x * z], R) if with_ideal else None
    gens = [
        ModuleVector(F, {0: x * y - z, 1: z}),
        ModuleVector(F, {0: y * y - x, 1: x + y}),
        ModuleVector(F, {0: z * x, 1: x * x - y}),
        ModuleVector(F, {1: y * z + x}),
    ]
    shuffled = list(gens)
    random.Random(3).shuffle(shuffled)
    expected = module_buchberger(gens, ring_gb, F).generators
    for order in (list(reversed(gens)), shuffled):
        assert module_buchberger(order, ring_gb, F).generators == expected


def test_int_coefficients_give_the_module_bases_of_their_fraction_twins():
    # Rank 1 with the ideal of 3x + y and y^2 + 2 as generators: making 3x + y
    # monic divides by 3, which must stay exact for int coefficients.
    F = FreeModule(R2, 1)

    def vectors(c):
        return [ModuleVector(F, {0: Polynomial(R2, {(1, 0): c(3), (0, 1): c(1)})}),
                ModuleVector(F, {0: Polynomial(R2, {(0, 2): c(1), (0, 0): c(2)})})]

    mgb = module_buchberger(vectors(int), None, F)
    twin = module_buchberger(vectors(Fraction), None, F)
    assert mgb.generators == twin.generators
    assert mgb.generators[0].components[0] == Polynomial(
        R2, {(1, 0): 1, (0, 1): Fraction(1, 3)})
    x2 = ModuleVector(F, {0: Polynomial(R2, {(2, 0): 1})})
    nf = module_normal_form(x2, mgb)
    assert nf == module_normal_form(x2, twin) == ModuleVector(
        F, {0: const(R2, Fraction(-2, 9))})
    coefficients = [c for v in (*mgb.generators, nf)
                    for q in v.components.values() for c in q.terms.values()]
    assert all(type(c) in (int, Fraction) for c in coefficients)
