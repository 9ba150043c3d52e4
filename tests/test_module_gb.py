import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univalg.modgb import (
    FreeModule,
    ModuleVector,
    _s_vector,
    module_buchberger,
    module_normal_form,
)
from univalg.poly import DEGREVLEX, PolyRing, ResourceBudgetError, groebner

ONE = Fraction(1)


@pytest.fixture
def setup():
    R = PolyRing(["x", "y"], DEGREVLEX)
    F = FreeModule(R, 2)
    return R, F


def test_vector_arithmetic(setup):
    R, F = setup
    x = R.var(0)
    v = F.basis_vector(0).poly_mul(x) + F.basis_vector(1)
    w = v - F.basis_vector(1)
    assert w.components == {0: x}
    assert (v - v).is_zero()
    assert v.lead() == (0, (1, 0))  # position over term: position 0 leads


def test_position_over_term_order(setup):
    R, F = setup
    x, y = R.var(0), R.var(1)
    # A huge monomial at position 1 still loses to a constant at position 0.
    v = F.basis_vector(0) + F.basis_vector(1).poly_mul(x * x * y * y)
    assert v.lead() == (0, (0, 0))


def test_module_normal_form_quotient(setup):
    R, F = setup
    x, y = R.var(0), R.var(1)
    # Submodule: (x - 2)e0, and the ring ideal (y^2 - x) folded in.
    ring_gb = groebner([y * y - x], R)
    mgb = module_buchberger([ModuleVector(F, {0: x - R.const(2)})], ring_gb, F)
    v = F.basis_vector(0).poly_mul(y * y)  # y^2 e0 -> x e0 -> 2 e0
    nf = module_normal_form(v, mgb)
    assert nf == F.basis_vector(0).scale(Fraction(2))
    # Position 1 only sees the ring ideal.
    w = F.basis_vector(1).poly_mul(y * y + x)
    nf1 = module_normal_form(w, mgb)
    assert nf1 == F.basis_vector(1).poly_mul(x.scale(Fraction(2)))


def test_module_gb_svector_recheck_oracle(setup):
    # Independent certificate that the pair-skipping in module_buchberger is
    # sound: all same-position S-vectors of the final basis reduce to zero.
    R, F = setup
    x, y = R.var(0), R.var(1)
    ring_gb = groebner([x * x - y], R)
    gens = [
        ModuleVector(F, {0: x * y - R.one(), 1: y}),
        ModuleVector(F, {0: y * y}),
        ModuleVector(F, {1: x - R.const(3)}),
    ]
    mgb = module_buchberger(gens, ring_gb, F)
    basis = list(mgb.generators)
    for i in range(len(basis)):
        for j in range(i):
            if basis[i].lead()[0] != basis[j].lead()[0]:
                continue
            s = _s_vector(basis[i], basis[j])
            assert module_normal_form(s, mgb).is_zero()
    # Generators and folded ideal reduce to zero.
    for g in gens:
        assert module_normal_form(g, mgb).is_zero()
    for jpoly in ring_gb.generators:
        for p in range(F.rank):
            assert module_normal_form(ModuleVector(F, {p: jpoly}), mgb).is_zero()


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_normal_form_linearity(a, b, e1, e2):
    R = PolyRing(["x", "y"], DEGREVLEX)
    F = FreeModule(R, 2)
    x, y = R.var(0), R.var(1)
    mgb = module_buchberger(
        [ModuleVector(F, {0: x - R.one(), 1: y})], groebner([y * y - R.one()], R), F
    )
    v = F.basis_vector(0).poly_mul(R.monomial((e1, e2), Fraction(a)))
    w = F.basis_vector(1).poly_mul(R.monomial((e2, e1), Fraction(b)))
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
