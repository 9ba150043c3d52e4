from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gb_certificate import ideal_failures
from helpers import (
    const,
    count_calls,
    contains_unit,
    degree,
    eval_scalars,
    greater,
    lead_monomial,
    mono_div,
    mono_lcm,
)
from univalg import poly
from univalg.lie import sl2
from univalg.poly import (
    DEGREVLEX,
    LEX,
    MAX_EXPONENT,
    ExponentOverflowError,
    PolyRing,
    Polynomial,
    ResourceBudgetError,
    groebner,
    ideal_contains,
    ideal_equal,
    mono_divides,
    mono_mul,
    normal_form,
    render,
)
from univalg.universal_algebra import build_universal_algebra

ONE = Fraction(1)


def ring3(order=DEGREVLEX):
    return PolyRing(["x", "y", "z"], order)


# ---------------------------------------------------------------------------
# Monomials and orders
# ---------------------------------------------------------------------------


def test_monomial_arithmetic():
    a, b = (2, 0, 1), (1, 3, 0)
    assert mono_mul(a, b) == (3, 3, 1)
    assert mono_lcm(a, b) == (2, 3, 1)
    assert mono_divides(b, mono_lcm(a, b))
    assert mono_div((3, 3, 1), a) == b
    assert sum(a) == 3


def test_degrevlex_vs_lex():
    # x*z vs y^2: same degree; degrevlex compares reversed exponents last-first.
    xz, y2 = (1, 0, 1), (0, 2, 0)
    assert greater(DEGREVLEX, y2, xz)  # smaller last exponent wins in degrevlex
    assert greater(LEX, xz, y2)  # lex looks at x first


def test_lex_ignores_total_degree():
    x, y3 = (1, 0, 0), (0, 3, 0)
    assert greater(LEX, x, y3)
    assert greater(DEGREVLEX, y3, x)


# ---------------------------------------------------------------------------
# Polynomial arithmetic
# ---------------------------------------------------------------------------


def test_ring_constructors_and_render():
    R = ring3()
    p = R.var(0) * R.var(0) - const(R, 1)
    assert render(p) == "x^2 - 1"
    assert lead_monomial(p) == (2, 0, 0)
    assert degree(p) == 2
    assert (p - p).is_zero()


def test_eval_scalars():
    # Evaluation at matrices is tested against a reference in
    # test_representations.test_validate_arep_matches_reference_evaluator.
    R = ring3()
    p = R.var(0) * R.var(1) + const(R, 2)
    assert eval_scalars(p, [Fraction(3), Fraction(4), Fraction(0)]) == 14


@st.composite
def small_polys(draw, nvars=3, ring=None):
    R = ring or ring3()
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
        coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Polynomial(R, terms)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


# ---------------------------------------------------------------------------
# Groebner bases
# ---------------------------------------------------------------------------


def test_reduced_basis_hand_oracle():
    # Oracle (hand reduction): x^3 - x = x * (x^2 - 1), so the reduced basis
    # of (x^2 - 1, x^3 - x) is {x^2 - 1}.
    R = PolyRing(["x"], LEX)
    x = R.var(0)
    g1 = x * x - const(R, 1)
    g2 = x * x * x - x
    assert (g2 - x * g1).is_zero()  # the oracle computation itself
    gb = groebner([g2, g1], R)
    assert list(gb.generators) == [g1]


def test_normal_form_is_linear_projector():
    R = ring3()
    x, y, z = (R.var(i) for i in range(3))
    gb = groebner([x * x - y, y * y - z], R)
    p = x * x * x + y * x
    q = z * y - x
    np_, nq = normal_form(p, gb), normal_form(q, gb)
    assert normal_form(p + q, gb) == np_ + nq
    assert normal_form(np_, gb) == np_  # idempotent
    assert normal_form(p - np_, gb).is_zero()


@given(small_polys(), small_polys())
@settings(max_examples=30, deadline=None)
def test_normal_form_additive_property(p, q):
    R = p.ring
    x, y = R.var(0), R.var(1)
    gb = groebner([x * x - R.one(), y * y - x], R)
    assert normal_form(p + q, gb) == normal_form(
        normal_form(p, gb) + normal_form(q, gb), gb
    )
    assert normal_form(p * q, gb) == normal_form(
        normal_form(p, gb) * normal_form(q, gb), gb
    )


def test_buchberger_order_of_generators_irrelevant():
    R = ring3()
    x, y, z = (R.var(i) for i in range(3))
    gens = [x * y - z, y * z - x, z * x - y]
    gb1 = groebner(gens, R)
    gb2 = groebner(list(reversed(gens)), R)
    assert gb1.generators == gb2.generators  # reduced GB is unique


def test_groebner_spoly_recheck_oracle():
    # Independent certificate: every S-polynomial of the final basis reduces
    # to zero (no reliance on the pair-skipping criteria), by gb_certificate's
    # own division, which shares no code with the engine.
    R = ring3()
    x, y, z = (R.var(i) for i in range(3))
    gens = [x * y - z * z, x * z - y, y * y - z]
    assert ideal_failures(groebner(gens, R), gens) == []


def test_ideal_membership_and_equality():
    R = ring3()
    x, y = R.var(0), R.var(1)
    gb = groebner([x * x - y], R)
    assert ideal_contains(gb, (x * x - y) * (x + y))
    assert not ideal_contains(gb, x)
    assert ideal_equal([x * x - y], [(x * x - y).scale(Fraction(7))], R)
    assert not ideal_equal([x * x - y], [x], R)


def test_budget_error():
    R = ring3()
    x, y, z = (R.var(i) for i in range(3))
    with pytest.raises(ResourceBudgetError):
        groebner([x * y - z * z, x * z - y, y * y - z], R, budget=1)


def test_budget_counts_s_pair_reductions(monkeypatch):
    # A budget bounds the S-pair reductions, not the pairs taken: the pairs
    # the chain criterion skips are not counted, so on the i < j half of
    # A(sl2,sl2)'s relations the engine reduces exactly 30 before it stops.
    reductions = count_calls(monkeypatch, poly, "_s_terms")
    with pytest.raises(ResourceBudgetError,
                       match="^S-pair budget of 30 exceeded in buchberger$"):
        build_universal_algebra(sl2(), sl2(), budget=30)
    assert len(reductions) == 30


def test_unit_ideal_detected():
    R = PolyRing(["x"], DEGREVLEX)
    x = R.var(0)
    gb = groebner([x, x - R.one()], R)
    assert contains_unit(gb)
    assert normal_form(R.one(), gb).is_zero()


def test_empty_ideal():
    R = ring3()
    gb = groebner([], R)
    assert len(gb) == 0
    p = R.var(0) + const(R, 3)
    assert normal_form(p, gb) == p


def test_groebner_of_zeros_and_of_another_ring():
    R = ring3()
    assert len(groebner([R.zero(), R.zero()], R)) == 0
    other = PolyRing(["x", "y", "z"], LEX)
    for gens in ([R.var(0), other.var(1)], [other.zero()]):
        with pytest.raises(ValueError, match="generators live in different rings"):
            groebner(gens, R)


# ---------------------------------------------------------------------------
# Exponent limit of the packed terms
# ---------------------------------------------------------------------------


def test_input_exponent_at_the_field_limit():
    # (x^L y - z, x^L z): z*(x^L y - z) - y*(x^L z) = -z^2, and nothing more.
    R = ring3()
    x, y, z = (R.var(i) for i in range(3))
    xl = R.monomial((MAX_EXPONENT, 0, 0))
    gens = [xl * y - z, xl * z]
    gb = groebner(gens, R)
    assert list(gb.generators) == [z * z, xl * z, xl * y - z]
    assert ideal_failures(gb, gens) == []
    assert normal_form(xl * y * y, gb) == y * z


def test_input_exponent_outside_the_field_is_an_error():
    R = ring3()
    big = R.monomial((MAX_EXPONENT + 1, 0, 0))
    with pytest.raises(ExponentOverflowError):
        groebner([big - R.var(1)], R)
    gb = groebner([R.var(1)], R)
    for bad in (big, R.monomial((-1, 0, 0))):
        with pytest.raises(ExponentOverflowError):
            normal_form(bad, gb)


@pytest.mark.parametrize("a", [MAX_EXPONENT // 2, MAX_EXPONENT // 2 + 1])
def test_lex_reduction_past_the_input_degree(a):
    # In lex, x^2 reduces by x - y^a to y^(2a): the reducer itself raises the
    # exponent of y above the input degree a.  At 2a = MAX_EXPONENT - 1 the
    # basis is exact; one step further it is an error, never a wrapped term.
    R = PolyRing(["x", "y"], LEX)
    x, ya = R.var(0), R.monomial((0, a))
    gens = [x - ya, x * x]
    if 2 * a > MAX_EXPONENT:
        with pytest.raises(ExponentOverflowError):
            groebner(gens, R)
        with pytest.raises(ExponentOverflowError):
            normal_form(x * x, groebner([x - ya], R))
        return
    gb = groebner(gens, R)
    assert list(gb.generators) == [ya * ya, x - ya]
    assert ideal_failures(gb, gens) == []


def test_lex_s_polynomial_past_the_field_limit_is_an_error():
    # z*(x y - z^L) - y*(x z) = -z^(L+1): the S-polynomial itself overflows.
    R = PolyRing(["x", "y", "z"], LEX)
    x, y, z = (R.var(i) for i in range(3))
    with pytest.raises(ExponentOverflowError):
        groebner([x * y - R.monomial((0, 0, MAX_EXPONENT)), x * z], R)


# ---------------------------------------------------------------------------
# Scalars: int coefficients stay exact
# ---------------------------------------------------------------------------


def _twin(p):
    """The same polynomial with every coefficient a Fraction."""
    return Polynomial(p.ring, {m: Fraction(c) for m, c in p.terms.items()})


def _exact(polys):
    return all(type(c) in (int, Fraction) for p in polys for c in p.terms.values())


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
def test_int_coefficients_give_the_bases_of_their_fraction_twins(order):
    # Making 3x + y monic divides by 3: an int / int quotient would be a float.
    R = PolyRing(["x", "y"], order)
    gens = [Polynomial(R, {(1, 0): 3, (0, 1): 1}), Polynomial(R, {(0, 2): 1, (0, 0): 2})]
    gb = groebner(gens, R)
    twin = groebner([_twin(g) for g in gens], R)
    assert gb.generators == twin.generators
    assert set(gb.generators) == {
        Polynomial(R, {(1, 0): 1, (0, 1): Fraction(1, 3)}),
        Polynomial(R, {(0, 2): 1, (0, 0): 2}),
    }
    assert _exact(gb.generators)
    x2 = Polynomial(R, {(2, 0): 1})
    nf = normal_form(x2, gb)
    assert nf == normal_form(_twin(x2), twin) == const(R, Fraction(-2, 9))
    assert _exact([nf, normal_form(_twin(x2), gb)])
