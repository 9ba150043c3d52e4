from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    count_calls,
    delta,
    delta_images,
    epsilon,
    forbid_engine,
    heisenberg,
    jgens,
    monomials_up_to_degree,
    reference_universal_polynomials,
    ring_map,
    sl3,
    solvable2,
    tensor_ring,
)
from univalg import lie, linalg, poly, universal_algebra
from univalg.cli import golden_sl2_polynomials
from univalg.formats import parse_algebra_text
from univalg.lie import LieAlgebra, Violation, sl2
from univalg.poly import DEGREVLEX, LEX, PolyRing
from univalg.representations import MatrixARep, validate_arep
from univalg.universal_algebra import (
    BialgebraStructure,
    UniversalAlgebra,
    algebra_ring,
    build_universal_algebra,
    check_defining_relations,
    monomial_basis_up_to_degree,
    universal_polynomials,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def test_generator_count_and_order(sl2_alg):
    gens = universal_polynomials(sl2_alg, sl2_alg)
    assert len(gens) == 27  # n * d^2 = 3 * 9
    nonzero = [g for g in gens if not g.is_zero()]
    assert len(nonzero) == 18  # (i,i) pairs give zero for sl2


def test_first_generator_hand_check(sl2_alg):
    # P_(1,1,2) = X13 - 2 X12 X31 + 2 X11 X32 (bracket [f1,f2]=f3 linear part,
    # quadratic part from the sl2 bracket table).
    ring = algebra_ring(sl2_alg, sl2_alg)
    gens = universal_polynomials(sl2_alg, sl2_alg, ring)

    def x(s, i):
        return ring.var((s - 1) * 3 + (i - 1))

    expected = (
        x(1, 3)
        - (x(1, 2) * x(3, 1)).scale(Fraction(2))
        + (x(1, 1) * x(3, 2)).scale(Fraction(2))
    )
    # labels run in (a,i,j) order: a=1,i=1,j=2 is index 1
    assert gens[1] == expected


def test_sl2_golden_ideal(A_sl2):
    nine = golden_sl2_polynomials(A_sl2.ring)
    assert poly.ideal_equal(jgens(A_sl2), nine, A_sl2.ring)


def test_defining_relations_hold(A_sl2):
    assert check_defining_relations(A_sl2).ok


def test_perfect_g_collapse_row_reduction_oracle():
    # Oracle: the linear parts {sum_u beta^u_ij X_1u} span all of
    # span{X11, X12, X13} because g' = g for sl2; check by row reduction.
    k = LieAlgebra.abelian(1)
    g = sl2()
    rows = []
    for i in range(3):
        for j in range(3):
            rows.append([g.table[i][j][u] for u in range(3)])
    assert linalg.rank(rows) == 3  # the oracle
    A = build_universal_algebra(k, g)
    for u in range(3):
        assert poly.ideal_contains(A.gb, A.ring.var(u))
    # Quotient is k: 1 does not reduce to 0, and only 1 survives any degree.
    assert not poly.ideal_contains(A.gb, A.ring.one())
    assert monomial_basis_up_to_degree(A, 3) == [(0, 0, 0)]


def test_abelian_freeness_binomial_counts():
    from math import comb

    for n, d in ((1, 1), (2, 2), (2, 3)):
        h, g = LieAlgebra.abelian(n), LieAlgebra.abelian(d)
        A = build_universal_algebra(h, g)
        assert all(p.is_zero() for p in jgens(A))
        assert len(A.gb) == 0
        nv = n * d
        for dmax in range(3):
            assert len(monomial_basis_up_to_degree(A, dmax)) == comb(nv + dmax, dmax)


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
@pytest.mark.parametrize("name", ["sl2", "heis", "sol2", "ab2"])
def test_standard_monomial_walk_matches_filtered_enumeration(name, order):
    # The walk over the order ideal of standard monomials against every
    # monomial up to the degree, filtered by the lead monomials.
    L = {"sl2": sl2, "heis": heisenberg, "sol2": solvable2,
         "ab2": lambda: LieAlgebra.abelian(2)}[name]()
    A = build_universal_algebra(L, L, order=order)
    leads = A.gb.lead_monomials()
    for dmax in range(7):
        oracle = [m for m in monomials_up_to_degree(A.ring, dmax)
                  if not any(poly.mono_divides(lm, m) for lm in leads)]
        assert monomial_basis_up_to_degree(A, dmax) == oracle


def test_sl2_degree1_basis_linear_algebra_oracle(A_sl2):
    # Oracle: row-reduce the degree-<=1 parts of the nine golden relations
    # over the 10 monomials of degree <= 1; none of the variables is a lead
    # in degree 1, so all 10 standard monomials survive.
    nine = golden_sl2_polynomials(A_sl2.ring)
    monos = list(monomials_up_to_degree(A_sl2.ring, 1))
    rows = []
    for p in nine:
        row = [poly._polynomial(p, A_sl2.ring).terms.get(m, ZERO) for m in monos]
        if any(row):
            rows.append(row)
    # Linear parts alone are linearly independent of nothing: every relation
    # has a quadratic lead, so the degree-1 truncations span no new leads.
    red, pivots = linalg.rref(rows) if rows else ([], [])
    # The oracle count: 10 monomials minus the number of pivot columns that
    # occur as lead monomials of the ideal in degree <= 1 (none here).
    leads_deg1 = [m for m in A_sl2.gb.lead_monomials() if sum(m) <= 1]
    assert leads_deg1 == []
    assert len(monomial_basis_up_to_degree(A_sl2, 1)) == 10


def test_algebra_element_arithmetic(A_sl2):
    def x(s, i):
        return A_sl2.ring.var(A_sl2.var_index(s, i))

    # The golden relation X33 = X11X22 - X12X21 in the quotient, and 1 != 0.
    assert poly.ideal_contains(A_sl2.gb, x(1, 1) * x(2, 2) - x(1, 2) * x(2, 1) - x(3, 3))
    assert not poly.ideal_contains(A_sl2.gb, A_sl2.ring.one())


def test_lex_order_variant(sl2_alg):
    A = build_universal_algebra(sl2_alg, sl2_alg, order=LEX)
    assert check_defining_relations(A).ok
    nine = golden_sl2_polynomials(A.ring)
    assert poly.ideal_equal(jgens(A), nine, A.ring)


def test_permutation_functoriality_sanity(sl2_alg):
    # Permuting g's basis gives an isomorphic A under the variable renaming.
    rng = Random(3)
    perm = [2, 0, 1]
    table = [
        [
            [sl2_alg.table[perm[i]][perm[j]][perm[s]] for s in range(3)]
            for j in range(3)
        ]
        for i in range(3)
    ]
    g2 = LieAlgebra(3, table, name="sl2-permuted")
    A1 = build_universal_algebra(sl2_alg, sl2_alg)
    A2 = build_universal_algebra(sl2_alg, g2)
    # Renaming X[s,i] -> X[s, perm^-1(i)] carries J(A2) onto J(A1).
    images = []
    for s in range(1, 4):
        for i in range(3):
            images.append(A1.ring.var(A1.var_index(s, perm[i] + 1)))
    mapped = [ring_map(p, A1.ring, images) for p in jgens(A2)]
    assert poly.ideal_equal(mapped, jgens(A1), A1.ring)


def test_bialgebra_laws_normal_form_oracle(A_sl2, B_sl2):
    # Oracle: reduce Delta(P) by the doubled-ring basis directly (the verify
    # method); also spot-check epsilon on a quadratic relation by hand.
    assert B_sl2.verify().ok
    for label, p in zip(A_sl2.labels, jgens(A_sl2)):
        assert epsilon(B_sl2, p) == 0
        assert delta(B_sl2, p).is_zero()


def test_construction_and_repr_build_no_basis(monkeypatch):
    # A(h,g) is its ring and relations until its basis is read, and its repr
    # names h and g only: A(sl3, sl2)'s basis takes longer than any test.
    forbid_engine(monkeypatch)
    A = UniversalAlgebra(sl3(), sl2(), order=LEX, budget=0)
    assert repr(A) == "UniversalAlgebra(h=sl3, g=sl2)"
    assert (A.ring.nvars, len(A.relations), A.budget) == (24, 72, 0)
    with pytest.raises(RuntimeError, match="the Groebner engine ran"):
        A.gb
    with pytest.raises(ValueError, match="h is not a Lie algebra"):
        UniversalAlgebra(LieAlgebra(1, [[[ONE]]]), sl2())


def test_bialgebra_requires_same_hg():
    k = LieAlgebra.abelian(1)
    A = build_universal_algebra(k, sl2())
    with pytest.raises(ValueError):
        BialgebraStructure(A)


def engine_tensor_basis(A, B):
    """J' + J'' computed by the engine: poly.groebner of the two block images
    of A's generators in the doubled ring."""
    n2 = A.ring.nvars
    xs = [tensor_ring(B).var(k) for k in range(2 * n2)]
    gens = [ring_map(p, tensor_ring(B), xs[b * n2:(b + 1) * n2])
            for b in (0, 1) for p in jgens(A)]
    return poly.groebner(gens, tensor_ring(B))


@pytest.fixture(scope="module", params=[DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def sl2_bialgebra(request, sl2_alg):
    """A(sl2,sl2) under each order, its bialgebra and the engine's basis of
    J' + J''."""
    A = build_universal_algebra(sl2_alg, sl2_alg, order=request.param)
    B = BialgebraStructure(A)
    return A, B, engine_tensor_basis(A, B)


def test_delta_on_generator_matrix_coproduct(A_sl2, B_sl2):
    # Delta(x_12) = sum_s x'_1s x''_s2 before reduction; after reduction it
    # must still be congruent to the same element.
    xij = A_sl2.ring.var(A_sl2.var_index(1, 2))
    d = delta(B_sl2, xij)
    expected = delta_images(B_sl2)[A_sl2.var_index(1, 2)]
    assert poly.normal_form(expected - d, engine_tensor_basis(A_sl2, B_sl2)).is_zero()


# Polynomials of degree <= 3 in the nine variables of A(sl2,sl2): up to four
# terms, each a product of up to three variables with a rational coefficient.
sl2_cubics = st.lists(
    st.tuples(st.lists(st.integers(0, 8), max_size=3),
              st.fractions(min_value=-4, max_value=4, max_denominator=6)),
    max_size=4,
)


@given(sl2_cubics)
@settings(max_examples=40, deadline=None)
def test_delta_matches_ring_map_reduced_by_engine_basis(sl2_bialgebra, terms):
    # Oracle: Delta as the ring map of the delta images, reduced modulo the
    # engine's basis of J' + J'' instead of factor-wise.
    A, B, gb = sl2_bialgebra
    p = A.ring.zero()
    for variables, c in terms:
        m = [0] * 9
        for k in variables:
            m[k] += 1
        p = p + A.ring.monomial(tuple(m), linalg.scalar(c))
    image = ring_map(p, tensor_ring(B), delta_images(B))
    assert delta(B, p) == poly.normal_form(image, gb)


def test_doubled_row_denominator_fails_descent(A_sl2, monkeypatch):
    # The first nonzero row of A's normal forms that Delta builds gets twice
    # its denominator, i.e. half its value.
    B = BialgebraStructure(A_sl2)
    build = A_sl2.table.row
    doubled = []

    def wrong_row(key):
        den, nums = build(key)
        if nums and not doubled:
            doubled.append(key)
            den *= 2
        return den, nums

    monkeypatch.setattr(A_sl2.table, "row", wrong_row)
    assert "comult-descends" in _violated_checks(B)
    assert doubled


def test_corrupted_counit_entry_fails_descent_exactly(A_sl2):
    # epsilon(x_11 x_22) = 0 instead of 1, written into B's table before the
    # descent is first read.  P_(3,1,2) and P_(3,2,1) hold X_11 X_22 with
    # opposite coefficients, so their counits are no longer 0; the laws
    # read epsilon of the variables only.
    B = BialgebraStructure(A_sl2)
    x = B.variables
    B._epsilons[A_sl2.table.times(x[0], x[4])] = 0
    assert B.descent.violations == (
        Violation("counit-kills-ideal", (3, 1, 2), "eps = 1"),
        Violation("counit-kills-ideal", (3, 2, 1), "eps = -1"))
    assert B.laws().ok


def _violated_checks(B):
    return {v.check for v in B.verify().violations}


def _key(A, *ij):
    """Key of x_ij in A's multiplication table, or of 1 when ``ij`` is empty."""
    m = [0] * A.ring.nvars
    if ij:
        m[A.var_index(*ij)] = 1
    return A.table.key(0, tuple(m))


def test_bialgebra_verify_catches_delta_without_second_factor(A_sl2):
    # Delta(x_ij) = x_ij (x) 1 is coassociative and kills J, but
    # (eps (x) id) Delta(x_ij) = delta_ij, not x_ij.
    B = BialgebraStructure(A_sl2)
    for i in range(1, 4):
        for j in range(1, 4):
            B._deltas[_key(A_sl2, i, j)] = {(_key(A_sl2, i, j), _key(A_sl2)): 1}
    assert "counit-law" in _violated_checks(B)


def test_bialgebra_verify_catches_zero_counit(A_sl2):
    B = BialgebraStructure(A_sl2)
    B._epsilons = dict.fromkeys(B._epsilons, ZERO)
    assert "counit-law" in _violated_checks(B)


def test_bialgebra_verify_catches_transposed_delta(A_sl2):
    # Delta(x_ij) = sum_s x_is (x) x_js is not coassociative.
    B = BialgebraStructure(A_sl2)
    for i in range(1, 4):
        for j in range(1, 4):
            B._deltas[_key(A_sl2, i, j)] = {
                (_key(A_sl2, i, s), _key(A_sl2, j, s)): 1 for s in range(1, 4)}
    assert "coassociativity" in _violated_checks(B)


def test_delta_at_degree_3000_fills_its_chain_by_a_loop():
    # Over A(k, k) with k abelian of dimension 1, J = 0 and Delta(x) = x (x) x,
    # so Delta(x^3000) = x'^3000 x''^3000, reached through 3000 divisors.
    k = LieAlgebra.abelian(1)
    B = BialgebraStructure(build_universal_algebra(k, k))
    assert delta(B, B.owner.ring.monomial((3000,))) == tensor_ring(B).monomial((3000, 3000))


def test_ideal_membership_reads_the_integer_remainder(A_sl2, monkeypatch):
    # Membership is one division whose integer remainder is empty: nothing
    # leaves the engine, so no remainder is divided or unpacked.
    x = A_sl2.ring.var(0)
    member = jgens(A_sl2)[1] * x
    calls = [count_calls(monkeypatch, poly, name) for name in ("_divided", "_unpack")]
    assert check_defining_relations(A_sl2).ok
    assert poly.ideal_contains(A_sl2.gb, member)
    assert not poly.ideal_contains(A_sl2.gb, x)
    assert calls == [[], []]
    poly.normal_form(x, A_sl2.gb)  # a normal form does leave the engine
    assert all(calls)


# ---------------------------------------------------------------------------
# J's generators as packed terms
# ---------------------------------------------------------------------------


def gl2() -> LieAlgebra:
    """sl2 plus a central e4."""
    return LieAlgebra.from_brackets(
        4, {(1, 2): {3: ONE}, (3, 1): {1: 2 * ONE}, (3, 2): {2: -2 * ONE}},
        name="gl2", antisymmetrize=True)


def rescaled(L: LieAlgebra, k: list[Fraction]) -> LieAlgebra:
    """L in the basis e'_i = k_i e_i: [e'_i, e'_j] = sum_s k_i k_j c_ij^s / k_s e'_s."""
    n = L.dim
    return LieAlgebra(n, [[[k[i] * k[j] * L.table[i][j][s] / k[s] for s in range(n)]
                           for j in range(n)] for i in range(n)], name=f"{L.name}'")


def relation_algebras() -> list[LieAlgebra]:
    """sl2, gl2, heis, sol2, abelian algebras, and a seeded rescaled copy of
    each non-abelian one, whose structure constants are not all integers."""
    rng = Random(2024)
    base = [sl2(), gl2(), heisenberg(), solvable2()]
    scaled = [rescaled(L, [Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2, 5)))
                           for _ in range(L.dim)]) for L in base]
    return base + [LieAlgebra.abelian(1), LieAlgebra.abelian(2)] + scaled


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_relations_match_the_reference_polynomials(order):
    # A.relations, unpacked, are the P_(a,i,j) of Polynomial arithmetic entry
    # by entry; each stores nonzero scalars only, integral ones as ints, and
    # an i = j triple, whose X_si X_ti terms cancel, is an empty dict.  The
    # engine reads only the i < j half: the (a,j,i) relation is exactly the
    # negated (a,i,j) one, and all relations give the same basis.
    algebras = relation_algebras()
    fractional = False
    for h in algebras:
        for g in algebras:
            A = build_universal_algebra(h, g, order=order)
            reference = reference_universal_polynomials(h, g, A.ring)
            assert len(A.relations) == len(reference) == h.dim * g.dim ** 2
            by_label = dict(zip(A.labels, A.relations))
            for label, terms, p in zip(A.labels, A.relations, reference):
                assert poly._polynomial(terms, A.ring) == p, (h.name, g.name, label)
                assert all(type(c) is int or c.denominator != 1 for c in terms.values())
                assert all(terms.values())
                fractional |= any(type(c) is Fraction for c in terms.values())
                a, i, j = label
                if i == j:
                    assert terms == {}
                else:
                    assert by_label[a, j, i] == {k: -c for k, c in terms.items()}
            assert reference == universal_polynomials(h, g, A.ring)
            assert poly.groebner(A.relations, A.ring) == A.gb, (h.name, g.name)
    assert fractional


def test_engine_takes_the_independent_half_of_j(sl2_alg, monkeypatch):
    # A(sl2,sl2) hands the engine the 9 relations with i < j, out of 27, and
    # the engine reduces 79 S-pairs for them (88 when it read all 27).
    passed = []
    groebner = poly.groebner

    def spy(gens, ring, budget):
        passed.extend(gens)
        return groebner(gens, ring, budget=budget)

    monkeypatch.setattr(poly, "groebner", spy)
    reduced = count_calls(monkeypatch, poly, "_s_terms")
    A = build_universal_algebra(sl2_alg, sl2_alg)
    half = [terms for (_, i, j), terms in zip(A.labels, A.relations) if i < j]
    assert len(passed) == 9 and all(p is t for p, t in zip(passed, half))
    assert len(reduced) == 79 and len(A.gb) == 22


def test_a_flipped_relation_the_engine_skips_fails_the_certificate(sl2_alg, monkeypatch):
    # The engine never reads an i > j relation; flipping one coefficient of
    # one of them leaves the basis as it is, and the relation certificate,
    # which reads every relation, names exactly that one.
    true_relations = universal_algebra._universal_relations
    h = g = sl2_alg
    labels = universal_algebra.jgen_labels(h, g)
    rng = Random(32)
    k = rng.choice([k for k, (_, i, j) in enumerate(labels) if i > j])
    relations = true_relations(h, g, algebra_ring(h, g))
    t = rng.choice(sorted(relations[k]))

    def flipped(h, g, ring):
        rels = list(true_relations(h, g, ring))
        rels[k] = {**rels[k], t: -rels[k][t]}
        return tuple(rels)

    monkeypatch.setattr(universal_algebra, "_universal_relations", flipped)
    with pytest.raises(AssertionError) as raised:
        build_universal_algebra(h, g)
    report = lie.Report((Violation("relation", labels[k], "normal forms differ"),))
    assert str(raised.value) == f"defining relations fail in A(h,g):\n{report}"


def test_build_packs_no_polynomial(sl2_alg, monkeypatch):
    # J's generators are written as packed terms, which the engine and the
    # relation certificate read as they are: building and certifying A(h,g)
    # packs and unpacks nothing; universal_polynomials unpacks each once.
    packed = count_calls(monkeypatch, poly, "_pack")
    unpacked = count_calls(monkeypatch, poly, "_unpack")
    A = build_universal_algebra(sl2_alg, sl2_alg)
    assert check_defining_relations(A).ok
    assert packed == [] and unpacked == []
    universal_polynomials(A.h, A.g, A.ring)
    assert len(unpacked) == len(A.relations)


def test_bialgebra_and_arep_checks_leave_jgens_unfilled(sl2_alg, monkeypatch):
    # B's descent and laws take epsilon and Delta of each packed P on keys,
    # and validate_arep builds its evaluation words from the relation keys:
    # none of them unpacks J's generators into polynomials.
    A = build_universal_algebra(sl2_alg, sl2_alg)
    unpacked = count_calls(monkeypatch, poly, "_unpack")
    B = BialgebraStructure(A)
    assert B.descent.ok and B.laws().ok
    assert validate_arep(MatrixARep.counit(A)).ok
    bad = MatrixARep(A, 1, {(1, 1): [[ONE]]})  # x_22 and x_33 act as 0
    assert {v.check for v in validate_arep(bad).violations} == {"relation"}
    assert unpacked == []


def test_each_lie_algebra_is_validated_once(monkeypatch):
    # The report lives on the immutable algebra: parsing validates it, and
    # building A(h,g) from the parsed h = g reads the same report.
    calls = count_calls(monkeypatch, lie, "validate_lie_algebra")
    L = parse_algebra_text("algebra s\ndim 3\nbracket 1 2: 3:1\n"
                           "bracket 3 1: 1:2\nbracket 3 2: 2:-2\n"
                           "bracket 2 1: 3:-1\nbracket 1 3: 1:-2\nbracket 2 3: 2:2\n")
    build_universal_algebra(L, L)
    assert calls == [(L,)] and L.validation is L.validation


def test_a_flipped_relation_coefficient_is_reported_by_its_label(A_sl2, monkeypatch):
    # Negating one coefficient of one stored relation leaves it outside J,
    # and the certificate names exactly that relation.
    rng = Random(11)
    relations = A_sl2.relations
    flipped_any = False
    for k, (label, terms) in enumerate(zip(A_sl2.labels, relations)):
        if not terms:
            continue
        t = rng.choice(sorted(terms))
        monkeypatch.setattr(A_sl2, "relations", (
            *relations[:k], {**terms, t: -terms[t]}, *relations[k + 1:]))
        assert check_defining_relations(A_sl2).violations == (
            Violation("relation", label, "normal forms differ"),)
        flipped_any = True
    assert flipped_any
    monkeypatch.undo()
    assert check_defining_relations(A_sl2).ok


def test_groebner_and_membership_take_packed_terms(A_sl2):
    # The ring front reads packed terms as they are, and polynomials of its
    # ring as before; a polynomial of another ring is still refused.
    ring = A_sl2.ring
    assert poly.groebner(A_sl2.relations, ring) == A_sl2.gb
    mixed = [*A_sl2.relations[:9], *jgens(A_sl2)[9:]]
    assert poly.groebner(mixed, ring).generators == A_sl2.gb.generators
    x = ring.var(0)
    assert not poly.ideal_contains(A_sl2.gb, poly._pack({0: x}, poly._codec_of(ring)))
    other = PolyRing(ring.names, LEX).var(0)
    with pytest.raises(ValueError, match="generators live in different rings"):
        poly.groebner([*A_sl2.relations, other], ring)
    with pytest.raises(ValueError, match="polynomial and Groebner basis"):
        poly.ideal_contains(A_sl2.gb, other)


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_packed_terms_print_as_their_polynomial(order):
    # One text form: packed terms, read in descending key order, print as
    # poly.render prints the polynomial they unpack to, for coefficients
    # +-1, other integers, rationals and a constant term.
    rng = Random(31)
    ring = PolyRing([f"x{i}" for i in range(4)], order)
    codec = poly._codec_of(ring)
    coefficients = [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]
    for _ in range(60):
        terms = {codec.monomial(tuple(rng.randint(0, 2) for _ in range(4))):
                 rng.choice(coefficients) for _ in range(rng.randint(0, 5))}
        if rng.random() < 0.5:
            terms[codec.monomial((0, 0, 0, 0))] = rng.choice(coefficients)
        assert poly.render(terms, ring) == poly.render(poly._polynomial(terms, ring))
    one = {codec.monomial((0, 0, 0, 0)): -1, codec.monomial((1, 0, 0, 0)): Fraction(1, 2)}
    assert poly.render(one, ring) == "1/2*x0 - 1"
    assert poly.render({}, ring) == "0"
