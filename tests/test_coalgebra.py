from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    act,
    count_calls,
    doubled,
    free_generator,
    heisenberg,
    natural2,
    nf,
    poly_mul,
    reference_delta_of_vector,
    reference_tensor_normal_form,
    solve_unique,
    tensor_ring,
    tensor_square_inputs,
    term,
    trivial_on_k,
)
from univalg.coalgebra import (
    CoalgebraOnU,
    FiniteCoalgebraModule,
    TensorSquare,
    bmodule_on_tensor_square,
    build_coalgebra,
    universal_coalgebra_map,
    verify_bmodule_coalgebra,
    verify_comodule,
)
from univalg import linalg, modgb, poly
from univalg.modgb import ModuleVector, _terms
from univalg.lie import LieAlgebra, LieModule, LinearMap, Report, Violation
from univalg.poly import MAX_EXPONENT, ExponentOverflowError
from univalg.representations import MatrixARep
from univalg.universal_algebra import (
    BialgebraStructure,
    add_pairs,
    bialgebra_structure,
    build_universal_algebra,
)
from univalg.universal_modules import build_universal_amodule

ZERO = Fraction(0)
ONE = Fraction(1)


@pytest.fixture(scope="module")
def abelian_setup():
    L = LieAlgebra.abelian(1)
    A = build_universal_algebra(L, L)
    U = LieModule.from_matrices(L, [[[ONE]]], name="scale1")
    um = build_universal_amodule(A, U, U)
    return L, A, um


@pytest.fixture(scope="module")
def coalg_adjoint(um_adjoint, B_sl2):
    return build_coalgebra(um_adjoint, B_sl2)


@pytest.fixture(scope="module")
def coalg_natural2(um_natural2, B_sl2):
    return build_coalgebra(um_natural2, B_sl2)


@pytest.fixture(scope="module")
def um_natural2_again(sl2_alg):
    """U(natural2, natural2) built apart, over an A(sl2, sl2) built apart:
    equal by value to ``um_natural2``, not the same object."""
    N = natural2(sl2_alg)
    return build_universal_amodule(build_universal_algebra(sl2_alg, sl2_alg), N, N)


def test_build_requires_z_equal_u(A_sl2, adjoint_sl2, sl2_alg, B_sl2):
    T = LieModule.trivial(sl2_alg, 3)
    um = build_universal_amodule(A_sl2, adjoint_sl2, T)
    with pytest.raises(ValueError):
        CoalgebraOnU(um, B_sl2)


def test_a_bialgebra_of_another_algebra_is_refused(um_natural2, um_natural2_again,
                                                   B_sl2):
    # A(heis, heis) has the ring of A(sl2, sl2), so only comparing the
    # algebras tells its B apart; a B over an equal algebra is accepted.
    heis = heisenberg()
    B = BialgebraStructure(build_universal_algebra(heis, heis))
    assert B.owner.ring == um_natural2.A.ring and B.owner != um_natural2.A
    for make in (CoalgebraOnU, build_coalgebra, bmodule_on_tensor_square):
        with pytest.raises(ValueError, match="B is the bialgebra of another algebra"):
            make(um_natural2, B)
    assert um_natural2_again.A is not B_sl2.owner
    assert CoalgebraOnU(um_natural2_again, B_sl2).bial is B_sl2
    assert bmodule_on_tensor_square(um_natural2_again, B_sl2).ok


def test_verify_comodule_refuses_another_module(um_adjoint, um_natural2_again,
                                                coalg_natural2):
    with pytest.raises(ValueError, match="C is the coalgebra of another module"):
        verify_comodule(um_adjoint, coalg_natural2)
    assert verify_comodule(um_natural2_again, coalg_natural2) == Report()


def test_verify_bmodule_coalgebra_refuses_another_module(um_adjoint, um_natural2_again,
                                                         coalg_natural2):
    with pytest.raises(ValueError, match="C is the coalgebra of another module"):
        verify_bmodule_coalgebra(um_adjoint, coalg_natural2)
    assert verify_bmodule_coalgebra(um_natural2_again, coalg_natural2) == Report()


def test_universal_coalgebra_map_refuses_another_module(um_natural2, um_natural2_again,
                                                        coalg_adjoint, coalg_natural2,
                                                        A_sl2):
    X, psi = trivial_on_k(A_sl2), LinearMap.identity(2)
    with pytest.raises(ValueError, match="C is the coalgebra of another module"):
        universal_coalgebra_map(um_natural2, coalg_adjoint, X, psi)
    theta = universal_coalgebra_map(um_natural2_again, coalg_natural2, X, psi)
    assert theta == {(l, t): [ONE if l == t else ZERO] for l in (1, 2) for t in (1, 2)}


def test_abelian_grouplike(abelian_setup):
    L, A, um = abelian_setup
    C = build_coalgebra(um, bialgebra_structure(A))
    # The single generator is grouplike: Delta(y) = y (x) y, eps(y) = 1.
    g = free_generator(um.free, 0)
    d = C.square.normal_form(C.square.delta_of_terms(_terms(g)))
    assert [(term(um.table, a), term(um.table, b)) for a, b in d] == [
        ((0, (0,)), (0, (0,)))]
    assert C.square.epsilon_of_terms(_terms(nf(um, g))) == 1
    assert verify_comodule(um, C).ok
    assert verify_bmodule_coalgebra(um, C).ok
    assert bmodule_on_tensor_square(um, C.bial).ok


def test_sl2_coalgebra_certificates(um_adjoint, coalg_adjoint):
    assert coalg_adjoint.verify().ok
    assert verify_comodule(um_adjoint, coalg_adjoint) == Report()


def test_sl2_relations_vanish_in_tensor_square(um_adjoint, coalg_adjoint):
    # Normal-form oracle: Delta of every relation reduces to zero factor-wise.
    sq = coalg_adjoint.square
    for gen in um_adjoint.relgens:
        assert not sq.normal_form(sq.delta_of_terms(_terms(gen)))
        assert sq.epsilon_of_terms(_terms(gen)) == 0


def test_sl2_bmodule_coalgebra_full_sweep(um_adjoint, coalg_adjoint):
    assert verify_bmodule_coalgebra(um_adjoint, coalg_adjoint).ok
    assert bmodule_on_tensor_square(um_adjoint, coalg_adjoint.bial).ok


def test_epsilon_factorization_reproduces_delta(um_adjoint, coalg_adjoint):
    result = coalg_adjoint.epsilon_by_factorization()
    assert result.ok
    for (s, r), vec in result.images.items():
        assert vec == [ONE if s == r else ZERO]


def test_grouplike_to_grouplike_theta(abelian_setup):
    L, A, um = abelian_setup
    C = build_coalgebra(um, bialgebra_structure(A))
    X = trivial_on_k(A)
    psi = LinearMap.identity(1)
    theta = universal_coalgebra_map(um, C, X, psi)
    assert theta == {(1, 1): [ONE]}


def test_theta_matches_dense_solve_oracle(abelian_setup):
    # Oracle: on the abelian instance theta is determined by the dense linear
    # system psi(u_r) = sum_s u_s (x) theta(y_sr); solve it by reading
    # coordinates and compare with the main path.
    L, A, um = abelian_setup
    C = build_coalgebra(um, bialgebra_structure(A))
    X = trivial_on_k(A)
    psi = LinearMap.identity(1)
    theta_oracle = solve_unique([[ONE]], [ONE])
    assert theta_oracle == [ONE]
    theta = universal_coalgebra_map(um, C, X, psi)
    assert theta[(1, 1)] == theta_oracle


def test_theta_sl2_counit_target(um_adjoint, coalg_adjoint, A_sl2):
    X = trivial_on_k(A_sl2)
    psi = LinearMap.identity(3)
    theta = universal_coalgebra_map(um_adjoint, coalg_adjoint, X, psi)
    for (l, t), vec in theta.items():
        assert vec == [ONE if l == t else ZERO]


def test_theta_rejects_non_comodule(um_adjoint, coalg_adjoint, A_sl2):
    X = trivial_on_k(A_sl2)
    bad = LinearMap.from_matrix(
        [[ONE, ONE, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    )
    with pytest.raises(ValueError):
        universal_coalgebra_map(um_adjoint, coalg_adjoint, X, bad)


def test_finite_coalgebra_validation(A_sl2):
    X = trivial_on_k(A_sl2)
    assert X.validate().ok
    bad = FiniteCoalgebraModule(
        MatrixARep.counit(A_sl2),
        LinearMap.from_matrix([[Fraction(2)]]),
        LinearMap.from_matrix([[ONE]]),
    )
    assert not bad.validate().ok


def test_dual_of_a_non_associative_algebra_fails_coassociativity(A_sl2, um_natural2,
                                                                 coalg_natural2):
    # X is the dual of the unital algebra <1, x, y> with x*x = y, y*x = x and
    # every other product of x and y zero, which is not associative: (x*x)*x
    # = x but x*(x*x) = 0.  Delta(c*) sums a* (x) b* over the products a*b
    # with c in them, so Delta is not coassociative, while epsilon = 1*
    # keeps the counit law, 1 being a two-sided unit.
    product = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2, (1, 1): 2, (2, 1): 1}
    delta = [[ONE if product.get((a, b)) == c else ZERO for c in range(3)]
             for a in range(3) for b in range(3)]
    k = MatrixARep.counit(A_sl2)
    X = FiniteCoalgebraModule(k.direct_sum(k).direct_sum(k), LinearMap.from_matrix(delta),
                              LinearMap.from_matrix([[ONE, ZERO, ZERO]]))
    assert X.validate().violations == (Violation("coassociativity", (), "matrices differ"),)
    with pytest.raises(ValueError, match="X is not a coalgebra"):
        universal_coalgebra_map(um_natural2, coalg_natural2, X, LinearMap.zero(2, 6))


def test_tensor_square_action_kills_relations(um_adjoint, coalg_adjoint, A_sl2):
    # x_ij acting on the tensor square is multiplication by Delta(x_ij); the
    # report certifies every defining relation of B acts as zero.
    rep = bmodule_on_tensor_square(um_adjoint, coalg_adjoint.bial)
    assert rep.ok
    # direct spot check of the action plumbing: Delta is B-linear, so acting
    # by x_11 before or after comultiplying gives the same tensor element.
    um, sq = um_adjoint, coalg_adjoint.square
    x11 = um.A.ring.var(um.A.var_index(1, 1))
    g = free_generator(um.free, um.pos(1, 1))
    lhs = sq.normal_form(sq.delta_of_terms(_terms(act(um, x11, g))))
    rhs = sq.bmodule_act(1, 1, sq.delta_of_terms(_terms(g)))
    assert sq.normal_form(lhs) == sq.normal_form(rhs)


def test_swapped_delta_fails_comodule_and_factorization(um_adjoint, B_sl2):
    # Delta(y_lr) = sum_s y_sr (x) y_ls, the two tensor factors exchanged.
    C = CoalgebraOnU(um_adjoint, B_sl2)
    sq = C.square
    right_way = sq.delta_of_terms

    def swapped(terms):
        return {(b, a): c for (a, b), c in right_way(terms).items()}

    sq.delta_of_terms = swapped
    rep = verify_comodule(um_adjoint, C)
    assert rep.violations and {v.check for v in rep.violations} == {"comodule-axiom"}


def test_epsilon_killing_y11_fails_comodule(um_natural2, B_sl2, monkeypatch):
    # epsilon(y_11) = 0 instead of 1: the counit axiom of verify_comodule is
    # the check of epsilon that the coalgebra keeps, so it must fail at u_1.
    C = CoalgebraOnU(um_natural2, B_sl2)
    right_way = TensorSquare.epsilon_of_terms
    y11 = um_natural2.table.row(um_natural2._key(um_natural2.pos(1, 1)))[1]

    def wrong(sq, terms):
        return ZERO if terms == y11 else right_way(sq, terms)

    monkeypatch.setattr(TensorSquare, "epsilon_of_terms", wrong)
    assert C.verify().ok  # no relation is y_11, so the laws still hold
    assert verify_comodule(um_natural2, C).violations == (
        Violation("comodule-axiom", (1,), "fails"),)


def test_delta_reuses_reduced_basis_vectors(A_sl2, adjoint_sl2, B_sl2, monkeypatch):
    # A fresh module, so that its multiplication table starts empty.
    um = build_universal_amodule(A_sl2, adjoint_sl2, adjoint_sl2)
    C = CoalgebraOnU(um, B_sl2)
    v = um.relgens[0]
    calls = count_calls(monkeypatch, poly, "_reduce")
    first = C.square.normal_form(C.square.delta_of_terms(_terms(v)))
    assert calls
    calls.clear()
    assert C.square.normal_form(C.square.delta_of_terms(_terms(v))) == first
    assert calls == []


def test_second_coalgebra_over_one_module_reduces_nothing(A_sl2, B_sl2, sl2_alg,
                                                          monkeypatch):
    # The rows live in U(U)'s table: a second CoalgebraOnU over the same module
    # reads them, so its certificates make no reduction of a basis vector.
    N = natural2(sl2_alg)
    um = build_universal_amodule(A_sl2, N, N)
    reduced = count_calls(monkeypatch, poly, "_reduce")
    nf_calls = count_calls(monkeypatch, modgb, "module_normal_form")
    first = CoalgebraOnU(um, B_sl2)
    assert first.verify().ok and verify_bmodule_coalgebra(um, first).ok
    assert reduced and um.table.rows
    reduced.clear()
    nf_calls.clear()
    rows = dict(um.table.rows)
    second = CoalgebraOnU(um, B_sl2)
    assert second.verify().ok and verify_bmodule_coalgebra(um, second).ok
    assert (reduced, nf_calls) == ([], [])
    assert um.table.rows == rows


class _CountingTable(dict):
    """A table of rows that counts how often each key is stored."""

    def __init__(self):
        super().__init__()
        self.stores = {}

    def __setitem__(self, key, value):
        self.stores[key] = self.stores.get(key, 0) + 1
        super().__setitem__(key, value)


def test_each_row_is_stored_once(A_sl2, sl2_alg, monkeypatch):
    # From empty tables, the certificates of U(U) and the descent of B build
    # and store each term's row exactly once.
    N = natural2(sl2_alg)
    um = build_universal_amodule(A_sl2, N, N)
    B = BialgebraStructure(A_sl2)
    um.table.rows = _CountingTable()
    monkeypatch.setattr(A_sl2.table, "rows", _CountingTable())
    C = CoalgebraOnU(um, B)
    assert C.verify().ok and verify_bmodule_coalgebra(um, C).ok
    assert B.descent.ok
    for table in (um.table.rows, A_sl2.table.rows):
        assert table.stores and set(table.stores.values()) == {1}
        assert table.stores.keys() == table.keys()


@pytest.mark.parametrize("wrong_action", [
    lambda act: lambda i, j, elem: act(j, i, elem),
    lambda act: lambda i, j, elem: elem,
], ids=["x_ij-acts-as-x_ji", "x_ij-acts-as-1"])
def test_wrong_bmodule_action_fails_certificate(um_adjoint, coalg_adjoint,
                                                monkeypatch, wrong_action):
    sq = coalg_adjoint.square
    monkeypatch.setattr(sq, "bmodule_act", wrong_action(sq.bmodule_act))
    assert not verify_bmodule_coalgebra(um_adjoint, coalg_adjoint).ok


@pytest.mark.parametrize("which", ["um_natural2", "um_adjoint"])
def test_tensor_square_matches_fraction_reference(request, B_sl2, which):
    um = request.getfixturevalue(which)
    sq = CoalgebraOnU(um, B_sl2).square
    vectors, acted = tensor_square_inputs(um, sq)
    rows = {}
    nonzero = 0

    def poly2(elem):
        return doubled(um.table, tensor_ring(B_sl2), elem)

    for v in vectors:
        elem = sq.delta_of_terms(_terms(v))
        assert poly2(elem) == reference_delta_of_vector(um, B_sl2, v)
        got = sq.normal_form(elem)
        assert poly2(got) == reference_tensor_normal_form(um, B_sl2, poly2(elem), rows)
        nonzero += bool(got)
    for elem in acted:
        assert (poly2(sq.normal_form(elem))
                == reference_tensor_normal_form(um, B_sl2, poly2(elem), rows))
    assert nonzero


# Terms of the doubled ring of A(sl2, sl2): exponents of at most two of the 18
# variables, coefficients with denominators 1 to 12 and either sign.
doubled_terms = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.dictionaries(st.integers(0, 17), st.integers(1, 2), max_size=2),
        st.fractions(min_value=-6, max_value=6, max_denominator=12),
    ),
    min_size=1, max_size=6,
)


@given(doubled_terms)
@settings(max_examples=60, deadline=None)
def test_tensor_normal_form_matches_reference_on_random_terms(um_natural2, B_sl2,
                                                              terms):
    sq = CoalgebraOnU(um_natural2, B_sl2).square
    key = um_natural2.table.key
    elem = {}
    for (p1, p2), exps, c in terms:
        m = tuple(exps.get(k, 0) for k in range(18))
        add_pairs(elem, {(key(p1, m[:9]), key(p2, m[9:])): linalg.scalar(c)})
    ring2 = tensor_ring(B_sl2)
    assert (doubled(um_natural2.table, ring2, sq.normal_form(elem))
            == reference_tensor_normal_form(um_natural2, B_sl2,
                                            doubled(um_natural2.table, ring2, elem), {}))


@pytest.mark.parametrize("certificate", [
    lambda um, C: C.verify(),
    lambda um, C: verify_bmodule_coalgebra(um, C),
], ids=["verify", "bmodule-coalgebra"])
@pytest.mark.parametrize("which", ["um_natural2", "um_adjoint"])
def test_doubled_row_denominator_fails_certificates(A_sl2, B_sl2, sl2_alg, monkeypatch,
                                                    which, certificate):
    # The first nonzero row of U(U)'s table that a certificate reads gets twice
    # its denominator, i.e. half its value.  The module is built here, so that
    # the wrong row stays out of the shared modules' tables.
    M = natural2(sl2_alg) if which == "um_natural2" else LieModule.adjoint(sl2_alg)
    um = build_universal_amodule(A_sl2, M, M)
    C = CoalgebraOnU(um, B_sl2)
    build = um.table.row
    halved = []

    def wrong_row(key):
        den, nums = build(key)
        if nums and not halved:
            halved.append(key)
            den *= 2
        return den, nums

    monkeypatch.setattr(um.table, "row", wrong_row)
    assert not certificate(um, C).ok
    assert halved


def test_exponent_overflow_in_tables_is_an_exponent_overflow(um_natural2,
                                                              abelian_setup):
    # At MAX_EXPONENT + 1, given or reached by a product of keys, the
    # multiplication table, the action and the tensor square raise
    # ExponentOverflowError, as the module normal form does.
    um, ring = um_natural2, um_natural2.A.ring
    top = (MAX_EXPONENT,) + (0,) * 8
    over = (MAX_EXPONENT + 1,) + (0,) * 8
    y = free_generator(um.free, 0)
    x11_y = ModuleVector(um.free, {0: ring.var(0)})
    for raises in (lambda: nf(um, poly_mul(y, ring.monomial(over))),
                   lambda: um.table.row(um.table.key(0, over)),
                   lambda: act(um, ring.monomial(over), y),
                   lambda: act(um, ring.monomial(top), x11_y)):
        with pytest.raises(ExponentOverflowError):
            raises()
    # Over A(k, k) Delta(x^m) = x^m (x) x^m, so x acting on Delta(x^MAX y)
    # reaches exponent MAX_EXPONENT + 1 in both factors.
    _, A, um_k = abelian_setup
    sq = CoalgebraOnU(um_k, bialgebra_structure(A)).square
    v = ModuleVector(um_k.free, {0: A.ring.monomial((MAX_EXPONENT,))})
    with pytest.raises(ExponentOverflowError):
        sq.normal_form(sq.bmodule_act(1, 1, sq.delta_of_terms(_terms(v))))
    with pytest.raises(ExponentOverflowError):
        sq.normal_form(sq.delta_of_terms(_terms(
            ModuleVector(um_k.free, {0: A.ring.monomial((MAX_EXPONENT + 1,))}))))


def _filled_natural2(A, B, L):
    """A U(natural2) of its own whose table holds every row that the
    certificates read, so that a row written into it is read, not rebuilt."""
    N = natural2(L)
    um = build_universal_amodule(A, N, N)
    C = CoalgebraOnU(um, B)
    assert _violations(um, C) == ((), (), ())
    return um, C


def _violations(um, C):
    return (C.verify().violations, verify_bmodule_coalgebra(um, C).violations,
            verify_comodule(um, C).violations)


def _at(check, witness, *locations):
    return tuple(Violation(check, loc, witness) for loc in locations)


DESCENDS = "Delta(relation) has nonzero normal form"


@pytest.mark.parametrize("which, expected", [
    # y_11 = (x_13 y_21 + 2 x_11 y_22) / 2 is read as a factor of Delta of
    # six relations, of two B-module equations and of both comodule axioms.
    ("y11", (_at("comult-descends", DESCENDS, (1, 1, 2), (1, 1, 3), (1, 2, 1),
                 (1, 2, 3), (2, 1, 3), (2, 2, 1)),
             _at("bmodule-coalgebra-delta", "sides differ", (2, 1, 1, 2), (3, 3, 2, 1)),
             _at("comodule-axiom", "fails", (1,), (2,)))),
    # x_11 y_11 is the action of x_11 on y_11 and a factor of x_1s . Delta(y_1t).
    ("x11 y11", ((),
                 _at("bmodule-coalgebra-delta", "sides differ", (1, 1, 1, 1))
                 + _at("bmodule-coalgebra-eps", "eps = 1/2", (1, 1, 1, 1))
                 + _at("bmodule-coalgebra-delta", "sides differ", (1, 1, 1, 2),
                       (1, 2, 1, 1), (1, 2, 1, 2), (1, 3, 1, 1), (1, 3, 1, 2)),
                 ())),
])
def test_halved_table_row_fails_exactly_its_equations(A_sl2, B_sl2, sl2_alg, which,
                                                      expected):
    um, C = _filled_natural2(A_sl2, B_sl2, sl2_alg)
    key = um._key(0) if which == "y11" else um.table.times(um._key(0), B_sl2.variables[0])
    den, nums = um.table.rows[key]
    um.table.rows[key] = (2 * den, nums)
    assert _violations(um, C) == expected


def test_delta_half_of_the_comodule_axiom_reads_the_row(A_sl2, B_sl2, sl2_alg):
    # The row of y_22 gains y_21, whose counit is 0: the counit half of the
    # axiom at (2, 2) still holds, and Delta taken on the row fails.
    um, C = _filled_natural2(A_sl2, B_sl2, sl2_alg)
    y21, y22 = um._key(um.pos(2, 1)), um._key(um.pos(2, 2))
    den, nums = um.table.rows[y22]
    um.table.rows[y22] = den, {**nums, y21: nums.get(y21, 0) + den}
    assert C.square.epsilon_of_terms(um.table.rows[y22][1]) == den
    assert not C._delta_matches_coaction(2, 2)
    assert Violation("comodule-axiom", (2,), "fails") in verify_comodule(um, C).violations


def test_corrupted_delta_or_counit_of_b_fails_exactly_its_equations(A_sl2, um_natural2):
    x = BialgebraStructure(A_sl2).variables
    # Delta(x_12) = sum_s x_s2 (x) x_1s, the two factors exchanged.
    B = BialgebraStructure(A_sl2)
    B._deltas[x[1]] = {(x[3 * s + 1], x[s]): 1 for s in range(3)}
    assert _violations(um_natural2, CoalgebraOnU(um_natural2, B)) == (
        _at("comult-descends", DESCENDS, (1, 1, 2), (1, 2, 2)),
        _at("bmodule-coalgebra-delta", "sides differ", (1, 2, 1, 1), (1, 2, 1, 2),
            (1, 3, 1, 2), (3, 2, 1, 2), (3, 3, 1, 2)),
        _at("comodule-axiom", "fails", (2,)))
    # epsilon(x_11) = 0 instead of 1.
    B = BialgebraStructure(A_sl2)
    B._epsilons[x[0]] = 0
    assert _violations(um_natural2, CoalgebraOnU(um_natural2, B)) == (
        _at("counit-kills-relations", "eps = 1", (1, 2, 1)),
        _at("bmodule-coalgebra-eps", "eps = 0", (1, 1, 1, 1), (1, 1, 2, 2), (3, 3, 1, 1)),
        _at("comodule-axiom", "fails", (1,)))


def test_certificates_pack_and_unpack_nothing(A_sl2, B_sl2, sl2_alg, monkeypatch):
    # Delta, epsilon and the action of B read U(U)'s relations, its table rows
    # and B's tables as packed terms, from an empty table on.
    N = natural2(sl2_alg)
    um = build_universal_amodule(A_sl2, N, N)
    calls = [count_calls(monkeypatch, owner, name)
             for owner in (poly, modgb) for name in ("_pack", "_unpack")]
    C = build_coalgebra(um, B_sl2)
    assert verify_bmodule_coalgebra(um, C).ok and verify_comodule(um, C).ok
    assert calls == [[], [], [], []] and um.table.rows
