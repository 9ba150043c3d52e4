from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gb_certificate import _Certifier, _vector_element
from helpers import (
    act,
    count_calls,
    from_lie_homomorphism,
    is_abelian,
    is_collapsed,
    natural2,
    poly_mul,
    push_to_module,
    random_arep_morphism,
    random_equivariant_map,
    reference_row,
    rep_pool,
    row_entries,
    solvable2,
)
from univalg import linalg, modgb, poly, universal_modules
from univalg.lie import (
    LieAlgebra,
    LieModule,
    LinearMap,
    Report,
    Violation,
    is_module_morphism,
)
from univalg.modgb import ModuleVector, module_normal_form
from univalg.pbw import PBWElement
from univalg.poly import DEGREVLEX, LEX, Polynomial, normal_form
from univalg.representations import MatrixARep, tensor_lie_module, validate_arep
from univalg.universal_algebra import build_universal_algebra
from univalg.universal_modules import (
    UniversalAModule,
    build_universal_amodule,
    build_universal_lie_hmodule,
    direct_sum_check,
    factorize_lie,
    factorize_through_universal,
    functor_on_morphism_U,
    functor_on_morphism_V,
    gamma,
    gamma_lie,
    identity_presented_map,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@pytest.fixture(scope="module")
def ab1():
    L = LieAlgebra.abelian(1)
    A = build_universal_algebra(L, L)
    return L, A


def scaling_module(L, lam):
    return LieModule.from_matrices(L, [[[Fraction(lam)]]], name=f"scale{lam}")


# ---------------------------------------------------------------------------
# U(U,Z): presentation and structure map
# ---------------------------------------------------------------------------


def test_abelian_rank1_closed_form(ab1):
    # Oracle: substituting m = 1, n = 1 into the relation family gives the
    # single relation lambda*y - x_11 . y, so x_11 acts as lambda.
    L, A = ab1
    lam = Fraction(5)
    U = scaling_module(L, 1)
    Z = scaling_module(L, lam)
    um = build_universal_amodule(A, U, Z)
    assert um.rank == 1
    assert len(um.relgens) == 1
    x11 = A.ring.var(0)
    # oracle relation, built by hand
    hand = ModuleVector(um.free, {0: A.ring.const(lam) - x11})
    assert um.relgens[0] == hand or um.relgens[0] == hand.scale(-ONE)
    acted = act(um, x11, um.free.basis_vector(0))
    assert acted == um.nf(um.free.basis_vector(0).scale(lam))
    assert not is_collapsed(um)


def test_adjoint_sl2_relation_suite(um_adjoint):
    assert um_adjoint.rank == 9
    # one relation per (s, i, j) with s in 1..dim U, i in 1..dim Z, j in 1..dim g
    assert len(um_adjoint.relgens) == 27
    assert um_adjoint.check_relations().ok
    assert um_adjoint.check_rho_equivariance().ok
    assert not is_collapsed(um_adjoint)


def test_rho_shape(um_adjoint):
    t = um_adjoint.rho(um_adjoint.Z.basis_vector(2))
    # rho(z_2) = sum_s u_s (x) y_{s,2}, one component per u_s
    assert len(t) == 3
    for s in range(1, 4):
        comp = t[s - 1]
        expected = um_adjoint.nf(
            um_adjoint.free.basis_vector(um_adjoint.pos(s, 2))
        )
        assert comp == expected


class WrongEtaSign(UniversalAModule):
    """U(U,Z) presented with the sign of one eta term flipped: in relation
    ``label`` = (s, i, j), the term eta_jip y_sp for the first p with eta
    nonzero."""

    label = (1, 1, 1)

    def _relations(self):
        rels, labels = super()._relations()
        s, i, j = self.label
        p = next(p for p, row in enumerate(self.Z.matrices[j - 1], 1) if row[i - 1])
        rel = rels[labels.index(self.label)]
        # The relation's packed terms: y_sp is the key of x^0 at position (s, p).
        key = self.A.table.key(self.pos(s, p), (0,) * self.A.ring.nvars)
        rel[key] = -rel[key]
        return rels, labels


def test_build_packs_no_vector(A_sl2, sl2_alg, monkeypatch):
    # The relations, the ideal copies, the lead table and both certificates
    # are packed terms from the start, so building and certifying U(U,Z)
    # packs no vector; a normal form at the public edge does pack one.
    n2 = natural2(sl2_alg)
    packed = [count_calls(monkeypatch, module, "_pack") for module in (poly, modgb)]
    um = build_universal_amodule(A_sl2, n2, n2)
    assert packed == [[], []]
    um.nf(um.free.basis_vector(0))
    assert packed[1]


def test_bases_make_monic_terms_only_when_read(sl2_alg, monkeypatch):
    # A basis stores one form, the engine's lead table: building and
    # certifying A(sl2,sl2) and U(U,Z) divides no row by its lead
    # coefficient.  Reading the generators makes the monic terms once.
    divided = count_calls(monkeypatch, poly, "_divided")
    A = build_universal_algebra(sl2_alg, sl2_alg)
    n2 = natural2(sl2_alg)
    mgb = build_universal_amodule(A, n2, n2).mgb
    assert divided == [] and "basis" not in vars(A.gb) and "basis" not in vars(mgb)
    assert A.gb.generators is A.gb.generators and mgb.generators is mgb.generators
    assert len(divided) == len(A.gb) + len(mgb)


def test_module_basis_unpacks_on_first_read(A_sl2, sl2_alg, monkeypatch):
    # Building and certifying U(U,Z) unpacks no vector, and the generators
    # are unpacked once, when first read.  Bases the engine makes of one
    # submodule are equal; a basis missing an element is not.
    n2 = natural2(sl2_alg)
    unpacked = [count_calls(monkeypatch, module, "_unpack") for module in (poly, modgb)]
    mgb = build_universal_amodule(A_sl2, n2, n2).mgb
    assert unpacked == [[], []] and "generators" not in vars(mgb) and len(mgb)
    assert mgb.generators is mgb.generators
    assert len(unpacked[1]) == len(mgb)
    monkeypatch.undo()
    assert mgb == build_universal_amodule(A_sl2, n2, n2).mgb
    assert mgb == modgb.module_buchberger(mgb.generators, A_sl2.gb, mgb.module)
    assert mgb != modgb.module_buchberger(mgb.generators[:-1], A_sl2.gb, mgb.module)


def test_sugar_selection_keeps_s_pair_reductions_down(A_sl2, adjoint_sl2, monkeypatch):
    # _s_terms runs once for every S-pair that neither criterion skips.
    # Taking pairs position by position reduced 200 of them for this module,
    # most to zero; the sugar strategy reduces 133.
    calls = count_calls(monkeypatch, poly, "_s_terms")
    build_universal_amodule(A_sl2, adjoint_sl2, LieModule.trivial(A_sl2.g, 1))
    assert len(calls) == 133


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_engine_lead_table_matches_one_built_from_the_basis(sl2_alg, order):
    # A basis reduces on the engine's lead table of its reduced integer
    # rows; the normal forms are those of the certificate's naive division
    # by the monic basis read off that table.
    rng = Random(2023)
    A = build_universal_algebra(sl2_alg, sl2_alg, order=order)
    n2, ad = natural2(sl2_alg), LieModule.adjoint(sl2_alg)
    for U, Z in ((n2, n2), (ad, LieModule.trivial(sl2_alg, 1)),
                 (n2, LieModule.trivial(sl2_alg, 1))):
        mgb = build_universal_amodule(A, U, Z).mgb
        naive = _Certifier([_vector_element(g) for g in mgb.generators], order)
        for _ in range(8):
            v = ModuleVector(mgb.module, {
                rng.randrange(mgb.module.rank): Polynomial(A.ring, {
                    tuple(rng.randint(0, 2) for _ in range(9)):
                        Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(3)})
                for _ in range(2)})
            assert (_vector_element(module_normal_form(v, mgb))
                    == naive.remainder(_vector_element(v)))


def test_round_trip_builds_one_tensor_module(A_sl2, sl2_alg, adjoint_sl2, monkeypatch):
    # Factorize then Gamma against one target build its tensor module once,
    # and so does a target equal by value; a target with other matrices gets
    # its own.
    n2 = natural2(sl2_alg)
    um = build_universal_amodule(A_sl2, n2, n2)
    vm = build_universal_lie_hmodule(A_sl2, MatrixARep.counit(A_sl2), adjoint_sl2)
    built = count_calls(monkeypatch, universal_modules, "tensor_lie_module")
    X = MatrixARep.counit(A_sl2)
    theta = factorize_through_universal(um, X, LinearMap.identity(2)).images
    assert gamma(um, MatrixARep.counit(A_sl2), theta).mat() == linalg.identity(2)
    assert len(built) == 1
    zero = from_lie_homomorphism(A_sl2, [[ZERO] * 3 for _ in range(3)])
    assert not any(map(any, gamma(um, zero, {k: [ZERO] for k in theta}).mat()))
    assert len(built) == 2
    theta = factorize_lie(vm, adjoint_sl2, LinearMap.identity(3)).images
    assert gamma_lie(vm, LieModule.adjoint(sl2_alg), theta).mat() == linalg.identity(3)
    assert len(built) == 3
    trivial = LieModule.trivial(sl2_alg, 3)
    assert not any(map(any, gamma_lie(vm, trivial, {k: [ZERO] * 3 for k in theta}).mat()))
    assert len(built) == 4


def _solvable2_character(lam):
    """The 1-dimensional module of solvable2 where e1 acts by lam, e2 by 0."""
    return LieModule.from_matrices(solvable2(), [[[Fraction(lam)]], [[ZERO]]])


@pytest.mark.parametrize("U, Z, label", [
    (LieModule.adjoint(solvable2()), LieModule.adjoint(solvable2()), (2, 1, 2)),
    (_solvable2_character(3), _solvable2_character(3), (1, 1, 1)),
    (scaling_module(LieAlgebra.abelian(1), 2), scaling_module(LieAlgebra.abelian(1), 5),
     (1, 1, 1)),
], ids=["solvable2-adjoint", "solvable2-character", "abelian1-scalings"])
def test_wrong_eta_sign_fails_rho_equivariance(U, Z, label):
    # The difference rho(f_j z_r) - f_j rho(z_r) has the true relation (s, r, j)
    # as its component at u_s, so the wrong sign shows at (j, r) = (j, i).  (On
    # sl2's modules the flipped relation also kills y_sp, and with it the
    # true relation, so no check could see it there.)
    s, i, j = label
    A = build_universal_algebra(U.algebra, Z.algebra)
    um = type("Wrong", (WrongEtaSign,), {"label": label})(A, U, Z)
    assert um.check_relations().ok and not is_collapsed(um)
    assert um.check_rho_equivariance().violations == (
        Violation("rho-equivariance", (j, i), "nonzero"),)
    assert UniversalAModule(A, U, Z).check_rho_equivariance().ok


@pytest.fixture(scope="module")
def own_modules(sl2_alg):
    """A(sl2,sl2) under degrevlex and under lex (its keys prefixed "lex-"),
    with U(natural2, natural2) and U(adjoint, adjoint) over each, for this
    file alone, so that a test may empty their multiplication tables.  The
    two orders' codecs lay out the exponent fields in opposite order."""
    N, ad = natural2(sl2_alg), LieModule.adjoint(sl2_alg)
    out = {}
    for prefix, order in (("", DEGREVLEX), ("lex-", LEX)):
        A = build_universal_algebra(sl2_alg, sl2_alg, order=order)
        out |= {prefix + "A": A, prefix + "natural2": build_universal_amodule(A, N, N),
                prefix + "adjoint": build_universal_amodule(A, ad, ad)}
    return out


# Requests of table rows: a position (taken modulo the rank) and the
# variables of a monomial of degree at most 3 in the 9 variables of A(sl2,sl2).
row_requests = st.lists(
    st.tuples(st.integers(0, 8), st.lists(st.integers(0, 8), max_size=3)),
    min_size=1, max_size=4,
)


def _monomial(word, nvars=9):
    m = [0] * nvars
    for k in word:
        m[k] += 1
    return tuple(m)


def _reference_row(x, pos, m):
    """The row of nf(x^m e_pos) by one normal_form (A at rank 1) or
    module_normal_form (U(U,Z)) reduction of that term."""
    if isinstance(x, UniversalAModule):
        return reference_row(x.nf(ModuleVector(x.free, {pos: x.A.ring.monomial(m)}))
                             .components)
    return reference_row({0: normal_form(x.ring.monomial(m), x.gb)})


@pytest.mark.parametrize("which", ["natural2", "adjoint", "A",
                                   "lex-natural2", "lex-adjoint", "lex-A"])
@given(row_requests)
@settings(max_examples=40, deadline=None)
def test_table_rows_match_per_row_reduction(own_modules, which, requests):
    # From an empty table, every row filled on the way to the requested ones
    # equals the per-row reduction, denominator included.
    x = own_modules[which]
    table, rank = x.table, getattr(x, "rank", 1)
    table.rows.clear()
    for pos, word in requests:
        table.row(table.key(pos % rank, _monomial(word)))
    assert table.rows
    for key, row in table.rows.items():
        assert row_entries(table, row) == _reference_row(x, *table.term(key))


# A polynomial of A(sl2,sl2) and a vector of U(U,Z): at most three terms each,
# monomials of degree at most 2, coefficients with small denominators.
small_terms = st.lists(
    st.tuples(st.lists(st.integers(0, 8), max_size=2),
              st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    min_size=1, max_size=3,
)


@pytest.mark.parametrize("which", ["natural2", "adjoint"])
@given(small_terms, st.lists(st.tuples(st.integers(0, 8), small_terms),
                             min_size=1, max_size=2))
@settings(max_examples=40, deadline=None)
def test_act_matches_normal_form_of_product(own_modules, which, p_terms, v_terms):
    um = own_modules[which]
    ring = um.A.ring

    def poly(terms):
        out = ring.zero()
        for word, c in terms:
            out = out + ring.monomial(_monomial(word), c)
        return out

    p = poly(p_terms)
    v = ModuleVector(um.free, {})
    for pos, terms in v_terms:
        v = v + ModuleVector(um.free, {pos % um.rank: poly(terms)})
    assert act(um, p, v) == um.nf(poly_mul(v, p))
    assert act(um, ring.zero(), v).is_zero()
    assert act(um, p, ModuleVector(um.free, {})).is_zero()
    assert act(um, Polynomial(ring, {(0,) * 9: 1}), v) == um.nf(v)


def test_act_at_degree_3000_matches_normal_form(A_sl2, sl2_alg):
    # A fresh table fills the chain of the 3000 divisors of X[1,1]^3000 by a
    # loop: one stack frame per divisor would pass the recursion limit.
    N = natural2(sl2_alg)
    um = build_universal_amodule(A_sl2, N, N)
    p = A_sl2.ring.monomial((3000,) + (0,) * 8)
    v = ModuleVector(um.free, {})
    for pos in range(um.rank):
        v = v + um.free.basis_vector(pos)
    assert act(um, p, v) == um.nf(poly_mul(v, p))


def test_zero_dimensional_Z(A_sl2, adjoint_sl2, sl2_alg):
    Z0 = LieModule.trivial(sl2_alg, 0)
    um = build_universal_amodule(A_sl2, adjoint_sl2, Z0)
    assert um.rank == 0
    assert um.relgens == []
    assert is_collapsed(um)


# ---------------------------------------------------------------------------
# Factorization and the adjunction
# ---------------------------------------------------------------------------


def test_factorization_dense_solve_oracle(ab1):
    # Oracle: on the abelian rank-1 instance the factorization equations are a
    # dense linear system; solve it independently and compare.
    L, A = ab1
    lam = Fraction(3)
    U = scaling_module(L, 1)
    Z = scaling_module(L, lam)
    um = build_universal_amodule(A, U, Z)
    # X: 2-dim module where x_11 acts diagonally.
    mu1, mu2 = Fraction(3), Fraction(7)
    X = MatrixARep(A, 2, {(1, 1): [[mu1, ZERO], [ZERO, mu2]]}, name="diag")
    # f: Z -> U (x) X = X must satisfy f(e1 z) = e1 f(z):
    # lam * f = M11 f, so f lands in the lam-eigenspace of M11.
    f = LinearMap.from_matrix([[Fraction(2)], [ZERO]], 1)
    T = tensor_lie_module(U, X)
    assert is_module_morphism(f, Z, T.result)
    # Oracle solve: w with u_1 (x) w = f(z_1) and (lam - x11) w = 0.
    aug_rows = [[ONE], [ONE]]  # identity constraints from reading coordinates
    w_oracle = [Fraction(2), ZERO]
    resid = linalg.mat_vec(
        linalg.mat_sub(linalg.mat_scale(lam, linalg.identity(2)),
                       [[mu1, ZERO], [ZERO, mu2]]),
        w_oracle,
    )
    assert resid == [ZERO, ZERO]  # oracle consistency
    result = factorize_through_universal(um, X, f)
    assert result.ok
    assert result.images[(1, 1)] == w_oracle
    # Round trip both ways.
    assert gamma(um, X, result.images).mat() == f.mat()


def test_zero_morphism_zero_factorization(um_adjoint, A_sl2):
    X = MatrixARep.counit(A_sl2)
    f = LinearMap.zero(3, 3)
    result = factorize_through_universal(um_adjoint, X, f)
    assert result.ok
    assert all(v == [ZERO] for v in result.images.values())


def test_epsilon_factorization_delta(um_adjoint, A_sl2):
    # Factoring the identity U -> U (x) k through the counit module forces the
    # generator images to delta_{lt}.
    X = MatrixARep.counit(A_sl2)
    f = LinearMap.identity(3)
    result = factorize_through_universal(um_adjoint, X, f)
    assert result.ok
    for (s, r), vec in result.images.items():
        assert vec == [ONE if s == r else ZERO]


def test_gamma_rejects_ill_defined_theta(um_adjoint, A_sl2):
    X = MatrixARep.counit(A_sl2)
    theta = {
        (s, r): [ONE] for s in range(1, 4) for r in range(1, 4)
    }  # all-ones does not kill the relations
    with pytest.raises(ValueError):
        gamma(um_adjoint, X, theta)


def test_factorize_rejects_non_equivariant(um_adjoint, A_sl2):
    X = MatrixARep.counit(A_sl2)
    bad = LinearMap.from_matrix([[ONE, ONE, ZERO], [ZERO, ONE, ZERO],
                                 [ZERO, ZERO, ONE]])
    with pytest.raises(ValueError):
        factorize_through_universal(um_adjoint, X, bad)


def test_random_round_trips_abelian():
    rng = Random(23)
    L = LieAlgebra.abelian(2)
    A = build_universal_algebra(L, L)
    for trial in range(8):
        U = LieModule.trivial(L, rng.randint(1, 2))
        Z = LieModule.trivial(L, rng.randint(1, 2))
        um = build_universal_amodule(A, U, Z)
        X = rep_pool(A, rng)
        T = tensor_lie_module(U, X)
        f = random_equivariant_map(rng, Z, T.result)
        result = factorize_through_universal(um, X, f)
        assert result.ok
        assert gamma(um, X, result.images).mat() == f.mat()


def _dense_arep_image(v, images, X):
    """The dense formula: evaluate each component polynomial to a matrix at
    X's matrices (variables multiplied in ring order), then apply it."""
    mats = X.matrices
    out = [ZERO] * X.dim
    for p, q in v.components.items():
        m = linalg.zeros(X.dim, X.dim)
        for mono, c in q.terms.items():
            acc = linalg.identity(X.dim)
            for i, e in enumerate(mono):
                for _ in range(e):
                    acc = linalg.mat_mul(acc, mats[i])
            m = linalg.mat_add(m, linalg.mat_scale(c, acc))
        out = [a + b for a, b in zip(out, linalg.mat_vec(m, images[p]))]
    return out


def _dense_lie_image(v, images, Y):
    """The dense formula: the word (t1, ..., tk) is the matrix product
    e_t1 ... e_tk of Y's action matrices, applied to the image."""
    mats = Y.matrices
    out = [ZERO] * Y.dim
    for p, e in v.components.items():
        m = linalg.zeros(Y.dim, Y.dim)
        for w, c in e.terms.items():
            acc = linalg.identity(Y.dim)
            for t in w:
                acc = linalg.mat_mul(acc, mats[t - 1])
            m = linalg.mat_add(m, linalg.mat_scale(c, acc))
        out = [a + b for a, b in zip(out, linalg.mat_vec(m, images[p]))]
    return out


def _seeded_matrices(rng, count):
    """2x2 integer matrices, each one not symmetric."""
    mats = []
    while len(mats) < count:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        if m[0][1] != m[1][0]:
            mats.append(m)
    return mats


def _seeded_images(rng, rank):
    return {p: [Fraction(rng.randint(-3, 3)) for _ in range(2)] for p in range(rank)}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("U_name,Z_name",
                         [("natural2", "natural2"), ("trivial1", "adjoint")])
def test_relation_images_match_dense_formula_U(A_sl2, sl2_alg, U_name, Z_name, seed):
    # The evaluation is a formula in the matrices, so the targets need not be
    # modules: 2-dimensional, not symmetric (a transposed action shows) and
    # not commuting (an action applied in the wrong order shows).
    mods = {"natural2": natural2(sl2_alg), "adjoint": LieModule.adjoint(sl2_alg),
            "trivial1": LieModule.trivial(sl2_alg, 1)}
    um = build_universal_amodule(A_sl2, mods[U_name], mods[Z_name])
    rng = Random(seed)
    keys = [(s, i) for s in range(1, 4) for i in range(1, 4)]
    X = MatrixARep(A_sl2, 2, dict(zip(keys, _seeded_matrices(rng, len(keys)))))
    images = _seeded_images(rng, um.rank)
    got = [linalg.evaluate(terms, X.matrices, images, X.dim) for terms in um.rel_terms]
    assert got == [_dense_arep_image(gen, images, X) for gen in um.relgens]
    assert any(any(v) for v in got)  # the comparison is not between zeros


@pytest.mark.parametrize("seed", range(4))
def test_relation_images_match_dense_formula_V(A_sl2, sl2_alg, seed):
    vm = build_universal_lie_hmodule(A_sl2, MatrixARep.counit(A_sl2), natural2(sl2_alg))
    rng = Random(seed)
    Y = LieModule.from_matrices(sl2_alg, _seeded_matrices(rng, 3), name="seeded2")
    images = _seeded_images(rng, vm.rank)
    got = [linalg.evaluate(terms, Y.matrices, images, Y.dim) for terms in vm.rel_terms]
    assert got == [_dense_lie_image(gen, images, Y) for gen in vm.relgens]
    assert any(any(v) for v in got)


def _one_coordinate_changed(theta):
    for key, vec in theta.items():
        for k in range(len(vec)):
            changed = dict(theta)
            changed[key] = [x + ONE if t == k else x for t, x in enumerate(vec)]
            yield changed


def test_gamma_rejects_theta_with_one_coordinate_changed(A_sl2, sl2_alg):
    # Hom(natural2, natural2) is the line through the identity, so no theta
    # that differs from a correct one in one coordinate kills the relations.
    n2 = natural2(sl2_alg)
    um = build_universal_amodule(A_sl2, n2, n2)
    X = MatrixARep.counit(A_sl2)
    theta = factorize_through_universal(um, X, LinearMap.identity(2)).images
    assert gamma(um, X, theta).mat() == linalg.identity(2)
    for changed in _one_coordinate_changed(theta):
        with pytest.raises(ValueError, match="ill-defined"):
            gamma(um, X, changed)


def test_gamma_lie_rejects_theta_with_one_coordinate_changed(A_sl2, sl2_alg):
    n2 = natural2(sl2_alg)
    vm = build_universal_lie_hmodule(A_sl2, MatrixARep.counit(A_sl2), n2)
    theta = factorize_lie(vm, n2, LinearMap.identity(2)).images
    assert gamma_lie(vm, n2, theta).mat() == linalg.identity(2)
    for changed in _one_coordinate_changed(theta):
        with pytest.raises(ValueError, match="ill-defined"):
            gamma_lie(vm, n2, changed)


def test_gamma_rejects_theta_of_wrong_length(A_sl2, sl2_alg):
    # Relations have terms with the empty word, where the image is used
    # without a matrix step; a wrong length must still be refused there.
    n2 = natural2(sl2_alg)
    um = build_universal_amodule(A_sl2, n2, n2)
    vm = build_universal_lie_hmodule(A_sl2, MatrixARep.counit(A_sl2), n2)
    X = MatrixARep.counit(A_sl2)
    theta_u = factorize_through_universal(um, X, LinearMap.identity(2)).images
    theta_v = factorize_lie(vm, n2, LinearMap.identity(2)).images
    for bijection, target, theta in ((gamma, (um, X), theta_u),
                                     (gamma_lie, (vm, n2), theta_v)):
        for key, vec in theta.items():
            for wrong in (vec + [ONE], vec[:-1]):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    bijection(*target, {**theta, key: wrong})


@pytest.mark.parametrize("theta", [
    {(1, 1): [ONE, Fraction(5)]},         # one coordinate too many
    {(1, 1): [ONE], (2, 2): [ONE]},       # a key that names no generator
    {},                                   # no generator given
    {(1, 1): []},                         # an empty vector
], ids=["long", "stray-key", "empty", "short"])
@pytest.mark.parametrize("side", ["U", "V"])
def test_gamma_rejects_malformed_theta(A_sl2, sl2_alg, side, theta):
    # Every relation maps to zero here whatever theta is (U(trivial1, trivial1)
    # has no nonzero relation at all), so only a check of theta's shape can
    # catch a malformed one.
    t1 = LieModule.trivial(sl2_alg, 1)
    counit = MatrixARep.counit(A_sl2)
    if side == "U":
        obj, target, bijection = build_universal_amodule(A_sl2, t1, t1), counit, gamma
    else:
        obj, target = build_universal_lie_hmodule(A_sl2, counit, t1), t1
        bijection = gamma_lie
    assert bijection(obj, target, {(1, 1): [ONE]}).mat() == [[ONE]]
    with pytest.raises(ValueError, match="^theta"):
        bijection(obj, target, theta)


# ---------------------------------------------------------------------------
# Functoriality and direct sums
# ---------------------------------------------------------------------------


def test_functor_on_morphism_and_composition(ab1):
    # Oracle: generator-level matrix equality f-bar o g-bar = (f o g)-bar.
    L, A = ab1
    rng = Random(5)
    Z1 = LieModule.trivial(L, 2)
    Z2 = LieModule.trivial(L, 2)
    Z3 = LieModule.trivial(L, 1)
    U = scaling_module(L, 1)
    um1 = build_universal_amodule(A, U, Z1)
    um2 = build_universal_amodule(A, U, Z2)
    um3 = build_universal_amodule(A, U, Z3)
    g = random_equivariant_map(rng, Z1, Z2)
    f = random_equivariant_map(rng, Z2, Z3)
    gbar = functor_on_morphism_U(um1, um2, g)
    fbar = functor_on_morphism_U(um2, um3, f)
    fg = functor_on_morphism_U(um1, um3, f.compose(g))
    assert fbar.compose(gbar).terms == fg.terms
    ident = identity_presented_map(um1)
    assert functor_on_morphism_U(um1, um1, LinearMap.identity(2)).terms == ident.terms


def test_direct_sum_certificate_small(ab1):
    L, A = ab1
    U = scaling_module(L, 1)
    W1 = scaling_module(L, 2)
    W2 = LieModule.trivial(L, 1)
    assert direct_sum_check(A, U, W1, W2) == Report()


# ---------------------------------------------------------------------------
# V(V,W): presentation, factorization, adjunction
# ---------------------------------------------------------------------------


def test_lie_module_closed_form_mu_lambda(ab1):
    # Oracle (hand substitution l = n = 1): relation lambda*y = mu*(e1 act y),
    # so in any target the action of e1 on the image of y is lambda/mu.
    L, A = ab1
    lam, mu = Fraction(6), Fraction(2)
    V = MatrixARep(A, 1, {(1, 1): [[mu]]}, name="mu")
    W = scaling_module(L, lam)
    vm = build_universal_lie_hmodule(A, V, W)
    assert vm.rank == 1
    assert len(vm.relgens) == 1
    rel = vm.relgens[0]
    hand = PBWElement(L, {(): lam, (1,): -mu})
    assert rel.components == {0: hand}
    # Target Y where e1 acts as lambda/mu: the factorization must exist.
    Y = scaling_module(L, lam / mu)
    f = LinearMap.from_matrix([[ONE]], 1)  # W -> Y (x) V = Y
    result = factorize_lie(vm, Y, f)
    assert result.ok
    assert result.images[(1, 1)] == [ONE]
    assert gamma_lie(vm, Y, result.images).mat() == f.mat()
    # A target with the wrong eigenvalue admits only zero.
    Ybad = scaling_module(L, 1)
    fbad = LinearMap.from_matrix([[ONE]], 1)
    with pytest.raises(ValueError):
        factorize_lie(vm, Ybad, fbad)  # not even equivariant


def test_lie_factorization_sl2_counit(A_sl2, adjoint_sl2):
    V = MatrixARep.counit(A_sl2)
    vm = build_universal_lie_hmodule(A_sl2, V, adjoint_sl2)
    assert vm.rank == 3
    f = LinearMap.identity(3)
    result = factorize_lie(vm, adjoint_sl2, f)
    assert result.ok
    assert gamma_lie(vm, adjoint_sl2, result.images).mat() == f.mat()


def test_lie_random_round_trips(A_sl2, adjoint_sl2, sl2_alg):
    rng = Random(9)
    V = MatrixARep.counit(A_sl2)
    vm = build_universal_lie_hmodule(A_sl2, V, adjoint_sl2)
    pool = [adjoint_sl2, LieModule.trivial(sl2_alg, 2), natural2(sl2_alg)]
    for trial in range(6):
        Y = rng.choice(pool)
        TY = tensor_lie_module(Y, V)
        f = random_equivariant_map(rng, adjoint_sl2, TY.result)
        result = factorize_lie(vm, Y, f)
        assert result.ok
        assert gamma_lie(vm, Y, result.images).mat() == f.mat()


def test_functor_on_morphism_V_composition(ab1):
    # Composition law checked through a finite-dimensional probe target.
    L, A = ab1
    rng = Random(13)
    V = MatrixARep(A, 1, {(1, 1): [[ONE]]}, name="one")
    W1 = LieModule.trivial(L, 2)
    W2 = LieModule.trivial(L, 2)
    vm1 = build_universal_lie_hmodule(A, V, W1)
    vm2 = build_universal_lie_hmodule(A, V, W2)
    f = random_equivariant_map(rng, W1, W2)
    fbar = functor_on_morphism_V(vm1, vm2, f)
    # Probe: factor a morphism out of vm2 and pull it back through fbar.
    Y = scaling_module(L, 1)
    TY = tensor_lie_module(Y, V)
    g = random_equivariant_map(rng, W2, TY.result)
    res2 = factorize_lie(vm2, Y, g)
    assert res2.ok
    images2 = {vm2.pos(r, s): v for (r, s), v in res2.images.items()}
    pulled = push_to_module(fbar, Y, images2)
    # Compare with factoring g o f directly.
    comp = LinearMap.from_matrix(
        linalg.mat_mul(g.mat(), f.mat()), W1.dim
    )
    res1 = factorize_lie(vm1, Y, comp)
    assert res1.ok
    for (r, s), v in res1.images.items():
        assert pulled[vm1.pos(r, s)] == v


def test_a_module_belongs_to_its_algebra_by_value(A_sl2, sl2_alg):
    # Any two A(h,g) of equal dimensions share a ring, so a module is checked
    # against its algebra's h, g and ring; an algebra built again is equal.
    ab3 = LieAlgebra.abelian(3)
    A_ab = build_universal_algebra(ab3, ab3)
    assert A_ab.ring == A_sl2.ring and A_ab != A_sl2
    again = build_universal_algebra(sl2_alg, sl2_alg)
    assert again == A_sl2 and hash(again) == hash(A_sl2)
    assert MatrixARep.counit(A_sl2).direct_sum(MatrixARep.counit(again)).dim == 2
    # x_si -> 3s+i is a module of A(ab3,ab3) and not of A(sl2,sl2).
    point = {(s, i): [[3 * s + i]] for s in range(1, 4) for i in range(1, 4)}
    X = MatrixARep(A_ab, 1, point)
    assert validate_arep(X).ok and not validate_arep(MatrixARep(A_sl2, 1, point)).ok
    with pytest.raises(ValueError, match="different universal algebra"):
        build_universal_lie_hmodule(A_sl2, X, LieModule.adjoint(sl2_alg))
    with pytest.raises(ValueError, match="different universal algebras"):
        MatrixARep.counit(A_sl2).direct_sum(X)


def test_induced_maps_refuse_modules_of_another_algebra(A_sl2, sl2_alg):
    # A(sl2,ab3) and A(ab3,sl2) share A(sl2,sl2)'s ring.
    ab3 = LieAlgebra.abelian(3)
    ad, one = LieModule.adjoint(sl2_alg), LinearMap.identity(1)
    um = build_universal_amodule(A_sl2, ad, LieModule.trivial(sl2_alg, 1))
    um_ab = build_universal_amodule(build_universal_algebra(sl2_alg, ab3), ad,
                                    LieModule.trivial(ab3, 1))
    with pytest.raises(ValueError, match="universal modules over different algebras"):
        functor_on_morphism_U(um, um_ab, one)
    # The zero module, with equal matrices over both algebras.
    W = LieModule.trivial(sl2_alg, 1)
    vm = build_universal_lie_hmodule(A_sl2, MatrixARep(A_sl2, 1, {}), W)
    A_ab = build_universal_algebra(ab3, sl2_alg)
    vm_ab = build_universal_lie_hmodule(A_ab, MatrixARep(A_ab, 1, {}), W)
    assert functor_on_morphism_V(vm, vm, one).images
    with pytest.raises(ValueError, match="the A-module argument must coincide"):
        functor_on_morphism_V(vm, vm_ab, one)
