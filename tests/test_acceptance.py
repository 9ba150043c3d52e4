"""Acceptance suite: ten criteria, one printed pass/fail line each.

Every numeric expectation is computed first by an independent oracle (row
reduction, dense linear solve, closed-form count, or direct normal-form
evaluation) and the main code path must match it bit-exactly.
"""

import math
import time
from fractions import Fraction
from random import Random

import pytest

from helpers import (
    act,
    const,
    degree,
    heisenberg,
    jgens,
    module_pool,
    natural2,
    nf,
    random_arep_morphism,
    random_equivariant_map,
    rep_pool,
    solvable2,
    solve_unique,
)
from univalg import linalg, poly
from univalg.cli import golden_sl2_polynomials
from univalg.coalgebra import (
    build_coalgebra,
    bmodule_on_tensor_square,
    verify_bmodule_coalgebra,
    verify_comodule,
)
from univalg.lie import LieAlgebra, LieModule, LinearMap, sl2
from univalg.modgb import ModuleVector
from univalg.representations import (
    MatrixARep,
    tensor_lie_module,
    tensor_on_morphism,
)
from univalg.universal_algebra import (
    build_universal_algebra,
    monomial_basis_up_to_degree,
)
from univalg.poly import _words
from univalg.universal_modules import (
    build_universal_amodule,
    build_universal_lie_hmodule,
    direct_sum_check,
    factorize_lie,
    factorize_through_universal,
    functor_on_morphism_U,
    gamma,
    gamma_lie,
)
from univalg.lie import validate_lie_module

ZERO = Fraction(0)
ONE = Fraction(1)


def _report(capsys, n: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"\nacceptance criterion {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def algebra_cache(A_sl2):
    """Universal algebras for the small (h, g) pairs used by the random
    suites, built once."""
    ab1, ab2, ab3 = (LieAlgebra.abelian(d) for d in (1, 2, 3))
    s2, hb, s = solvable2(), heisenberg(), sl2()
    cache = {
        ("ab1", "ab1"): (ab1, ab1, build_universal_algebra(ab1, ab1)),
        ("ab2", "ab2"): (ab2, ab2, build_universal_algebra(ab2, ab2)),
        ("ab3", "ab2"): (ab3, ab2, build_universal_algebra(ab3, ab2)),
        ("sol2", "ab1"): (s2, ab1, build_universal_algebra(s2, ab1)),
        ("sol2", "sol2"): (s2, s2, build_universal_algebra(s2, s2)),
        ("heis", "ab2"): (hb, ab2, build_universal_algebra(hb, ab2)),
        ("ab1", "sl2"): (ab1, s, build_universal_algebra(ab1, s)),
        ("sl2", "sl2"): (A_sl2.h, A_sl2.g, A_sl2),
    }
    return cache


def test_criterion_1_sl2_golden_ideal(capsys):
    start = time.monotonic()
    L = sl2()
    A = build_universal_algebra(L, L)
    assert len(jgens(A)) == 27
    nine = golden_sl2_polynomials(A.ring)
    same = poly.ideal_equal(jgens(A), nine, A.ring)
    elapsed = time.monotonic() - start
    _report(capsys, 1, "sl2 golden ideal, exact, <= 10 s",
            same and elapsed <= 10.0)


def test_criterion_2_perfect_g_collapse(capsys):
    # Oracle first: the span of all brackets of sl2 has full rank 3 by row
    # reduction, so the quotient by the derived subalgebra is 1-dimensional.
    g = sl2()
    rows = []
    for i in range(1, 4):
        for j in range(1, 4):
            rows.append(g.bracket(g.basis_vector(i), g.basis_vector(j)))
    derived_rank = 3 - len(linalg.nullspace(rows))
    assert derived_rank == 3
    h = LieAlgebra.abelian(1)
    A = build_universal_algebra(h, g)
    # All x_{1u} reduce to zero, so A is spanned by 1 alone.
    vars_vanish = all(
        poly.normal_form(A.ring.var(i), A.gb).is_zero() for i in range(3)
    )
    basis = monomial_basis_up_to_degree(A, 3)
    _report(capsys, 2, "perfect-g collapse to the ground field",
            vars_vanish and basis == [(0, 0, 0)])


def test_criterion_3_abelian_freeness(capsys):
    h, g = LieAlgebra.abelian(2), LieAlgebra.abelian(3)
    A = build_universal_algebra(h, g)
    nv = h.dim * g.dim
    free = all(p.is_zero() for p in jgens(A)) and len(A.gb) == 0
    counts_ok = all(
        len(monomial_basis_up_to_degree(A, d)) == math.comb(nv + d, d)
        for d in range(3)
    )
    _report(capsys, 3, "abelian freeness and binomial counts", free and counts_ok)


def test_criterion_4_tensor_property_suite(capsys, algebra_cache):
    start = time.monotonic()
    rng = Random(2024)
    keys = list(algebra_cache)
    count = 0
    ok = True
    while count < 50:
        h, g, A = algebra_cache[rng.choice(keys)]
        U = module_pool(h, rng)
        X = rep_pool(A, rng)
        if U.dim > 3 or X.dim > 3:
            continue
        T = tensor_lie_module(U, X)
        if not validate_lie_module(T.result).ok:
            ok = False
        count += 1
    elapsed = time.monotonic() - start
    _report(capsys, 4, ">= 50 random tensor modules valid, <= 60 s",
            ok and count >= 50 and elapsed <= 60.0)


def test_criterion_5_relation_and_equivariance_suite(capsys, um_adjoint,
                                                     algebra_cache):
    ok = (um_adjoint.check_relations().ok
          and um_adjoint.check_rho_equivariance().ok)
    rng = Random(77)
    cheap = [k for k in algebra_cache if k != ("sl2", "sl2")]
    count = 0
    while count < 20:
        h, g, A = algebra_cache[rng.choice(cheap)]
        U = module_pool(h, rng, max_dim=2)
        Z = module_pool(g, rng, max_dim=2)
        um = build_universal_amodule(A, U, Z)
        if not (um.check_relations().ok and um.check_rho_equivariance().ok):
            ok = False
        count += 1
    # two sl2 instances with small modules
    h, g, A = algebra_cache[("sl2", "sl2")]
    for U, Z in [(natural2(h), LieModule.trivial(g, 1)),
                 (LieModule.trivial(h, 2), natural2(g))]:
        um = build_universal_amodule(A, U, Z)
        if not (um.check_relations().ok and um.check_rho_equivariance().ok):
            ok = False
        count += 1
    _report(capsys, 5, "relation and structure-map certificates", ok and count >= 20)


def test_criterion_6_factorization_gamma_suite(capsys, algebra_cache):
    rng = Random(404)
    ok = True
    trials = 0
    cheap = [k for k in algebra_cache if "sl2" not in k[0] and "sl2" not in k[1]]
    while trials < 20:
        h, g, A = algebra_cache[rng.choice(cheap)]
        U = module_pool(h, rng, max_dim=2)
        Z = module_pool(g, rng, max_dim=2)
        um = build_universal_amodule(A, U, Z)
        X = rep_pool(A, rng)
        T = tensor_lie_module(U, X)
        f = random_equivariant_map(rng, Z, T.result)
        result = factorize_through_universal(um, X, f)
        if not result.ok:
            ok = False
        # gamma o factorize = id on morphisms
        if gamma(um, X, result.images).mat() != f.mat():
            ok = False
        # factorize o gamma = id on generator images
        again = factorize_through_universal(um, X, gamma(um, X, result.images))
        if again.images != result.images:
            ok = False
        trials += 1

    # Naturality squares on random morphism pairs.
    for _ in range(6):
        h, g, A = algebra_cache[rng.choice(cheap)]
        U = module_pool(h, rng, max_dim=2)
        Z = module_pool(g, rng, max_dim=2)
        Zp = module_pool(g, rng, max_dim=2)
        um_z = build_universal_amodule(A, U, Z)
        um_zp = build_universal_amodule(A, U, Zp)
        X = rep_pool(A, rng, max_dim=2)
        Xp = rep_pool(A, rng, max_dim=2)
        u = random_equivariant_map(rng, Z, Zp)
        ubar = functor_on_morphism_U(um_z, um_zp, u)
        T = tensor_lie_module(U, X)
        fp = random_equivariant_map(rng, Zp, T.result)
        theta = factorize_through_universal(um_zp, X, fp).images
        # naturality in Z: Gamma_{Z,X}(theta o ubar) = Gamma_{Z',X}(theta) o u
        theta_pos = {um_zp.pos(s, r): v for (s, r), v in theta.items()}
        pulled = {
            (s, r): linalg.evaluate(
                _words(ubar.terms[um_z.pos(s, r)], A.ring), X.matrices, theta_pos,
                X.dim
            )
            for s in range(1, U.dim + 1)
            for r in range(1, Z.dim + 1)
        }
        lhs = gamma(um_z, X, pulled).mat()
        rhs = linalg.mat_mul(gamma(um_zp, X, theta).mat(), u.mat())
        if lhs != rhs:
            ok = False
        # naturality in X: Gamma_{Z',X'}(v o theta) = (Id_U (x) v) o Gamma
        v = random_arep_morphism(rng, X, Xp)
        vtheta = {key: v.apply(w) for key, w in theta.items()}
        lhs2 = gamma(um_zp, Xp, vtheta).mat()
        idv = tensor_on_morphism(U, v, X, Xp)
        rhs2 = linalg.mat_mul(idv.mat(), gamma(um_zp, X, theta).mat())
        if lhs2 != rhs2:
            ok = False
    _report(capsys, 6, ">= 20 factorization round trips plus naturality",
            ok and trials >= 20)


def test_criterion_7_coalgebra_suite(capsys, um_adjoint):
    C = build_coalgebra(um_adjoint)  # raises unless all laws certify
    ok = C.verify().ok
    ok = ok and verify_comodule(um_adjoint, C).ok
    ok = ok and verify_bmodule_coalgebra(um_adjoint, C).ok
    ok = ok and bmodule_on_tensor_square(um_adjoint, C.bial).ok
    eps = C.epsilon_by_factorization()
    ok = ok and eps.ok and all(
        vec == [ONE if s == r else ZERO] for (s, r), vec in eps.images.items()
    )
    _report(capsys, 7, "coalgebra structure on U(adjoint sl2)", ok)


def test_criterion_8_direct_sum_preservation(capsys, A_sl2, adjoint_sl2, sl2_alg):
    W2 = LieModule.trivial(sl2_alg, 1)
    cert = direct_sum_check(A_sl2, adjoint_sl2, adjoint_sl2, W2)
    _report(capsys, 8, "U(U, W1+W2) = U(U,W1) + U(U,W2) certified", cert.ok)


def test_criterion_9_lie_module_suite(capsys, A_sl2, adjoint_sl2, sl2_alg):
    rng = Random(555)
    ok = True
    # sl2 presentation with the counit coefficient module
    V = MatrixARep.counit(A_sl2)
    vm = build_universal_lie_hmodule(A_sl2, V, adjoint_sl2)
    pool = [adjoint_sl2, LieModule.trivial(sl2_alg, 2), natural2(sl2_alg),
            LieModule.trivial(sl2_alg, 1)]
    # abelian presentation
    ab = LieAlgebra.abelian(1)
    Aab = build_universal_algebra(ab, ab)
    Vab = MatrixARep(Aab, 1, {(1, 1): [[Fraction(2)]]}, name="mu2")
    Wab = LieModule.from_matrices(ab, [[[Fraction(6)]]], name="lam6")
    vm_ab = build_universal_lie_hmodule(Aab, Vab, Wab)
    targets = 0
    for _ in range(8):
        Y = rng.choice(pool)
        TY = tensor_lie_module(Y, V)
        f = random_equivariant_map(rng, adjoint_sl2, TY.result)
        result = factorize_lie(vm, Y, f)
        if not result.ok:
            ok = False
        if any(any(w) for w in result.witnesses.values()):
            ok = False
        if gamma_lie(vm, Y, result.images).mat() != f.mat():
            ok = False
        targets += 1
    for _ in range(4):
        lam = Fraction(rng.randint(1, 4))
        Y = LieModule.from_matrices(ab, [[[Fraction(3) * lam]]], name="tgt")
        TY = tensor_lie_module(Y, Vab)
        f = random_equivariant_map(rng, Wab, TY.result)
        result = factorize_lie(vm_ab, Y, f)
        if not result.ok or any(any(w) for w in result.witnesses.values()):
            ok = False
        if gamma_lie(vm_ab, Y, result.images).mat() != f.mat():
            ok = False
        targets += 1
    _report(capsys, 9, ">= 10 unique Lie-module factorizations", ok and targets >= 10)


def test_criterion_10_oracle_cross_checks(capsys, A_sl2):
    ok = True
    # (a) sl2 degree-1 standard monomial count: linear-algebra oracle says the
    # ideal contains no polynomial of degree <= 1, so 1 + 9 monomials survive.
    ok = ok and len(monomial_basis_up_to_degree(A_sl2, 1)) == 10
    ok = ok and all(degree(p) >= 2 for p in A_sl2.gb.generators)
    # (b) abelian rank-1 action eigenvalue by direct normal-form evaluation.
    L = LieAlgebra.abelian(1)
    A = build_universal_algebra(L, L)
    U = LieModule.from_matrices(L, [[[ONE]]], name="u")
    Z = LieModule.from_matrices(L, [[[Fraction(5)]]], name="z")
    um = build_universal_amodule(A, U, Z)
    x11 = A.ring.var(0)
    hand = ModuleVector(um.free, {0: const(A.ring, Fraction(5)) - x11})
    ok = ok and (um.relgens[0] == hand or um.relgens[0] == hand.scale(-ONE))
    ok = ok and act(um, x11, um.free.basis_vector(0)) == nf(um,
        um.free.basis_vector(0).scale(Fraction(5))
    )
    # (c) factorization by dense linear solve: X diagonal, f an eigenvector.
    X = MatrixARep(A, 2, {(1, 1): [[Fraction(5), ZERO], [ZERO, Fraction(7)]]},
                   name="diag")
    f = LinearMap.from_matrix([[Fraction(2)], [ZERO]], 1)
    w_oracle = solve_unique(linalg.identity(2), [Fraction(2), ZERO])
    resid = linalg.mat_vec(
        linalg.mat_sub(linalg.mat_scale(Fraction(5), linalg.identity(2)),
                       [[Fraction(5), ZERO], [ZERO, Fraction(7)]]),
        w_oracle,
    )
    ok = ok and resid == [ZERO, ZERO]
    result = factorize_through_universal(um, X, f)
    ok = ok and result.ok and result.images[(1, 1)] == w_oracle
    # (d) row-reduction oracle for the derived subalgebra of sl2 (criterion 2)
    g = sl2()
    rows = [g.bracket(g.basis_vector(i), g.basis_vector(j))
            for i in range(1, 4) for j in range(1, 4)]
    ok = ok and (3 - len(linalg.nullspace(rows))) == 3
    _report(capsys, 10, "independent oracles match the main path bit-exactly", ok)
