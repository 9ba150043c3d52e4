from fractions import Fraction
from random import Random

import pytest

from helpers import (
    from_lie_homomorphism,
    jgens,
    natural2,
    reference_eval_matrices,
    reference_validate_arep,
    rep_pool,
    solvable2,
    zero_dimensional,
)
from univalg import linalg
from univalg.lie import LieAlgebra, LieModule, LinearMap, validate_lie_module
from univalg.poly import mono_word
from univalg.representations import (
    MatrixARep,
    is_arep_morphism,
    tensor_lie_module,
    tensor_on_morphism,
    validate_arep,
)
from univalg.universal_algebra import build_universal_algebra

ZERO = Fraction(0)
ONE = Fraction(1)


def test_counit_rep_is_valid(A_sl2):
    X = MatrixARep.counit(A_sl2)
    assert validate_arep(X).ok
    assert X.dim == 1


def test_zero_dimensional_rep(A_sl2):
    X = zero_dimensional(A_sl2)
    assert validate_arep(X).ok


def test_scalar_rep_from_lie_homomorphism(A_sl2):
    # The zero map g -> h is always a Lie homomorphism.
    X = from_lie_homomorphism(A_sl2, [[ZERO] * 3 for _ in range(3)])
    assert validate_arep(X).ok


def test_scalar_rep_from_nontrivial_hom():
    # h = solvable2, g = abelian1: any map f1 -> c*e2 lands in an abelian
    # subalgebra, hence is a Lie homomorphism.
    h, g = solvable2(), LieAlgebra.abelian(1)
    A = build_universal_algebra(h, g)
    X = from_lie_homomorphism(A, [[ZERO, Fraction(3)]])
    assert validate_arep(X).ok


def test_perturbed_rep_names_violated_relation(A_sl2):
    # Oracle construction: perturb a valid rep so exactly the relation
    # evaluations break, and confirm the report names (a,i,j) triples.
    mats = {(s, s): [[ONE]] for s in range(1, 4)}  # the counit rep
    mats[(1, 2)] = [[ONE]]  # x_12 no longer zero
    Y = MatrixARep(A_sl2, 1, mats)
    rep = validate_arep(Y)
    assert not rep.ok
    assert all(len(v.location) == 3 for v in rep.violations if v.check == "relation")
    assert any(v.check == "relation" for v in rep.violations)


def test_direct_sum_rep(A_sl2):
    X = MatrixARep.counit(A_sl2)
    S = X.direct_sum(X)
    assert S.dim == 2
    assert validate_arep(S).ok


def test_direct_sum_rep_matches_hand_built_blocks(A_sl2):
    X = MatrixARep.counit(A_sl2)
    Z = zero_dimensional(A_sl2)
    for S in (X.direct_sum(Z), Z.direct_sum(X)):
        assert (S.dim, S.matrices) == (1, X.matrices)
    S = Z.direct_sum(Z)
    assert S.dim == 0 and all(m == () for m in S.matrices)
    Y = MatrixARep(A_sl2, 2, {(1, 2): [[1, 2], [3, 4]]})
    S = X.direct_sum(Y)
    assert S.matrix(1, 1) == ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    assert S.matrix(1, 2) == ((0, 0, 0), (0, 1, 2), (0, 3, 4))
    assert Y.direct_sum(X).matrix(1, 2) == ((1, 2, 0), (3, 4, 0), (0, 0, 0))


@pytest.mark.parametrize("seed", range(3))
def test_validate_arep_matches_reference_evaluator(A_sl2, seed):
    # 2-dimensional matrices that do not commute, so the order of the
    # factors of a monomial matters, and most relations do not vanish.
    rng = Random(seed)
    mats = {(s, i): [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            for s in range(1, 4) for i in range(1, 4)}
    mats[(1, 1)] = [[ZERO, ONE], [ZERO, ZERO]]
    mats[(2, 2)] = [[ZERO, ZERO], [ONE, ZERO]]
    R = MatrixARep(A_sl2, 2, mats)
    violations = validate_arep(R).violations
    assert tuple((v.check, v.location) for v in violations) == reference_validate_arep(R)
    assert {(v.check, v.witness) for v in violations} == {
        ("commutativity", "nonzero commutator"), ("relation", "relation matrix nonzero")}
    # Column by column, the evaluator gives the reference matrix.
    ordered = R.matrices
    for gen in jgens(A_sl2):
        terms = [(0, mono_word(m), c) for m, c in gen.terms.items()]
        columns = [linalg.evaluate(terms, ordered, {0: e}, 2) for e in linalg.identity(2)]
        assert [list(row) for row in zip(*columns)] == reference_eval_matrices(gen, ordered)


def test_tensor_with_counit_recovers_module_oracle(A_sl2, adjoint_sl2):
    # Oracle: substituting delta_ji into the tensor action formula gives
    # f_i (u_l (x) 1) = (e_i act u_l) (x) 1, the original module.
    T = tensor_lie_module(adjoint_sl2, MatrixARep.counit(A_sl2))
    assert T.result.dim == 3
    assert T.result.matrices == adjoint_sl2.matrices
    assert validate_lie_module(T.result).ok


def reference_tensor_action(U, X, i, l, t):
    """f_i (u_l (x) x_t) = sum_j (e_j act u_l) (x) (X(x_ji) x_t), as a vector
    in the (l, t)-lexicographic basis, from the definition."""
    out = [ZERO] * (U.dim * X.dim)
    for j in range(1, U.algebra.dim + 1):
        a = U.act(U.algebra.basis_vector(j), U.basis_vector(l))
        b = [row[t - 1] for row in X.matrix(j, i)]
        for s, x in enumerate(a):
            for p, y in enumerate(b):
                out[s * X.dim + p] += x * y
    return out


@pytest.mark.parametrize("seed", range(6))
def test_tensor_module_matches_the_kronecker_sum(A_sl2, sl2_alg, seed):
    rng = Random(seed)
    pools = [LieModule.adjoint(sl2_alg), natural2(sl2_alg), LieModule.trivial(sl2_alg, 2)]
    U = pools[seed % 3]
    X = rep_pool(A_sl2, rng)
    T = tensor_lie_module(U, X)
    for i in range(1, A_sl2.g.dim + 1):
        fi = A_sl2.g.basis_vector(i)
        for l in range(1, U.dim + 1):
            for t in range(1, X.dim + 1):
                e = [ZERO] * T.result.dim
                e[T.position(l, t)] = ONE
                assert T.result.act(fi, e) == reference_tensor_action(U, X, i, l, t)


def test_tensor_module_validates(A_sl2, adjoint_sl2):
    X = MatrixARep.counit(A_sl2).direct_sum(
        from_lie_homomorphism(A_sl2, [[ZERO] * 3 for _ in range(3)])
    )
    T = tensor_lie_module(adjoint_sl2, X)
    assert T.result.dim == 6
    assert validate_lie_module(T.result).ok
    # position bookkeeping: (l,t) lexicographic
    assert T.position(2, 1) == 2
    assert T.position(1, 2) == 1


def test_rank1_projection_equivariance(A_sl2, adjoint_sl2):
    # A projection commuting with all generator matrices is an A-module map;
    # oracle is the direct intertwining check inside is_arep_morphism.
    X = MatrixARep.counit(A_sl2).direct_sum(MatrixARep.counit(A_sl2))
    proj = LinearMap.from_matrix([[ONE, ZERO], [ZERO, ZERO]])
    for m in X.matrices:
        assert linalg.mat_mul(proj.mat(), m) == linalg.mat_mul(m, proj.mat())
    assert is_arep_morphism(proj, X, X)
    g = tensor_on_morphism(adjoint_sl2, proj, X, X)
    assert g.source_dim == 6 and g.target_dim == 6


def test_random_reps_are_valid(A_sl2):
    rng = Random(11)
    for _ in range(10):
        X = rep_pool(A_sl2, rng)
        assert validate_arep(X).ok

