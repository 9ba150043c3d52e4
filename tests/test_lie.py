from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    algebra_pool,
    compose,
    heisenberg,
    mat_scale,
    natural2,
    random_equivariant_map,
    reference_validate_lie_algebra,
    solvable2,
    unit_vector,
)
from univalg import linalg
from univalg.lie import (
    LieAlgebra,
    LieModule,
    LinearMap,
    Report,
    Violation,
    direct_sum,
    is_module_morphism,
    sl2,
    validate_lie_algebra,
    validate_lie_module,
)

ONE = Fraction(1)
ZERO = Fraction(0)


def test_sl2_is_a_lie_algebra():
    assert validate_lie_algebra(sl2()).ok
    assert validate_lie_algebra(solvable2()).ok
    assert validate_lie_algebra(heisenberg()).ok


def test_abelian_and_brackets():
    L = LieAlgebra.abelian(2)
    assert validate_lie_algebra(L).ok
    assert L.bracket(unit_vector(L.dim, 1), unit_vector(L.dim, 2)) == [ZERO, ZERO]


def test_equal_algebras_hash_equal_whatever_their_names():
    a = sl2()
    b = LieAlgebra(a.dim, a.table, name="another-sl2")
    assert a.name != b.name
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_antisymmetry_violation_reported():
    L = LieAlgebra.from_brackets(2, {(1, 2): {1: ONE}})  # no antisymmetrization
    rep = validate_lie_algebra(L)
    assert not rep.ok
    assert any(v.check == "antisymmetry" for v in rep.violations)


def test_report_require_raises_only_on_failure():
    assert Report().require(AssertionError, "unused") is None
    bad = Report((Violation("jacobi", (1, 2, 3), "nonzero"),
                  Violation("antisymmetry", (2, 1), "x")))
    with pytest.raises(ValueError) as exc:
        bad.require(ValueError, "g is not a Lie algebra")
    assert type(exc.value) is ValueError
    assert str(exc.value) == ("g is not a Lie algebra:\nfail\n"
                              "  jacobi at (1, 2, 3): nonzero\n"
                              "  antisymmetry at (2, 1): x")


def test_jacobi_violation_reported():
    # Antisymmetric but non-Jacobi: [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e1 gives
    # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = 0 + 0 + e3.
    L = LieAlgebra.from_brackets(
        3,
        {(1, 2): {3: ONE}, (2, 3): {1: ONE}, (3, 1): {1: ONE}},
        antisymmetrize=True,
    )
    rep = validate_lie_algebra(L)
    assert not rep.ok
    assert any(v.check == "jacobi" for v in rep.violations)


@given(st.integers(0, 10**6), st.integers(0, 4), st.booleans())
@settings(max_examples=80, deadline=None)
def test_sparse_sweep_matches_the_dense_sweep(seed, corruptions, antisymmetric):
    # A seeded algebra of the pool (or abelian5), with up to four entries
    # overwritten, in both orientations when ``antisymmetric``: the sparse
    # sweep reports what the dense sweep reports, in the same order and with
    # the same text.
    rng = Random(seed)
    base = rng.choice(algebra_pool() + [LieAlgebra.abelian(5)])
    n = base.dim
    table = [[list(row) for row in plane] for plane in base.table]
    for _ in range(corruptions):
        i, j, s = (rng.randrange(n) for _ in range(3))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        table[i][j][s] = c
        if antisymmetric:
            table[j][i][s] = -c
    L = LieAlgebra(n, table)
    assert validate_lie_algebra(L) == reference_validate_lie_algebra(L)


def test_adjoint_module_jacobi_oracle():
    # Oracle: the adjoint action satisfies the module axiom exactly because of
    # the Jacobi identity; verify the rearrangement directly on sl2 brackets.
    L = sl2()
    M = LieModule.adjoint(L)
    for i in range(1, 4):
        for j in range(1, 4):
            for r in range(1, 4):
                x, y, v = (unit_vector(L.dim, k) for k in (i, j, r))
                lhs = L.bracket(L.bracket(x, y), v)
                rhs = [
                    a - b
                    for a, b in zip(
                        L.bracket(x, L.bracket(y, v)), L.bracket(y, L.bracket(x, v))
                    )
                ]
                assert lhs == rhs
    assert validate_lie_module(M).ok


def test_adjoint_module_does_not_alias_the_bracket_table():
    L = sl2()
    before = [[list(row) for row in plane] for plane in L.table]
    M = LieModule.adjoint(L)
    with pytest.raises(TypeError):
        M.matrices[0][2][1] += 7
    with pytest.raises(TypeError):
        L.table[0][1][2] += 7
    assert [[list(row) for row in plane] for plane in L.table] == before
    assert M == LieModule.adjoint(sl2())
    assert validate_lie_algebra(L).ok and validate_lie_module(M).ok


@pytest.mark.parametrize("make", [
    lambda L: LieModule.adjoint(L), natural2, lambda L: LieModule.trivial(L, 2),
    lambda L: LieModule.trivial(L, 0),
], ids=["adjoint", "natural2", "trivial2", "trivial0"])
def test_action_matrix_is_the_frozen_transposed_action(make):
    # Column j of the matrix of b_i is b_i acting on u_j.
    M = make(sl2())
    for i, mat in enumerate(M.matrices, start=1):
        columns = [M.act(unit_vector(M.algebra.dim, i), unit_vector(M.dim, j))
                   for j in range(1, M.dim + 1)]
        assert mat == tuple(tuple(col[s] for col in columns) for s in range(M.dim))
        assert type(mat) is tuple and all(type(row) is tuple for row in mat)
        if M.dim:
            with pytest.raises(TypeError):
                mat[0][0] = 7


def test_natural2_module_commutator_oracle():
    # Oracle: direct matrix commutator checks [A1,A2]=A3, [A3,A1]=2A1,
    # [A3,A2]=-2A2, then the validator must agree.
    a1 = [[ZERO, ONE], [ZERO, ZERO]]
    a2 = [[ZERO, ZERO], [ONE, ZERO]]
    a3 = [[ONE, ZERO], [ZERO, -ONE]]
    assert linalg.commutator(a1, a2) == a3
    assert linalg.commutator(a3, a1) == mat_scale(Fraction(2), a1)
    assert linalg.commutator(a3, a2) == mat_scale(Fraction(-2), a2)
    assert validate_lie_module(natural2(sl2())).ok


def test_module_axiom_violation_reported():
    L = sl2()
    M = LieModule.from_matrices(
        L, [[[ONE]], [[ONE]], [[ZERO]]], name="broken"
    )  # e1, e2 cannot both act as 1 on a 1-dim module of sl2
    rep = validate_lie_module(M)
    assert not rep.ok


def test_module_morphism_and_random_nonmorphism():
    L = sl2()
    M = LieModule.adjoint(L)
    T = LieModule.trivial(L, 3)
    ident = LinearMap.identity(3)
    assert is_module_morphism(ident, M, M)
    # Oracle (direct evaluation): e3 acts as 0 on T but not on M, so any
    # nonzero map M -> T fails at some basis pair.
    rng = Random(7)
    mat = [[Fraction(rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
    f = LinearMap.from_matrix(mat)
    x = unit_vector(L.dim, 3)
    v = unit_vector(M.dim, 1)
    assert f.apply(M.act(x, v)) != T.act(x, f.apply(v))
    assert not is_module_morphism(f, M, T)


def test_direct_sum_block_oracle():
    L = sl2()
    M = LieModule.adjoint(L)
    T = LieModule.trivial(L, 1)
    ds = direct_sum(M, T)
    assert ds.module.dim == 4
    # Oracle: block check of every action matrix.
    for i in range(1, 4):
        big = ds.module.matrices[i - 1]
        small = M.matrices[i - 1]
        for r in range(3):
            for c in range(3):
                assert big[r][c] == small[r][c]
        assert all(big[3][c] == 0 for c in range(4))
        assert all(big[r][3] == 0 for r in range(4))
    assert validate_lie_module(ds.module).ok
    # Projection/injection identities.
    assert compose(ds.proj1, ds.inj1).mat() == linalg.identity(3)
    assert compose(ds.proj2, ds.inj2).mat() == linalg.identity(1)
    assert compose(ds.proj2, ds.inj1).mat() == linalg.zeros(1, 3)


def test_direct_sum_with_zero_dimensional_summand():
    L = sl2()
    M, Z = natural2(L), LieModule.trivial(L, 0)
    identity = LinearMap(2, 2, ((1, 0), (0, 1)))
    ds = direct_sum(M, Z)
    assert (ds.module.dim, ds.module.matrices) == (2, M.matrices)
    assert (ds.inj1, ds.inj2) == (identity, LinearMap(0, 2, ((), ())))
    assert (ds.proj1, ds.proj2) == (identity, LinearMap(2, 0, ()))
    ds = direct_sum(Z, M)
    assert (ds.module.dim, ds.module.matrices) == (2, M.matrices)
    assert (ds.inj1, ds.inj2) == (LinearMap(0, 2, ((), ())), identity)
    assert (ds.proj1, ds.proj2) == (LinearMap(2, 0, ()), identity)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_random_equivariant_maps_are_morphisms(seed):
    rng = Random(seed)
    L = rng.choice([sl2(), solvable2(), heisenberg(), LieAlgebra.abelian(2)])
    pool = [LieModule.adjoint(L), LieModule.trivial(L, 2)]
    if L.name == "sl2":
        pool.append(natural2(L))
    M, N = rng.choice(pool), rng.choice(pool)
    f = random_equivariant_map(rng, M, N)
    assert is_module_morphism(f, M, N)


def test_linear_map_basics():
    f = LinearMap.from_matrix([[ONE, ZERO], [ONE, ONE]])
    g = LinearMap.from_matrix([[ZERO, ONE], [ONE, ZERO]])
    assert f.apply([ONE, ONE]) == [ONE, Fraction(2)]
    assert compose(f, g).mat() == linalg.mat_mul(f.mat(), g.mat())
    z = LinearMap.zero(2, 3)
    assert z.apply([ONE, ONE]) == [ZERO, ZERO, ZERO]


def _per_pair_is_module_morphism(f, M, N):
    """The per-basis-pair formula: f(x_i act v_j) = x_i act f(v_j), with f
    applied as a plain matrix product."""

    def apply(v):
        return [sum((a * b for a, b in zip(row, v)), ZERO) for row in f.matrix]

    for i in range(1, M.algebra.dim + 1):
        x = unit_vector(M.algebra.dim, i)
        for j in range(1, M.dim + 1):
            v = unit_vector(M.dim, j)
            if apply(M.act(x, v)) != N.act(x, apply(v)):
                return False
    return True


def _morphism_pool(L):
    pool = [LieModule.adjoint(L), LieModule.trivial(L, 1), LieModule.trivial(L, 2)]
    if L.name == "sl2":
        pool += [natural2(L), direct_sum(natural2(L), natural2(L)).module]
    else:
        # e1 and e2 act by commuting nilpotents and the centre e3 by zero.
        nil = [[ZERO, ONE], [ZERO, ZERO]]
        pool.append(LieModule.from_matrices(
            L, [nil, mat_scale(Fraction(2), nil), linalg.zeros(2, 2)],
            name="heis-nil2"))
    pool.append(direct_sum(LieModule.adjoint(L), LieModule.trivial(L, 1)).module)
    return pool


_MORPHISM_POOLS = {L.name: (L, _morphism_pool(L)) for L in (sl2(), heisenberg())}


@given(
    st.sampled_from(sorted(_MORPHISM_POOLS)),
    st.integers(0, 10 ** 6),
    st.sampled_from(["intertwiner", "perturbed", "random"]),
    st.integers(-3, 3).filter(bool),
)
@settings(max_examples=120, deadline=None)
def test_is_module_morphism_matches_per_pair_formula(name, seed, kind, delta):
    L, pool = _MORPHISM_POOLS[name]
    rng = Random(seed)
    M, N = rng.choice(pool), rng.choice(pool)
    assert validate_lie_module(M).ok and validate_lie_module(N).ok
    if kind == "random":
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(M.dim)] for _ in range(N.dim)]
        f = LinearMap.from_matrix(m, M.dim)
    else:
        f = random_equivariant_map(rng, M, N)
        if kind == "perturbed":
            m = f.mat()
            m[rng.randrange(N.dim)][rng.randrange(M.dim)] += delta
            f = LinearMap.from_matrix(m, M.dim)
    expected = _per_pair_is_module_morphism(f, M, N)
    assert is_module_morphism(f, M, N) == expected
    if kind == "intertwiner":
        assert expected


def test_is_module_morphism_zero_dimensional():
    L = sl2()
    Z, M = LieModule.trivial(L, 0), LieModule.adjoint(L)
    assert is_module_morphism(LinearMap.zero(0, 3), Z, M)
    assert is_module_morphism(LinearMap.zero(3, 0), M, Z)
    assert is_module_morphism(LinearMap.zero(0, 0), Z, Z)


def test_is_module_morphism_rejects_mismatched_inputs():
    L = sl2()
    M = LieModule.adjoint(L)
    with pytest.raises(ValueError, match="different algebras"):
        is_module_morphism(LinearMap.identity(3), M, LieModule.adjoint(heisenberg()))
    with pytest.raises(ValueError, match="dimensions do not match"):
        is_module_morphism(LinearMap.identity(2), M, M)
