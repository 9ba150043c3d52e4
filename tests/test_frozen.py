"""Every structure is stored once, as immutable tuples of exact scalars: a Lie
algebra as its bracket table, a Lie module as its action matrices and an
A-module as one tuple of generator matrices in ring order."""

from fractions import Fraction
from random import Random

import pytest

from helpers import heisenberg, natural2, solvable2
from univalg.formats import parse_algebra_text, parse_module_text
from univalg.lie import (
    LieAlgebra,
    LieModule,
    LinearMap,
    direct_sum,
    is_module_morphism,
    sl2,
    validate_lie_module,
)
from univalg.representations import MatrixARep, tensor_lie_module

HALF = Fraction(1, 2)


def leaves(x):
    """The leaves of a nest of tuples, failing on any other container."""
    if isinstance(x, (int, Fraction)):
        yield x
    else:
        assert type(x) is tuple, f"{type(x).__name__} inside a stored structure"
        for y in x:
            yield from leaves(y)


def assert_frozen(structure, depth):
    """Tuples ``depth`` deep, with int leaves for integral values and Fraction
    leaves only for genuine fractions, and no item assignment anywhere."""
    found = list(leaves(structure))
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in found)
    x = structure
    for _ in range(depth):
        with pytest.raises(TypeError):
            x[0] = 0
        x = x[0]


def _algebras():
    return {
        "constructor": LieAlgebra(2, [[[Fraction(0), Fraction(0)], [0, HALF]],
                                      [[0, -HALF], [Fraction(0), 0]]]),
        "from_brackets": LieAlgebra.from_brackets(
            2, {(1, 2): {2: Fraction(4, 2)}}, antisymmetrize=True),
        "abelian": LieAlgebra.abelian(2),
        "sl2": sl2(),
        "parse_algebra_text": parse_algebra_text(
            "algebra s\ndim 2\nbracket 1 2: 2:6/3\nbracket 2 1: 2:-4/2\n"),
    }


@pytest.mark.parametrize("path", sorted(_algebras()))
def test_bracket_table_is_frozen(path):
    L = _algebras()[path]
    assert_frozen(L.table, 3)


def _modules(A):
    L = sl2()
    n2 = natural2(L)
    return {
        "trivial": LieModule.trivial(L, 2),
        "adjoint": LieModule.adjoint(L),
        "from_matrices": LieModule.from_matrices(
            solvable2(), [[[Fraction(3), HALF], [0, Fraction(2)]], [[0, 0], [0, 0]]]),
        "parse_module_text": parse_module_text(
            "module n\nkind lie\ndim 2\naction 1 2: 1:2/2\naction 2 1: 2:1\n"
            "action 3 1: 1:1\naction 3 2: 2:-1\n", algebra=L),
        "direct_sum": direct_sum(n2, LieModule.adjoint(L)).module,
        "tensor_lie_module": tensor_lie_module(n2, MatrixARep.counit(A)).result,
    }


@pytest.mark.parametrize("path", ["trivial", "adjoint", "from_matrices",
                                  "parse_module_text", "direct_sum", "tensor_lie_module"])
def test_lie_module_matrices_are_frozen(A_sl2, path):
    M = _modules(A_sl2)[path]
    assert not hasattr(M, "action")
    assert len(M.matrices) == M.algebra.dim
    assert all(len(m) == M.dim for m in M.matrices)
    assert_frozen(M.matrices, 3)


@pytest.mark.parametrize("path", ["constructor", "counit", "direct_sum"])
def test_arep_matrices_are_frozen(A_sl2, path):
    X = MatrixARep(A_sl2, 2, {(1, 2): [[Fraction(2, 2), HALF], [0, 0]]})
    rep = {"constructor": X, "counit": MatrixARep.counit(A_sl2),
           "direct_sum": X.direct_sum(MatrixARep.counit(A_sl2))}[path]
    assert not hasattr(rep, "mats")
    assert len(rep.matrices) == A_sl2.ring.nvars
    assert all(rep.matrix(s, i) is rep.matrices[A_sl2.var_index(s, i)]
               for s in range(1, 4) for i in range(1, 4))
    assert_frozen(rep.matrices, 3)


def test_arep_rejects_a_pair_that_is_no_variable_or_a_wrong_shape(A_sl2):
    with pytest.raises(ValueError, match="no variable"):
        MatrixARep(A_sl2, 1, {(4, 1): [[1]]})
    # A 1 x 1 matrix in a 2-dimensional module once gave a tensor module
    # without an error.
    with pytest.raises(ValueError, match="dim x dim"):
        MatrixARep(A_sl2, 2, {(1, 1): [[1]]})


def test_lie_module_rejects_matrices_of_the_wrong_count_or_shape():
    L = sl2()
    with pytest.raises(ValueError, match="one square matrix"):
        LieModule.from_matrices(L, [[[1]], [[0]]])
    with pytest.raises(ValueError, match="one square matrix"):
        LieModule.from_matrices(L, [[[1, 0]], [[0, 0]], [[0, 0]]])


def _act_residuals(M):
    """The Lie module axiom through ``act`` alone: (i, j, r) and the residual
    [b_i, b_j] u_r - (b_i (b_j u_r) - b_j (b_i u_r)) wherever it is nonzero."""
    L, out = M.algebra, []
    for i in range(1, L.dim + 1):
        x = L.basis_vector(i)
        for j in range(1, L.dim + 1):
            y = L.basis_vector(j)
            for r in range(1, M.dim + 1):
                v = M.basis_vector(r)
                lhs = M.act(L.bracket(x, y), v)
                a, b = M.act(x, M.act(y, v)), M.act(y, M.act(x, v))
                resid = [p - (q - s) for p, q, s in zip(lhs, a, b)]
                if any(resid):
                    out.append(((i, j, r), "residual [" + ", ".join(map(str, resid)) + "]"))
    return out


def _act_intertwines(f, M, N):
    L = M.algebra
    return all(f.apply(M.act(L.basis_vector(i), M.basis_vector(j)))
               == N.act(L.basis_vector(i), f.apply(M.basis_vector(j)))
               for i in range(1, L.dim + 1) for j in range(1, M.dim + 1))


def _write_into_tables(M):
    """Add 7 to the first entry of every table that M holds and lets one
    write into."""
    for stored in vars(M).values():
        if type(stored) in (list, tuple) and stored and stored[0] and stored[0][0]:
            try:
                stored[0][0][0] += 7
            except TypeError:
                pass


@pytest.mark.parametrize("seed", range(12))
def test_act_validate_and_morphism_agree(seed):
    # Seeded matrices that are mostly not modules, next to modules, and maps
    # that are mostly not morphisms: after any write that the module allows,
    # the validator, the morphism test and the action read the same matrices.
    rng = Random(seed)
    L = (sl2(), heisenberg(), solvable2())[seed % 3]
    d = rng.randint(2, 3)
    seeded = LieModule.from_matrices(L, [
        [[Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(d)]
         for _ in range(d)] for _ in range(L.dim)])
    for M in (seeded, LieModule.adjoint(L), LieModule.trivial(L, d)):
        _write_into_tables(M)
        assert [(v.location, v.witness) for v in validate_lie_module(M).violations] \
            == _act_residuals(M)
        maps = [LinearMap.identity(M.dim), LinearMap.from_matrix(
            [[rng.randint(-1, 1) for _ in range(M.dim)] for _ in range(M.dim)])]
        for f in maps:
            assert is_module_morphism(f, M, M) == _act_intertwines(f, M, M)
    assert not validate_lie_module(seeded).ok
