from fractions import Fraction

import pytest

from helpers import natural2, pbw_words
from univalg import linalg
from univalg.lie import LieAlgebra, sl2
from univalg.pbw import PBWElement, normalize_word, render_pbw
from univalg.representations import MatrixARep
from univalg.universal_modules import PBWVector, build_universal_lie_hmodule

ONE = Fraction(1)


def test_sorted_words_are_normal():
    L = sl2()
    assert normalize_word(L, (1, 2, 3)) == {(1, 2, 3): ONE}
    assert normalize_word(L, ()) == {(): ONE}


def test_descent_rewrite_sl2():
    # e2 e1 = e1 e2 + [e2, e1] = e1 e2 - e3
    L = sl2()
    assert normalize_word(L, (2, 1)) == {(1, 2): ONE, (3,): -ONE}
    # e3 e1 = e1 e3 + [e3, e1] = e1 e3 + 2 e1
    assert normalize_word(L, (3, 1)) == {(1, 3): ONE, (1,): Fraction(2)}


def test_abelian_words_commute():
    L = LieAlgebra.abelian(3)
    assert normalize_word(L, (3, 1, 2)) == {(1, 2, 3): ONE}


def test_multiplication_associative():
    L = sl2()
    a = PBWElement(L, {(2,): 1}) * PBWElement(L, {(1,): 1})
    b = PBWElement(L, {(3,): 1})
    lhs = (a * b) + PBWElement(L, {(): 1})
    rhs = (
        PBWElement(L, {(2,): 1}) * (PBWElement(L, {(1,): 1}) * b)
        + PBWElement(L, {(): 1})
    )
    assert lhs == rhs


def test_word_action_respects_relations(A_sl2):
    # The defining check: normalized products act identically to the raw word
    # composition in any module; use the natural 2-dim sl2 module.  The word
    # (2, 1) acts as e2 after e1, and e2 e1 != e1 e2 in this module, so a
    # wrong composition order shows on some basis vector.
    L = A_sl2.h
    M = natural2(L)
    mats = M.matrices
    raw = linalg.mat_mul(mats[1], mats[0])
    assert raw != linalg.mat_mul(mats[0], mats[1])
    vm = build_universal_lie_hmodule(A_sl2, MatrixARep.counit(A_sl2), M)
    norm = PBWVector(vm, {0: PBWElement(L, normalize_word(L, (2, 1)))})
    for k in range(1, 3):
        image = linalg.evaluate(pbw_words(norm), mats, {0: M.basis_vector(k)}, M.dim)
        assert image == [row[k - 1] for row in raw]


def test_render():
    L = sl2()
    p = PBWElement(L, normalize_word(L, (2, 1)))
    assert render_pbw(p) == "-e3 + e1*e2"


def test_memo_not_inherited_through_reused_id():
    # A new algebra allocated where a freed one lived must not see the freed
    # algebra's normal forms: over abelian3, e2 e1 = e1 e2; over sl2 it is
    # e1 e2 - e3.
    table = sl2().table
    for _ in range(100):
        ab = LieAlgebra.abelian(3)
        assert normalize_word(ab, (2, 1)) == {(1, 2): ONE}
        freed = id(ab)
        del ab
        L = LieAlgebra(3, table)
        assert normalize_word(L, (2, 1)) == {(1, 2): ONE, (3,): -ONE}
        if id(L) == freed:
            break
    else:
        pytest.fail("no id was reused in 100 attempts; the test did not run")
