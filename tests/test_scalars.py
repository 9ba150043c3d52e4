"""The type of a scalar never matters.

A scalar is an exact rational held as ``int | Fraction``.  The same small
inputs are given once with ``int`` entries, once with ``Fraction(n, 1)``
entries and once scaled by a non-integral factor: the results must be equal
(up to that factor) and no ``float`` may appear in them.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    const,
    from_lie_homomorphism,
    nf,
    random_equivariant_map,
    tensor_square_inputs,
)
from univalg import linalg
from univalg.coalgebra import CoalgebraOnU
from univalg.formats import parse_algebra_text
from univalg.lie import LieModule, LinearMap, is_module_morphism, validate_lie_module
from univalg.linalg import scalar
from univalg.modgb import (
    FreeModule, ModuleVector, _terms, module_buchberger, module_normal_form,
)
from univalg.poly import (
    DEGREVLEX,
    LEX,
    PolyRing,
    Polynomial,
    ResourceBudgetError,
    groebner,
    normal_form,
)
from univalg.representations import tensor_lie_module
from univalg.universal_modules import (
    build_universal_amodule,
    factorize_through_universal,
    gamma,
)

BUDGET = 2000
# Each kind turns an int into a scalar of that type with the same value.
KINDS = {"int": int, "Fraction": Fraction}
factors = st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)])


def scalars(x):
    """Every number inside an output: polynomials, vectors, maps, containers."""
    if isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
        yield x
    elif isinstance(x, Polynomial):
        yield from x.terms.values()
    elif isinstance(x, ModuleVector):
        for q in x.components.values():
            yield from q.terms.values()
    elif isinstance(x, LinearMap):
        yield from scalars(x.matrix)
    elif isinstance(x, dict):
        for v in x.values():
            yield from scalars(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from scalars(v)


def exact(*outputs) -> bool:
    found = list(scalars(outputs))
    return bool(found) and all(type(c) in (int, Fraction) for c in found)


# ---------------------------------------------------------------------------
# linalg.scalar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("given_value,value,kind", [
    (7, 7, int),
    (Fraction(4, 2), 2, int),
    (Fraction(1, 2), Fraction(1, 2), Fraction),
    ("6/3", 2, int),
])
def test_scalar(given_value, value, kind):
    out = scalar(given_value)
    assert out == value and type(out) is kind


def test_parsed_integral_rationals_are_ints():
    L = parse_algebra_text("algebra s\ndim 2\nbracket 1 2: 2:6/3\nbracket 2 1: 2:-4/2\n")
    assert L.table[0][1] == (0, 2) and L.table[1][0] == (0, -2)
    assert all(type(c) is int for plane in L.table for row in plane for c in row)


# ---------------------------------------------------------------------------
# Ideals and submodules
# ---------------------------------------------------------------------------

int_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=3
)


def _poly(R, data, kind=int, k=1):
    return Polynomial(R, {m: kind(c) * k for m, c in data.items()})


@given(st.lists(int_polys, min_size=1, max_size=3), int_polys, factors,
       st.sampled_from([DEGREVLEX, LEX]))
@settings(max_examples=40, deadline=None)
def test_ideal_results_do_not_depend_on_the_scalar_type(gens, probe, k, order):
    R = PolyRing(["x", "y"], order)
    try:
        bases = {name: groebner([_poly(R, g, kind) for g in gens], R, budget=BUDGET)
                 for name, kind in KINDS.items()}
        scaled = groebner([_poly(R, g, k=k) for g in gens], R, budget=BUDGET)
    except ResourceBudgetError:
        assume(False)
    gb = bases["int"]
    # A reduced basis is monic, so scaling the generators leaves it alone.
    assert bases["Fraction"].generators == gb.generators == scaled.generators
    forms = [normal_form(_poly(R, probe, kind), bases[name])
             for name, kind in KINDS.items()]
    assert forms[0] == forms[1]
    assert normal_form(_poly(R, probe, k=k), gb) == forms[0].scale(k)
    assert all(type(c) in (int, Fraction) for c in scalars([gb.generators, forms]))


int_vectors = st.dictionaries(st.integers(0, 1), int_polys, min_size=1, max_size=2)


@given(st.lists(int_vectors, min_size=1, max_size=3), int_vectors, factors)
@settings(max_examples=40, deadline=None)
def test_submodule_results_do_not_depend_on_the_scalar_type(gens, probe, k):
    R = PolyRing(["x", "y"], DEGREVLEX)
    F = FreeModule(R, 2)

    def vector(data, kind=int, k=1):
        return ModuleVector(F, {p: _poly(R, q, kind, k) for p, q in data.items()})

    try:
        bases = {name: module_buchberger([vector(g, kind) for g in gens], None, F,
                                         budget=BUDGET)
                 for name, kind in KINDS.items()}
        scaled = module_buchberger([vector(g, k=k) for g in gens], None, F,
                                   budget=BUDGET)
    except ResourceBudgetError:
        assume(False)
    mgb = bases["int"]
    assert bases["Fraction"].generators == mgb.generators == scaled.generators
    forms = [module_normal_form(vector(probe, kind), bases[name])
             for name, kind in KINDS.items()]
    assert forms[0] == forms[1]
    assert module_normal_form(vector(probe, k=k), mgb) == forms[0].scale(k)
    assert all(type(c) in (int, Fraction) for c in scalars([mgb.generators, forms]))


# ---------------------------------------------------------------------------
# LieModule tables, MatrixARep matrices, LinearMaps: U(natural2, natural2)
# ---------------------------------------------------------------------------

# natural2 of sl2 (e1, e2 the nilpotents, e3 diagonal) as int matrices
NATURAL2 = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]]


def _natural2(sl2_alg, kind=int, k=None):
    """natural2 with entries of the given kind; with k, in the basis
    (u1, u2 / k), whose matrices hold k and 1/k."""
    if k is None:
        mats = [[[kind(x) for x in row] for row in m] for m in NATURAL2]
    else:
        d = (1, k)
        mats = [[[m[r][c] * Fraction(d[c], d[r]) for c in range(2)] for r in range(2)]
                for m in NATURAL2]
    return LieModule.from_matrices(sl2_alg, mats)


@pytest.fixture(scope="module")
def universal(A_sl2, sl2_alg):
    """U(natural2, natural2) from int, from Fraction and from scaled tables."""
    out = {}
    for name, kind in KINDS.items():
        M = _natural2(sl2_alg, kind)
        out[name] = build_universal_amodule(A_sl2, M, M)
    M = _natural2(sl2_alg, k=Fraction(1, 2))
    out["scaled"] = build_universal_amodule(A_sl2, M, M)
    return out


def test_universal_module_does_not_depend_on_the_scalar_type(universal):
    um, twin = universal["int"], universal["Fraction"]
    assert um.U.matrices == twin.U.matrices
    assert um.relgens == twin.relgens
    assert um.rel_terms == twin.rel_terms
    assert um.mgb.generators == twin.mgb.generators
    assert exact(um.relgens, um.mgb.generators, twin.mgb.generators)
    half = universal["scaled"]
    assert any(type(c) is Fraction for c in scalars(half.U.matrices))
    assert exact(half.relgens, half.mgb.generators)


def test_report_text_does_not_depend_on_the_scalar_type(sl2_alg):
    # e1 acting by half its natural2 matrix breaks the Lie axiom.
    texts = set()
    for kind in KINDS.values():
        mats = [[[kind(x) for x in row] for row in m] for m in NATURAL2]
        mats[0][0][1] = Fraction(1, 2)
        texts.add(str(validate_lie_module(LieModule.from_matrices(sl2_alg, mats))))
    (text,) = texts
    assert "residual [-1/2, 0]" in text and "Fraction" not in text


def _point(A, t, kind):
    """The point of A(sl2, sl2) at the automorphism e1 -> t e1, e2 -> e2 / t,
    e3 -> e3 of sl2, with integral entries of the given kind."""
    images = [[t, 0, 0], [0, Fraction(1, t), 0], [0, 0, 1]]
    images = [[kind(x) if x == int(x) else x for x in row] for row in images]
    return from_lie_homomorphism(A, images)


def _twin_map(f: LinearMap) -> LinearMap:
    """The same map with every entry a Fraction, past the normalising
    constructor."""
    return LinearMap(f.source_dim, f.target_dim,
                     tuple(tuple(Fraction(x) for x in row) for row in f.matrix))


@given(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
       st.integers(0, 10**6), factors)
@settings(max_examples=25, deadline=None)
def test_adjunction_does_not_depend_on_the_scalar_type(universal, A_sl2, t, seed, k):
    results = {}
    for name, kind in KINDS.items():
        um = universal[name]
        X = _point(A_sl2, t, kind)
        TX = tensor_lie_module(um.U, X).result
        f = random_equivariant_map(Random(seed), um.Z, TX)
        if name == "Fraction":
            f = _twin_map(f)
        res = factorize_through_universal(um, X, f)
        theta = {key: [kind(x) if x == int(x) else x for x in v]
                 for key, v in res.images.items()}
        back = gamma(um, X, theta)
        first, *rest = f.matrix
        bent = LinearMap.from_matrix([[first[0] + 1, *first[1:]], *rest])
        results[name] = (res.images, res.witnesses, res.ok, back,
                         is_module_morphism(f, um.Z, TX),
                         is_module_morphism(bent, um.Z, TX))
        assert back == LinearMap.from_matrix(f.mat())
        assert exact(res.images, res.witnesses, back)
    assert results["int"] == results["Fraction"]
    # The adjunction is linear: k f factors through k theta.
    um = universal["int"]
    X = _point(A_sl2, t, int)
    images, _, ok, back, _, _ = results["int"]
    fk = LinearMap.from_matrix(linalg.mat_scale(k, back.mat()))
    res = factorize_through_universal(um, X, fk)
    assert res.ok and ok
    assert res.images == {key: [k * x for x in v] for key, v in images.items()}
    assert gamma(um, X, res.images) == fk
    assert exact(res.images, fk)


@given(st.sampled_from([1, 2, Fraction(1, 2)]), st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_adjunction_on_scaled_tables_stays_exact(universal, A_sl2, t, seed):
    um = universal["scaled"]
    X = _point(A_sl2, t, int)
    TX = tensor_lie_module(um.U, X).result
    f = random_equivariant_map(Random(seed), um.Z, TX)
    res = factorize_through_universal(um, X, f)
    assert res.ok
    back = gamma(um, X, res.images)
    assert back == f
    assert exact(res.images, res.witnesses, back)


@pytest.mark.parametrize("which", ["um_natural2", "um_adjoint"])
def test_tensor_square_scalars_follow_the_rule(request, B_sl2, which):
    # Delta and the integer normal form over one common denominator store an
    # integral coefficient as an int and only a genuine fraction as Fraction.
    um = request.getfixturevalue(which)
    sq = CoalgebraOnU(um, B_sl2).square
    vectors, acted = tensor_square_inputs(um, sq)
    elems = [sq.delta_of_terms(_terms(v)) for v in vectors] + acted
    out = [c for e in elems for c in scalars([e, sq.normal_form(e)])]
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in out)
    assert {type(c) for c in out} == {int, Fraction}


def integral_as_int(*outputs) -> bool:
    """Every scalar inside the outputs is an int, or a Fraction that is not
    integral."""
    found = list(scalars(outputs))
    return bool(found) and all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in found)


def test_polynomial_arithmetic_stores_integral_results_as_int():
    R = PolyRing(["x", "y"])
    half = const(R, Fraction(1, 2))
    for p in (half * const(R, 2), half + half, half.scale(2),
              const(R, Fraction(3, 2)) - half,
              Polynomial(R, {(0, 0): Fraction(4, 2), (1, 0): Fraction(1, 3)})):
        assert integral_as_int(p)


def test_module_basis_and_normal_forms_store_integral_results_as_int(um_natural2):
    # The basis of U(natural2, natural2) and the normal forms of
    # x_i x_(i+4) e_p hold genuine halves and quarters beside integers.
    um = um_natural2
    ring = um.A.ring
    forms = [nf(um, ModuleVector(um.free, {p: ring.var(i) * ring.var(i + 4)}))
             for i in range(ring.nvars - 4) for p in range(um.rank)]
    assert integral_as_int(um.mgb.generators, forms)
    assert any(type(c) is Fraction for c in scalars([um.mgb.generators, forms]))
