"""Packed terms are the one element format between the engine and the public
edges: no command does Polynomial or ModuleVector arithmetic, the packed
paths pack and unpack nothing, and the public elements are unpacked on first
read."""

import os
from collections import Counter

import pytest

from helpers import count_calls, lead_monomial, natural2, nf
from univalg import cli, modgb, poly, universal_modules
from univalg.lie import LieModule, LinearMap, direct_sum
from univalg.modgb import ModuleVector
from univalg.poly import DEGREVLEX, LEX, Polynomial, mono_word
from univalg.representations import MatrixARep
from univalg.universal_algebra import build_universal_algebra
from univalg.universal_modules import (
    build_universal_amodule,
    build_universal_lie_hmodule,
    direct_sum_check,
    functor_on_morphism_U,
    functor_on_morphism_V,
)

FIX = os.path.join(os.path.dirname(__file__), "fixtures")

# The arithmetic of the public element types, which no command may call.
ARITHMETIC = [
    (Polynomial, ("__add__", "__sub__", "__mul__", "__rmul__", "scale")),
    (ModuleVector, ("__add__", "__sub__", "scale")),
]

COMMANDS = [
    "univalg sl2.alg sl2.alg",
    "univalg sl2.alg sl2.alg --golden",
    "univalg sl2.alg sl2.alg --degree-probe 3",
    "univalg sl2.alg sl2.alg --order lex --golden",
    "univmod sl2.alg sl2.alg natural2_sl2.mod natural2_sl2.mod",
    "factorize amod sl2.alg sl2.alg natural2_sl2.mod natural2_sl2.mod counit3.rep"
    " identity2.mor",
    "factorize liemod sl2.alg sl2.alg counit3.rep adjoint_sl2.mod adjoint_sl2.mod"
    " identity3.mor",
    "check direct-sum sl2.alg sl2.alg adjoint_sl2.mod adjoint_sl2.mod trivial1_sl2.mod",
    "check adjunction sl2.alg sl2.alg natural2_sl2.mod natural2_sl2.mod counit3.rep"
    " identity2.mor",
    "check rep sl2.alg sl2.alg counit3.rep",
    "check bialgebra sl2.alg",
    "check coalgebra sl2.alg natural2_sl2.mod",
    "check comodule sl2.alg natural2_sl2.mod",
    "coalgebra sl2.alg natural2_sl2.mod",
    "coalgebra abelian1.alg scaling1.mod --order lex",
]


def run(capsys, command: str) -> tuple[int, str, str]:
    argv = [os.path.join(FIX, w) if "." in w else w for w in command.split()]
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbid_arithmetic(monkeypatch) -> None:
    for cls, names in ARITHMETIC:
        for name in names:
            def forbidden(*args, _name=f"{cls.__name__}.{name}"):
                raise AssertionError(f"{_name} called")
            monkeypatch.setattr(cls, name, forbidden)


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_do_no_element_arithmetic(capsys, monkeypatch, command):
    # Each command gives the same report, status and exit code with every
    # Polynomial and ModuleVector operator raising.
    expected = run(capsys, command)
    assert expected[0] == 0
    forbid_arithmetic(monkeypatch)
    assert run(capsys, command) == expected


def test_packed_paths_pack_and_unpack_nothing(A_sl2, sl2_alg, capsys, monkeypatch):
    # A(h,g), the univalg report (golden basis and degree probe included),
    # the functor on morphisms and the direct-sum check keep every element
    # as packed terms from start to end.
    ad, n2 = LieModule.adjoint(sl2_alg), natural2(sl2_alg)
    um = build_universal_amodule(A_sl2, n2, n2)
    calls = [count_calls(monkeypatch, module, name)
             for module in (poly, modgb) for name in ("_pack", "_unpack")]
    build_universal_algebra(sl2_alg, sl2_alg, order=LEX)
    assert run(capsys, "univalg sl2.alg sl2.alg --golden --degree-probe 3")[0] == 0
    fbar = functor_on_morphism_U(um, um, LinearMap.identity(2))
    assert direct_sum_check(A_sl2, ad, ad, LieModule.trivial(sl2_alg, 1)).ok
    assert calls == [[], [], [], []]
    # The images are the public edge: unpacked once, on first read.
    assert "images" not in vars(fbar)
    images = fbar.images
    assert fbar.images is images and len(calls[3]) == len(fbar.terms) == um.rank
    assert images == {p: modgb._vector(um.free, t) for p, t in fbar.terms.items()}
    assert images == {p: nf(um, um.free.basis_vector(p)) for p in range(um.rank)}


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_ideal_basis_unpacks_on_first_read(sl2_alg, monkeypatch, order):
    # A(h,g) keeps the engine's monic packed terms and reads its lead
    # monomials off their keys; its polynomials are unpacked once, when
    # first read, and their leads are the same.
    unpacked = count_calls(monkeypatch, poly, "_unpack")
    gb = build_universal_algebra(sl2_alg, sl2_alg, order=order).gb
    leads = gb.lead_monomials()
    assert unpacked == [] and "generators" not in vars(gb)
    gens = gb.generators
    assert gb.generators is gens and len(unpacked) == len(gb)
    assert gens == tuple(poly._polynomial(t, gb.ring) for t in gb.basis) == tuple(gb)
    assert leads == [lead_monomial(g) for g in gens]
    assert all(g.terms[lm] == 1 for g, lm in zip(gens, leads))


def test_evaluation_words_of_packed_terms(um_natural2):
    # rel_terms reads its words off the packed relations: the same terms
    # (position, word of the monomial, c) as the relation vectors give.
    for terms, v in zip(um_natural2.rel_terms, um_natural2.relgens):
        assert Counter(terms) == Counter(
            (p, mono_word(m), c) for p, q in v.components.items() for m, c in q.terms.items())
    assert poly._words({}, um_natural2.A.ring) == ()


def _lie_modules(A, sl2_alg):
    """V(counit, adjoint (+) trivial) and V(counit, adjoint), and the
    projection between their Lie g-module arguments."""
    V = MatrixARep.counit(A)
    ds = direct_sum(LieModule.adjoint(sl2_alg), LieModule.trivial(sl2_alg, 1))
    return (build_universal_lie_hmodule(A, V, ds.module),
            build_universal_lie_hmodule(A, V, LieModule.adjoint(sl2_alg)), ds.proj1)


def test_functor_on_morphism_V_checks_the_relations(A_sl2, sl2_alg):
    # Over sl2 the relations of V(V,X) have nonzero constant terms, so their
    # images match those of V(V,Y) only because f is equivariant.
    vm_x, vm_y, f = _lie_modules(A_sl2, sl2_alg)
    fbar = functor_on_morphism_V(vm_x, vm_y, f)
    assert set(fbar.images) == set(range(vm_x.rank))
    assert any(c for rel in vm_x.rel_terms for _, w, c in rel if not w)


def test_corrupted_lie_image_fails_the_functor(A_sl2, sl2_alg, monkeypatch):
    # Doubling the image of one generator breaks every relation it enters.
    vm_x, vm_y, f = _lie_modules(A_sl2, sl2_alg)
    induced = universal_modules._induced_lie_map

    def corrupted(vm_x, vm_y, f):
        fbar = induced(vm_x, vm_y, f)
        fbar.images[0] = tuple((q, w, 2 * c) for q, w, c in fbar.images[0])
        return fbar

    monkeypatch.setattr(universal_modules, "_induced_lie_map", corrupted)
    with pytest.raises(AssertionError, match="not preserved by induced map"):
        functor_on_morphism_V(vm_x, vm_y, f)
