import pytest

from helpers import natural2
from univalg.lie import LieModule, sl2
from univalg.universal_algebra import bialgebra_structure, build_universal_algebra
from univalg.universal_modules import build_universal_amodule


@pytest.fixture(scope="session")
def sl2_alg():
    return sl2()


@pytest.fixture(scope="session")
def A_sl2(sl2_alg):
    return build_universal_algebra(sl2_alg, sl2_alg)


@pytest.fixture(scope="session")
def B_sl2(A_sl2):
    return bialgebra_structure(A_sl2)


@pytest.fixture(scope="session")
def adjoint_sl2(sl2_alg):
    return LieModule.adjoint(sl2_alg)


@pytest.fixture(scope="session")
def um_adjoint(A_sl2, adjoint_sl2):
    """U(adjoint, adjoint) over A(sl2, sl2); expensive, built once."""
    return build_universal_amodule(A_sl2, adjoint_sl2, adjoint_sl2)


@pytest.fixture(scope="session")
def um_natural2(A_sl2, sl2_alg):
    """U(natural2, natural2) over A(sl2, sl2), whose reduced basis vectors
    hold genuine halves and quarters."""
    N = natural2(sl2_alg)
    return build_universal_amodule(A_sl2, N, N)
