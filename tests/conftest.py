import random

import pytest
from hypothesis import settings

from qgca import automaton as ca
from qgca import eca
from qgca import fixtures
from qgca import quasigroup as qg

# property tests draw the same examples on every run
settings.register_profile("qgca", derandomize=True, deadline=None)
settings.load_profile("qgca")


@pytest.fixture
def d7():
    return qg.builtin("D7")


@pytest.fixture
def quat():
    return qg.builtin("quaternion")


@pytest.fixture
def xor_rule():
    return ca.from_quasigroup(qg.builtin("ledrappier", [2, 1, 1]))


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def z7x4_builds(monkeypatch):
    """Every (Z/7)^4 affine system built during a test, whether through the
    ``@z7x4`` cache (cleared before and after) or by a direct call."""
    built = []
    real = eca.affine_matrix_system

    def counting(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(eca, "affine_matrix_system", counting)
    monkeypatch.setattr(fixtures, "affine_matrix_system", counting)
    fixtures._z7x4.cache_clear()
    yield built
    fixtures._z7x4.cache_clear()
