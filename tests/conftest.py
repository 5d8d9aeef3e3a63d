import random

import pytest
from hypothesis import settings

from qgca import automaton as ca
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
