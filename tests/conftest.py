import collections

import pytest

from ffmzv import Evaluator, IndexAlgebra, Reducer, field

Setup = collections.namedtuple("Setup", "field algebra reducer evaluator")


def _setup(q):
    f = field(q)
    a = IndexAlgebra(f)
    e = Evaluator(f)
    r = Reducer(a)
    return Setup(f, a, r, e)


@pytest.fixture(scope="session")
def ctx2():
    return _setup(2)


@pytest.fixture(scope="session")
def ctx3():
    return _setup(3)


@pytest.fixture(scope="session")
def ctx4():
    return _setup(4)
