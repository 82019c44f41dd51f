import pytest

from multisubset import make_ring


@pytest.fixture
def modp():
    return make_ring("modp")


@pytest.fixture
def f64():
    return make_ring("f64")
