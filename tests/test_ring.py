import random

import pytest
from hypothesis import given, strategies as st

from multisubset import (
    MERSENNE61,
    CountingRing,
    Float64Ring,
    OpCounter,
    PrimeField,
    make_ring,
)
from multisubset.ring import is_prime

P = MERSENNE61
elements = st.integers(min_value=0, max_value=P - 1)


@given(elements, elements, elements)
def test_prime_field_ring_laws(a, b, c):
    r = PrimeField()
    assert r.add(a, b) == r.add(b, a)
    assert r.mul(a, b) == r.mul(b, a)
    assert r.add(r.add(a, b), c) == r.add(a, r.add(b, c))
    assert r.mul(r.mul(a, b), c) == r.mul(a, r.mul(b, c))
    assert r.mul(a, r.add(b, c)) == r.add(r.mul(a, b), r.mul(a, c))
    assert r.add(a, r.zero) == a
    assert r.mul(a, r.one) == a
    assert r.add(a, r.neg(a)) == r.zero
    assert r.sub(a, b) == r.add(a, r.neg(b))


@given(elements)
def test_prime_field_canonical(a):
    r = PrimeField()
    assert 0 <= r.neg(a) < P
    assert r.from_int(a + P) == a
    assert r.from_int(-1) == P - 1


def test_mersenne_default():
    assert PrimeField().p == P
    assert P == 2**61 - 1
    assert PrimeField(7).add(5, 6) == 4


def test_prime_check():
    def trial_division(m):
        return m >= 2 and all(m % k for k in range(2, int(m**0.5) + 1))

    assert [m for m in range(3000) if is_prime(m)] == [m for m in range(3000) if trial_division(m)]
    # strong pseudoprimes to the first 1, 4, 9 and 12 prime bases
    for m in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(m)
    for e in (61, 89, 107, 127):
        assert is_prime(2**e - 1)
    for bad in (4, 561, 2**61 + 1, (2**61 - 1) * 3):
        with pytest.raises(ValueError):
            PrimeField(bad)
    with pytest.raises(ValueError):
        make_ring("modp", p=1)


def test_make_ring():
    assert make_ring("modp").id == "modp"
    assert make_ring("modp", p=101).p == 101
    assert make_ring("f64").id == "f64"
    assert not make_ring("f64").exact
    with pytest.raises(ValueError):
        make_ring("f64", p=101)
    with pytest.raises(ValueError):
        make_ring("quaternions")


def test_sampling_deterministic():
    r = PrimeField()
    a = [r.sample(random.Random(9)) for _ in range(5)]
    b = [r.sample(random.Random(9)) for _ in range(5)]
    assert a == b
    assert all(0 <= x < P for x in a)


def test_f64_ring():
    r = Float64Ring()
    assert r.add(0.5, 0.25) == 0.75
    assert r.mul(2.0, 3.0) == 6.0
    assert r.sub(1.0, 0.25) == 0.75
    assert r.neg(2.0) == -2.0
    assert r.from_int(3) == 3.0
    assert 0.0 <= r.sample(random.Random(1)) < 1.0


def test_counting_ring_tallies():
    counter = OpCounter()
    r = CountingRing(make_ring("modp"), counter)
    x = r.add(1, 2)
    x = r.mul(x, 5)
    x = r.sub(x, 1)
    x = r.neg(x)
    assert (counter.adds, counter.muls) == (3, 1)
    # comparisons, conversions, and sampling are free
    r.eq(x, x)
    r.from_int(42)
    r.sample(random.Random(0))
    assert (counter.adds, counter.muls) == (3, 1)
    counter.reset()
    assert (counter.adds, counter.muls) == (0, 0)


def test_counting_ring_mirrors_inner():
    inner = make_ring("modp", p=13)
    r = CountingRing(inner, OpCounter())
    assert r.id == "modp" and r.exact
    assert r.zero == inner.zero and r.one == inner.one
    assert r.add(9, 9) == inner.add(9, 9)
