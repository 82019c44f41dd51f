import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from multisubset import (
    CountingRing,
    Family,
    OpCounter,
    SetFunction,
    make_ring,
    moebius_transform,
    subset_convolution,
    subset_convolution_naive,
    values_equal,
    zeta_transform,
)
from multisubset.bitops import bits_of, size_buckets, submasks, subsets_of_size

from helpers import random_setfn


def test_bits_of():
    assert bits_of(0) == []
    assert bits_of(0b1011) == [0, 1, 3]


def test_submasks_descending():
    masks = list(submasks(0b101))
    assert masks == [0b101, 0b100, 0b001, 0b000]
    assert list(submasks(0)) == [0]


def test_subsets_of_size():
    assert list(subsets_of_size(0b111, 2)) == [0b011, 0b101, 0b110]
    assert list(subsets_of_size(0b1010, 0)) == [0]
    assert list(subsets_of_size(0b1010, 3)) == []


def test_size_buckets():
    buckets = size_buckets(3)
    assert buckets[0] == [0]
    assert sorted(buckets[2]) == [0b011, 0b101, 0b110]
    assert sum(len(b) for b in buckets) == 8


def test_setfn_constructors(modp):
    f = SetFunction.zeros(modp, 2)
    assert f.values == [0, 0, 0, 0]
    g = SetFunction.constant(modp, 2, 7)
    assert g.values == [7, 7, 7, 7]
    ind = SetFunction.indicator(modp, 3, 0b101)
    assert ind.values[0b101] == modp.one
    assert sum(1 for v in ind.values if v != modp.zero) == 1
    c = g.copy()
    c.values[0] = 0
    assert g.values[0] == 7


def test_setfn_validation(modp):
    with pytest.raises(ValueError):
        SetFunction(modp, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        SetFunction(modp, -1, [])
    with pytest.raises(ValueError):
        SetFunction.zeros(modp, 25)


def test_family_needs_n_members(modp):
    with pytest.raises(ValueError, match="needs 2 members, got 1"):
        Family(modp, 2, [SetFunction.zeros(modp, 2)])


def test_family_members_share_the_ground_set(modp):
    with pytest.raises(ValueError, match="share the ground set size"):
        Family(modp, 2, [SetFunction.zeros(modp, 2), SetFunction.zeros(modp, 3)])


def test_values_equal_rejects_tables_of_different_length(modp):
    # zip alone would compare only the common prefix
    assert not values_equal(modp, [1, 2], [1])
    assert values_equal(modp, [1, 2], [1, 2])


def test_zeta_known_values(modp):
    # n=2: f = [1, 2, 3, 4] indexed by mask -> sums over submasks
    f = SetFunction(modp, 2, [1, 2, 3, 4])
    z = zeta_transform(f)
    assert z.values == [1, 3, 4, 10]
    assert f.values == [1, 2, 3, 4]  # input untouched


def test_moebius_inverts_zeta(modp):
    f = random_setfn(modp, 6, seed=3)
    assert values_equal(modp, moebius_transform(zeta_transform(f)).values, f.values)
    assert values_equal(modp, zeta_transform(moebius_transform(f)).values, f.values)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=0, max_value=7), seed=st.integers(0, 2**31))
def test_roundtrip_property(n, seed):
    ring = make_ring("modp")
    f = random_setfn(ring, n, seed)
    back = moebius_transform(zeta_transform(f))
    assert values_equal(ring, back.values, f.values)


def test_zeta_addition_count():
    # The butterfly does exactly n * 2^(n-1) ring additions.
    for n in range(1, 9):
        counter = OpCounter()
        ring = CountingRing(make_ring("modp"), counter)
        zeta_transform(random_setfn(ring, n, seed=n))
        assert counter.adds == n * 2 ** (n - 1)
        assert counter.muls == 0


def test_array_butterflies_match_the_list_path(modp):
    # PrimeField(2^61 - 1) runs both transforms on one uint64 array; the
    # object form (here through CountingRing) leaves f(empty set) unreduced
    p = modp.p
    odd = [p, -1, 2**64 + 9]
    for n in range(13):
        rng = random.Random(n)
        values = [rng.choice(odd + [rng.randrange(p)] * 3) for _ in range(1 << n)]
        for transform in (zeta_transform, moebius_transform):
            got = transform(SetFunction(modp, n, list(values))).values
            want = transform(SetFunction(CountingRing(modp), n, list(values))).values
            assert got == [v % p for v in want]
            assert all(type(v) is int for v in got)


def test_subset_convolution_matches_naive(modp):
    for n in range(0, 7):
        f = random_setfn(modp, n, seed=2 * n)
        g = random_setfn(modp, n, seed=2 * n + 1)
        fast = subset_convolution(f, g)
        slow = subset_convolution_naive(f, g)
        assert values_equal(modp, fast.values, slow.values)


def test_subset_convolution_identity(modp):
    # Convolving with the indicator of the empty set is the identity.
    f = random_setfn(modp, 5, seed=11)
    delta = SetFunction.indicator(modp, 5, 0)
    assert values_equal(modp, subset_convolution(f, delta).values, f.values)
    assert values_equal(modp, subset_convolution_naive(delta, f).values, f.values)


def test_subset_convolution_f64():
    ring = make_ring("f64")
    f = random_setfn(ring, 5, seed=4)
    g = random_setfn(ring, 5, seed=5)
    fast = subset_convolution(f, g)
    slow = subset_convolution_naive(f, g)
    for a, b in zip(fast.values, slow.values):
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def test_size_mismatch_rejected(modp):
    f = SetFunction.zeros(modp, 3)
    h = SetFunction.zeros(modp, 4)
    with pytest.raises(ValueError):
        subset_convolution(f, h)
    with pytest.raises(ValueError):
        subset_convolution_naive(f, h)
