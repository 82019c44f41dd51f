"""The M61 array path: exact arithmetic and agreement with the list path."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multisubset import (
    MERSENNE61,
    ClassicalBackend,
    CountingRing,
    Family,
    PipelineStats,
    PrimeField,
    SetFunction,
    SubMatrix,
    WeightSystem,
    build_submatrix,
    mst_naive,
    run_transform,
    sum_acyclic_digraphs,
    tian_he_sum,
)
from multisubset import m61
from multisubset.mst import GroundSplit

from helpers import random_family

P = MERSENNE61
EXTREMES = [0, 1, 2**32 - 1, 2**32, P - 1]
ARRAY_ALGOS = ("columns", "rows-columns")


def u64(values):
    return np.array(values, dtype=np.uint64)


def test_mul_at_the_extremes():
    a = u64([x for x in EXTREMES for _ in EXTREMES])
    b = u64([y for _ in EXTREMES for y in EXTREMES])
    assert m61.mul(a, b).tolist() == [x * y % P for x in EXTREMES for y in EXTREMES]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, P - 1), st.integers(0, P - 1)), min_size=1, max_size=40))
def test_mul_add_match_python_ints(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    assert m61.mul(u64(xs), u64(ys)).tolist() == [x * y % P for x, y in pairs]
    assert m61.add(u64(xs), u64(ys)).tolist() == [(x + y) % P for x, y in pairs]


def test_shift_is_multiplication_by_a_power_of_two():
    xs = EXTREMES + [random.Random(s).randrange(P) for s in range(20)]
    for s in range(61):
        assert m61.shift(u64(xs), s).tolist() == [x * 2**s % P for x in xs]


def _python_product(a, b):
    return [[sum(x * y for x, y in zip(arow, brow)) % P for brow in b] for arow in a]


@pytest.mark.parametrize("cols", [1, m61.KERNEL_CHUNK_COLUMNS, 3 * m61.KERNEL_CHUNK_COLUMNS + 5])
def test_kernel_with_every_entry_p_minus_1(cols):
    a = [[P - 1] * cols for _ in range(3)]
    b = [[P - 1] * cols for _ in range(2)]
    assert m61.product(u64(a), u64(b)).tolist() == _python_product(a, b)


def test_kernel_random_entries_and_counts():
    rng = random.Random(4)
    cols = list(range(2 * m61.KERNEL_CHUNK_COLUMNS + 17))
    a = [[rng.choice(EXTREMES + [rng.randrange(P)]) for _ in cols] for _ in range(5)]
    b = [[rng.choice(EXTREMES + [rng.randrange(P)]) for _ in cols] for _ in range(4)]
    stats = PipelineStats()
    out = ClassicalBackend().multiply(
        PrimeField(), SubMatrix(list(range(5)), cols, u64(a)),
        SubMatrix(list(range(4)), cols, u64(b)), stats,
    )
    assert out.tolist() == _python_product(a, b)
    assert stats.rmm_muls == 5 * len(cols) * 4


def test_kernel_rejects_arrays_over_another_ring():
    a = SubMatrix([0], [0], u64([[1]]))
    with pytest.raises(ValueError):
        ClassicalBackend().multiply(PrimeField(101), a, a)
    with pytest.raises(ValueError):
        SubMatrix([0, 1], [0], u64([[1]]))


def test_bracket_matrix_array_form(modp):
    fam = random_family(modp, 7, seed=12)
    split = GroundSplit.for_n(7)
    arrays = m61.M61Family.of(fam)
    cols = [m for m in range(1 << 7) if m % 5 != 1]
    for part, rows in ((1, [0, 3, 5, 15, 6]), (2, [0, 0b10000, 0b1110000, 0b1010000])):
        want = build_submatrix(fam, split, part, rows, cols)
        got = build_submatrix(arrays, split, part, rows, cols)
        assert isinstance(got.entries, np.ndarray)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got.entries.tolist() == want.entries


def _both_paths(algo, n, seed, sigma=None, tau=None):
    """(table, stats) on the array path and on the list path (CountingRing)."""
    out = []
    for ring in (PrimeField(), CountingRing(PrimeField())):
        stats = PipelineStats()
        g = run_transform(algo, random_family(ring, n, seed), sigma=sigma, tau=tau, stats=stats)
        out.append((g.values, stats))
    return out


@pytest.mark.parametrize("n", range(12))
def test_array_path_matches_list_path_and_naive(n):
    for seed in (n, 100 + n):
        naive = mst_naive(random_family(PrimeField(), n, seed)).values if n <= 10 else None
        for algo in ARRAY_ALGOS:
            (arr, arr_stats), (lst, lst_stats) = _both_paths(algo, n, seed)
            assert arr == lst
            assert arr_stats == lst_stats
            if naive is not None:
                assert arr == naive


def test_chunk_sizes_and_folds_do_not_change_the_table(monkeypatch):
    # tiny chunks: many kernel and build chunks, scan chunks of single
    # columns larger than the chunk, and a fold after every few columns
    monkeypatch.setattr(m61, "BUILD_CHUNK_COLUMNS", 5)
    monkeypatch.setattr(m61, "KERNEL_CHUNK_COLUMNS", 7)
    monkeypatch.setattr(m61, "SCAN_CHUNK_PAIRS", 4)
    monkeypatch.setattr(m61, "SCAN_FOLD_COLUMNS", 3)
    for algo in ARRAY_ALGOS:
        (arr, arr_stats), (lst, lst_stats) = _both_paths(algo, 8, 3)
        assert arr == lst
        assert arr_stats == lst_stats


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 10**6),
    sigma=st.floats(1 / 3, 1 / 2, exclude_min=True, exclude_max=True),
    tau=st.floats(1 / 2, 2 / 3, exclude_min=True, exclude_max=True),
)
def test_array_path_with_drawn_sigma_and_tau(n, seed, sigma, tau):
    naive = mst_naive(random_family(PrimeField(), n, seed)).values
    for algo, t in (("columns", None), ("rows-columns", tau)):
        (arr, arr_stats), (lst, lst_stats) = _both_paths(algo, n, seed, sigma, t)
        assert arr == lst == naive
        assert arr_stats == lst_stats


@pytest.mark.parametrize("n", range(1, 9))
def test_array_path_dag_tables_equal_tian_he(n):
    ring = PrimeField()
    rng = random.Random(n)
    weights = [
        SetFunction(ring, n, [0 if (m >> i) & 1 else rng.randrange(P) for m in range(1 << n)])
        for i in range(n)
    ]
    wsys = WeightSystem(ring, n, weights)
    expected = tian_he_sum(wsys).a
    for algo in ARRAY_ALGOS:
        assert sum_acyclic_digraphs(wsys, algo).a == expected


def test_non_canonical_members_give_the_same_table():
    # values at or above p, negative, and at or above 2^64
    n = 6
    rng = random.Random(6)
    odd = [P, P + 5, -1, -P - 3, 2**64 + 9, 2**70, 3 * P - 1]
    raw = [[rng.choice(odd + [rng.randrange(P)]) for _ in range(1 << n)] for _ in range(n)]

    def family(ring):
        return Family(ring, n, [SetFunction(ring, n, list(v)) for v in raw])

    naive = mst_naive(family(PrimeField())).values
    for algo in ARRAY_ALGOS:
        assert run_transform(algo, family(PrimeField())).values == naive
        assert run_transform(algo, family(CountingRing(PrimeField()))).values == naive
    assert m61.canonical([odd]).tolist() == [[v % P for v in odd]]


class _EntryTypes(ClassicalBackend):
    def __init__(self):
        self.seen = set()

    def multiply(self, ring, a, b, stats=None):
        self.seen.add(type(a.entries))
        return super().multiply(ring, a, b, stats)


@pytest.mark.parametrize("algo,ring,array", [
    ("columns", PrimeField(), True),
    ("rows-columns", PrimeField(), True),
    ("cover", PrimeField(), False),
    ("columns", CountingRing(PrimeField()), False),
    ("columns", PrimeField(101), False),
])
def test_which_runs_take_the_array_path(algo, ring, array):
    backend = _EntryTypes()
    g = run_transform(algo, random_family(ring, 5, seed=1), backend=backend)
    assert backend.seen == {np.ndarray if array else list}
    assert all(type(v) is int for v in g.values)
