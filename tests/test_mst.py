import math
from math import comb

import pytest

from multisubset import (
    ALGORITHMS,
    COLUMNS_SIGMA,
    ClassicalBackend,
    CountingRing,
    Family,
    GroundSplit,
    MeasuredCostPlanner,
    OpCounter,
    PipelineStats,
    ROWS_COLUMNS_SIGMA,
    ROWS_COLUMNS_TAU,
    SetFunction,
    build_submatrix,
    make_ring,
    mst_columns,
    mst_cover_columns,
    mst_naive,
    mst_rows_columns,
    run_transform,
    values_equal,
)
from multisubset.mst import (
    Product,
    Scan,
    _execute,
    _guarded_floor,
    _half_rows,
    row_thresholds,
    small_large_columns,
)

from helpers import random_family

FAST = ("columns", "rows-columns", "cover")


def test_ground_split():
    s = GroundSplit.for_n(5)
    assert (s.h1, s.h2) == (3, 2)
    assert s.u1_mask == 0b00111
    assert s.u2_mask == 0b11000
    even = GroundSplit.for_n(6)
    assert (even.h1, even.h2) == (3, 3)
    empty = GroundSplit.for_n(0)
    assert (empty.h1, empty.h2) == (0, 0)
    assert empty.u1_mask == 0 and empty.u2_mask == 0


def test_guarded_floor():
    assert _guarded_floor(3.0) == 3
    assert _guarded_floor(2.9999999995) == 3  # float drift just below an integer
    assert _guarded_floor(2.4) == 2
    assert row_thresholds(GroundSplit.for_n(10), 0.6) == (3, 3)


@pytest.mark.parametrize("algo", FAST)
@pytest.mark.parametrize("n", range(0, 8))
def test_fast_matches_naive(modp, algo, n):
    fam = random_family(modp, n, seed=100 * n + 7)
    expected = mst_naive(fam)
    got = run_transform(algo, fam)
    assert values_equal(modp, got.values, expected.values)


def test_f64_close():
    ring = make_ring("f64")
    fam = random_family(ring, 7, seed=5)
    expected = mst_naive(fam)
    for algo in FAST:
        got = run_transform(algo, fam)
        for a, b in zip(got.values, expected.values):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def test_naive_pair_count(modp):
    for n in range(0, 7):
        stats = PipelineStats()
        mst_naive(random_family(modp, n, seed=n), stats)
        assert stats.pair_iterations == 3**n


def test_columns_structural_counts(modp):
    n = 8
    fam = random_family(modp, n, seed=1)
    sigma = COLUMNS_SIGMA
    s0 = _guarded_floor(sigma * n)
    stats = PipelineStats()
    mst_columns(fam, sigma, ClassicalBackend(), stats)
    # the superset scan on large columns does 2^(n-d) pair visits per column
    expected_pairs = sum(comb(n, d) * 2 ** (n - d) for d in range(s0 + 1, n + 1))
    assert stats.pair_iterations == expected_pairs
    # one classical product: 2^h1 rows x |small| cols x 2^h2 rows
    small_count = sum(comb(n, d) for d in range(s0 + 1))
    assert stats.rmm_muls == 2**n * small_count
    assert stats.columns_processed == small_count


def test_small_large_split():
    small, large = small_large_columns(4, 1)
    assert sorted(small + large) == list(range(16))
    assert all(m.bit_count() <= 1 for m in small)
    assert all(m.bit_count() > 1 for m in large)


def test_bracket_matrix_semantics(modp):
    fam = random_family(modp, 4, seed=9)
    split = GroundSplit.for_n(4)
    rows = list(range(1 << split.h1))
    cols = list(range(1 << 4))
    e1 = build_submatrix(fam, split, 1, rows, cols)
    members = [m.values for m in fam.members]
    for i, t1 in enumerate(rows):
        for j, s in enumerate(cols):
            if (s & split.u1_mask) & ~t1:
                assert e1.entries[i][j] == modp.zero
            else:
                prod = modp.one
                for b in range(4):
                    if (t1 >> b) & 1:
                        prod = modp.mul(prod, members[b][s])
                assert e1.entries[i][j] == prod
    # structurally nonzero entries: sum over T1 of 2^|T1| * 2^h2 = 3^h1 * 2^h2
    nonzero_slots = sum(
        1
        for t1 in rows
        for s in cols
        if not ((s & split.u1_mask) & ~t1)
    )
    assert nonzero_slots == 3**split.h1 * 2**split.h2


def test_bracket_row_outside_part_rejected(modp):
    fam = random_family(modp, 4, seed=9)
    split = GroundSplit.for_n(4)
    with pytest.raises(ValueError):
        build_submatrix(fam, split, 1, [0b1000], [0])
    with pytest.raises(ValueError):
        build_submatrix(fam, split, 2, [0b0001], [0])
    with pytest.raises(ValueError):
        build_submatrix(fam, split, 3, [0], [0])


def _run_plan(fam, plan):
    return _execute(fam, GroundSplit.for_n(fam.n), plan, None, None).values


def _full_product(split, cols):
    return Product(_half_rows(split, 1), cols, _half_rows(split, 2))


def _trimmed_plan(split, tau, cols):
    # the trimmed scan and the product over the rows above the thresholds
    t1, t2 = row_thresholds(split, tau)
    return [Scan(cols, (t1, t2)), Product(_half_rows(split, 1, t1), cols, _half_rows(split, 2, t2))]


def test_fast_rmm_and_direct_scan_compose(modp):
    # Full-row product over any column subset plus the direct scan over the
    # complement reproduces the naive transform.
    n = 6
    fam = random_family(modp, n, seed=77)
    split = GroundSplit.for_n(n)
    cols_a = [m for m in range(1 << n) if m % 3 == 0]
    cols_b = [m for m in range(1 << n) if m % 3 != 0]
    got = _run_plan(fam, [_full_product(split, cols_a), Scan(cols_b)])
    assert values_equal(modp, got, mst_naive(fam).values)


def test_rows_trimmed_partial(modp):
    # Trimmed-row pipeline over all columns is the whole transform.
    n = 7
    fam = random_family(modp, n, seed=13)
    split = GroundSplit.for_n(n)
    got = _run_plan(fam, _trimmed_plan(split, ROWS_COLUMNS_TAU, list(range(1 << n))))
    assert values_equal(modp, got, mst_naive(fam).values)
    with pytest.raises(ValueError):
        mst_rows_columns(fam, tau=1.5)


@pytest.mark.parametrize("trimmed", [False, True])
@pytest.mark.parametrize("n", [6, 9, 11])
def test_scan_ring_op_counts(n, trimmed):
    # one add per visited pair; one mul per pair past each kept column's
    # root, plus |S| muls for the root product of each kept column
    counter = OpCounter()
    fam = random_family(CountingRing(make_ring("modp"), counter), n, seed=n)
    split = GroundSplit.for_n(n)
    thresholds = row_thresholds(split, ROWS_COLUMNS_TAU) if trimmed else None
    cols = list(range(1 << n))
    counter.reset()
    stats = PipelineStats()
    _execute(fam, split, [Scan(cols, thresholds)], None, stats)
    if thresholds is None:
        kept = cols
    else:
        t1, t2 = thresholds
        kept = [
            s for s in cols
            if not ((s & split.u1_mask).bit_count() > t1
                    and (s & split.u2_mask).bit_count() > t2)
        ]
    assert counter.adds == stats.pair_iterations
    assert counter.muls == (
        stats.pair_iterations - len(kept) + sum(s.bit_count() for s in kept)
    )


def test_parameter_domains(modp):
    fam = random_family(modp, 4, seed=0)
    for bad_sigma in (0.2, 1 / 3, 0.5, 0.9):
        with pytest.raises(ValueError):
            mst_columns(fam, bad_sigma)
    for bad_tau in (0.4, 0.5, 2 / 3, 0.8):
        with pytest.raises(ValueError):
            mst_rows_columns(fam, tau=bad_tau)
    with pytest.raises(ValueError):
        run_transform("fft", fam)
    # sigma and tau are rejected where the algorithm takes none
    for algo, kwargs in (
        ("naive", {"sigma": 0.4}),
        ("naive", {"tau": 0.6}),
        ("cover", {"sigma": 0.4}),
        ("cover", {"tau": 0.6}),
        ("columns", {"tau": 0.6}),
    ):
        with pytest.raises(ValueError):
            run_transform(algo, fam, **kwargs)


def test_algorithms_tuple():
    assert ALGORITHMS == ("naive", "columns", "rows-columns", "cover")


def test_cover_partitions_columns(modp):
    # every column contributes exactly once, so the processed count is 2^n
    for n in (4, 5, 6):
        fam = random_family(modp, n, seed=3 * n)
        stats = PipelineStats()
        got = mst_cover_columns(fam, stats=stats)
        assert stats.columns_processed == 2**n
        assert values_equal(modp, got.values, mst_naive(fam).values)


@pytest.mark.parametrize("n", range(4, 9))
def test_cover_counts_one_column_per_product(modp, n):
    # the cost model picks k = s for every column class, so each of the
    # 2^n columns S gets its own 2^(n - |S|)-cell product: 3^n in all
    stats = PipelineStats()
    mst_cover_columns(random_family(modp, n, seed=n), stats=stats)
    assert stats.rmm_muls == 3**n
    assert stats.columns_processed == 2**n


def test_measured_planner_selection():
    split = GroundSplit.for_n(10)
    planner = MeasuredCostPlanner()
    for s1 in range(split.h1 + 1):
        for s2 in range(split.h2 + 1):
            k1, k2 = planner.select(split, s1, s2)
            assert s1 <= k1 <= split.h1
            assert s2 <= k2 <= split.h2
            assert (k1, k2) == planner.select(split, s1, s2)


def test_empty_family(modp):
    fam = Family(modp, 0, [])
    g = mst_naive(fam)
    assert g.values == [modp.one]  # empty product over the empty T, S = {} only
    for algo in FAST:
        assert run_transform(algo, fam).values == [modp.one]


def test_single_member_family(modp):
    a, b = modp.from_int(11), modp.from_int(29)
    fam = Family(modp, 1, [SetFunction(modp, 1, [a, b])])
    assert mst_naive(fam).values == [modp.one, modp.add(a, b)]


def test_fast_rmm_empty_column_set(modp):
    fam = random_family(modp, 4, seed=6)
    got = _run_plan(fam, [_full_product(GroundSplit.for_n(4), [])])
    assert all(v == modp.zero for v in got)


def test_rows_trimmed_matches_full_rmm(modp):
    # trimming plus the pruned scan must reproduce the untrimmed product
    # over the same column set, and with a huge tau only whole-half rows
    # stay in the product
    n = 8
    fam = random_family(modp, n, seed=31)
    split = GroundSplit.for_n(n)
    cols = [m for m in range(1 << n) if m.bit_count() <= 3]
    full = _run_plan(fam, [_full_product(split, cols)])
    for tau in (0.6, 0.9):
        trimmed = _run_plan(fam, _trimmed_plan(split, tau, cols))
        assert values_equal(modp, trimmed, full)
    assert row_thresholds(split, 0.9) == (split.h1 - 1, split.h2 - 1)


def test_all_zero_family(modp):
    n = 5
    fam = Family(modp, n, [SetFunction.zeros(modp, n) for _ in range(n)])
    g = mst_rows_columns(fam)
    assert g.values[0] == modp.one  # empty T keeps the empty product
    assert all(v == modp.zero for v in g.values[1:])


def test_cover_f64_bit_reproducible():
    ring = make_ring("f64")
    fam = random_family(ring, 7, seed=19)
    first = mst_cover_columns(fam)
    second = mst_cover_columns(fam)
    assert first.values == second.values  # identical floats, not just close


@pytest.mark.parametrize("n", range(2, 11))
def test_rows_columns_product_counts(modp, n):
    # one product of |rows above t1| x |small| x |rows above t2|
    split = GroundSplit.for_n(n)
    t1, t2 = row_thresholds(split, ROWS_COLUMNS_TAU)
    small, _ = small_large_columns(n, _guarded_floor(ROWS_COLUMNS_SIGMA * n))
    rows1 = sum(comb(split.h1, c) for c in range(t1 + 1, split.h1 + 1))
    rows2 = sum(comb(split.h2, c) for c in range(t2 + 1, split.h2 + 1))
    stats = PipelineStats()
    mst_rows_columns(random_family(modp, n, seed=n), stats=stats)
    assert stats.rmm_muls == rows1 * len(small) * rows2
    assert stats.columns_processed == len(small)


def test_columns_reference_counts_n10(modp):
    # s0 = floor(0.3642 * 10) = 3; one product of 2^5 x 176 x 2^5
    fam = random_family(modp, 10, seed=10)
    stats = PipelineStats()
    mst_columns(fam, 0.3642, ClassicalBackend(), stats)
    small = sum(comb(10, s) for s in range(4))
    assert small == 176
    assert stats.rmm_muls == 2**10 * small


def test_constant_one_family_counts_subsets(modp):
    # With every f_i identically one, g(T) counts the subsets of T.
    n = 5
    fam = Family(modp, n, [SetFunction.constant(modp, n, modp.one) for _ in range(n)])
    g = mst_naive(fam)
    for t_mask in range(1 << n):
        assert g.values[t_mask] == modp.from_int(2 ** t_mask.bit_count())
