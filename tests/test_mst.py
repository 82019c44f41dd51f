import math
import random
from math import comb

import numpy as np
import pytest

from multisubset import (
    ALGORITHMS,
    COLUMNS_SIGMA,
    ClassicalBackend,
    CountingRing,
    Family,
    GroundSplit,
    OpCounter,
    PipelineStats,
    PrimeField,
    ROWS_COLUMNS_SIGMA,
    ROWS_COLUMNS_TAU,
    SetFunction,
    make_ring,
    mst_naive,
    run_transform,
    values_equal,
)
from multisubset import mst
from multisubset.mst import (
    BATCH_OUTPUT_ENTRIES,
    BracketStore,
    MeasuredCostPlanner,
    Product,
    Scan,
    SupersetProduct,
    _cover_plan,
    _execute,
    _guarded_floor,
    _half_rows,
    _superset_rows,
    build_submatrix,
    naive_at,
    row_thresholds,
    small_large_columns,
)
from multisubset.arrays import ArrayFamily
from multisubset.cover import greedy_cover
from multisubset.setfn import MAX_GROUND_SET

from helpers import masks, random_family

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


@pytest.mark.parametrize("ring", [
    CountingRing(PrimeField()), PrimeField(101), PrimeField((1 << 521) - 1),
], ids=["counting", "p101", "p521"])
def test_object_form_rings_match_naive(ring):
    # every fast plan on the object form equals the naive oracle
    for n in (0, 1, 2, 5, 8, 10):
        fam = random_family(ring, n, seed=n)
        naive = mst_naive(fam).values
        for algo in FAST:
            assert run_transform(algo, fam).values == naive


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


@pytest.mark.parametrize("ring", [PrimeField(), PrimeField(101), CountingRing(PrimeField())],
                         ids=["m61", "p101", "counting"])
def test_naive_matches_t_major_definition(ring):
    # the column-major oracle against naive_at's T-major loop over every target
    for n in range(9):
        fam = random_family(ring, n, seed=40 + n)
        assert mst_naive(fam).values == naive_at(fam, range(1 << n))


def test_naive_matches_t_major_definition_f64(f64):
    for n in range(9):
        fam = random_family(f64, n, seed=40 + n)
        for a, b in zip(mst_naive(fam).values, naive_at(fam, range(1 << n))):
            assert math.isclose(a, b, rel_tol=1e-12)


@pytest.mark.parametrize("n", range(9))
def test_naive_ring_operation_counts(n):
    # each column's root takes |S| muls from one, its doubling one mul per
    # superset past the root, and every pair one add
    counter = OpCounter()
    fam = random_family(CountingRing(PrimeField(), counter), n, seed=n)
    counter.reset()
    mst_naive(fam)
    assert (counter.muls, counter.adds) == (3**n - 2**n + n * 2**n // 2, 3**n)
    if n == 8:
        assert (counter.muls, counter.adds) == (7329, 6561)


def test_columns_structural_counts(modp):
    n = 8
    fam = random_family(modp, n, seed=1)
    sigma = COLUMNS_SIGMA
    s0 = _guarded_floor(sigma * n)
    stats = PipelineStats()
    run_transform("columns", fam, sigma=sigma, backend=ClassicalBackend(), stats=stats)
    # the superset scan on large columns does 2^(n-d) pair visits per column
    expected_pairs = sum(comb(n, d) * 2 ** (n - d) for d in range(s0 + 1, n + 1))
    assert stats.pair_iterations == expected_pairs
    # one classical product: 2^h1 rows x |small| cols x 2^h2 rows
    small_count = sum(comb(n, d) for d in range(s0 + 1))
    assert stats.rmm_muls == 2**n * small_count
    assert stats.columns_processed == small_count


def test_small_large_split():
    small, large = small_large_columns(4, 1)
    assert sorted(small.tolist() + large.tolist()) == list(range(16))
    assert all(m.bit_count() <= 1 for m in small)
    assert all(m.bit_count() > 1 for m in large)


def test_column_split_and_scan_cut_match_their_loops():
    # the trimmed scan skips the cells of the product over the rows above
    # the thresholds: each T with both half-sizes above them, once
    for n in range(15):
        split = GroundSplit.for_n(n)
        for s0 in range(-1, n + 1):
            small = [m for m in range(1 << n) if m.bit_count() <= s0]
            large = [m for m in range(1 << n) if m.bit_count() > s0]
            assert [c.tolist() for c in small_large_columns(n, s0)] == [small, large]
        for t1 in range(-1, split.h1 + 1):
            for t2 in range(-1, split.h2 + 1):
                cells = _half_rows(split, 1, t1)[:, None] | _half_rows(split, 2, t2)
                assert sorted(cells.ravel().tolist()) == [
                    t for t in range(1 << n)
                    if (t & split.u1_mask).bit_count() > t1
                    and (t & split.u2_mask).bit_count() > t2
                ]
        scan, product, _ = mst._plan("rows-columns", split, ROWS_COLUMNS_SIGMA, ROWS_COLUMNS_TAU)
        assert scan.skip is product
        # the dense build trusts these shapes: one plain block, rows in their halves
        for plan in (mst._plan("columns", split, COLUMNS_SIGMA, None), (product,)):
            for step in plan:
                if isinstance(step, Product):
                    assert type(step) is Product
                    assert [a.shape[0] for a in (step.rows1, step.cols, step.rows2)] == [1, 1, 1]
                    assert not (step.rows1 & ~split.u1_mask).any()
                    assert not (step.rows2 & ~split.u2_mask).any()


def test_bracket_matrix_semantics(modp):
    fam = random_family(modp, 4, seed=9)
    split = GroundSplit.for_n(4)
    rows = list(range(1 << split.h1))
    cols = list(range(1 << 4))
    e1 = build_submatrix(ArrayFamily.of(fam), split, 1, masks(rows)[None], masks(cols)[None])
    members = [m.values for m in fam.members]
    for i, t1 in enumerate(rows):
        for j, s in enumerate(cols):
            if (s & split.u1_mask) & ~t1:
                assert e1.entries[0][i][j] == modp.zero
            else:
                prod = modp.one
                for b in range(4):
                    if (t1 >> b) & 1:
                        prod = modp.mul(prod, members[b][s])
                assert e1.entries[0][i][j] == prod
    # structurally nonzero entries: sum over T1 of 2^|T1| * 2^h2 = 3^h1 * 2^h2
    nonzero_slots = sum(
        1
        for t1 in rows
        for s in cols
        if not ((s & split.u1_mask) & ~t1)
    )
    assert nonzero_slots == 3**split.h1 * 2**split.h2


def _run_plan(fam, plan):
    # the plan's table on fam's element form; the object form (through
    # CountingRing over the same values) must agree
    split = GroundSplit.for_n(fam.n)
    values = _execute(fam, split, plan, None, None).values
    ring = CountingRing(fam.ring)
    counted = Family(ring, fam.n, [SetFunction(ring, fam.n, m.values) for m in fam.members])
    assert _execute(counted, split, plan, None, None).values == values
    return values


def _full_product(split, cols):
    return Product(_half_rows(split, 1)[None], masks(cols)[None], _half_rows(split, 2)[None])


def _trimmed_plan(split, tau, cols):
    # the trimmed scan and the product over the rows above the thresholds
    t1, t2 = row_thresholds(split, tau)
    product = Product(_half_rows(split, 1, t1)[None], masks(cols)[None],
                      _half_rows(split, 2, t2)[None])
    return [Scan(masks(cols), product), product]


def test_fast_rmm_and_direct_scan_compose(modp):
    # Full-row product over any column subset plus the direct scan over the
    # complement reproduces the naive transform.
    n = 6
    fam = random_family(modp, n, seed=77)
    split = GroundSplit.for_n(n)
    cols_a = [m for m in range(1 << n) if m % 3 == 0]
    cols_b = [m for m in range(1 << n) if m % 3 != 0]
    got = _run_plan(fam, [_full_product(split, cols_a), Scan(masks(cols_b))])
    assert values_equal(modp, got, mst_naive(fam).values)


def test_rows_trimmed_partial(modp):
    # Trimmed-row pipeline over all columns is the whole transform.
    n = 7
    fam = random_family(modp, n, seed=13)
    split = GroundSplit.for_n(n)
    got = _run_plan(fam, _trimmed_plan(split, ROWS_COLUMNS_TAU, list(range(1 << n))))
    assert values_equal(modp, got, mst_naive(fam).values)
    with pytest.raises(ValueError):
        run_transform("rows-columns", fam, tau=1.5)


@pytest.mark.parametrize("trimmed", [False, True])
@pytest.mark.parametrize("n", [6, 9, 11])
def test_scan_ring_op_counts(n, trimmed):
    # one add per visited pair; one mul per computed entry past each kept
    # column's root, plus |S| muls for the root product of each kept
    # column.  A kept column computes all 2^(n - |S|) supersets; the
    # trimmed scan then drops the cut ones, which it does not visit.
    counter = OpCounter()
    fam = random_family(CountingRing(make_ring("modp"), counter), n, seed=n)
    split = GroundSplit.for_n(n)
    cols = list(range(1 << n))
    skip = _trimmed_plan(split, ROWS_COLUMNS_TAU, cols)[1] if trimmed else None
    counter.reset()
    stats = PipelineStats()
    _execute(fam, split, [Scan(masks(cols), skip)], None, stats)
    if not trimmed:
        kept = cols
    else:
        t1, t2 = row_thresholds(split, ROWS_COLUMNS_TAU)
        kept = [
            s for s in cols
            if not ((s & split.u1_mask).bit_count() > t1
                    and (s & split.u2_mask).bit_count() > t2)
        ]
    computed = sum(1 << (n - s.bit_count()) for s in kept)
    if not trimmed:
        assert stats.pair_iterations == computed
    else:
        assert stats.pair_iterations < computed
    assert counter.adds == stats.pair_iterations
    assert counter.muls == computed - len(kept) + sum(s.bit_count() for s in kept)


def test_parameter_domains(modp):
    fam = random_family(modp, 4, seed=0)
    for algo in ("columns", "rows-columns"):
        for bad_sigma in (0.2, 1 / 3, 0.5, 0.9):
            with pytest.raises(ValueError):
                run_transform(algo, fam, sigma=bad_sigma)
    for bad_tau in (0.4, 0.5, 2 / 3, 0.8):
        with pytest.raises(ValueError):
            run_transform("rows-columns", fam, tau=bad_tau)
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
        got = run_transform("cover", fam, stats=stats)
        assert stats.columns_processed == 2**n
        assert values_equal(modp, got.values, mst_naive(fam).values)


@pytest.mark.parametrize("n", range(4, 9))
def test_cover_counts_one_column_per_product(modp, n):
    # the planner picks k = s for every column class, so each of the
    # 2^n columns S gets its own 2^(n - |S|)-cell product: 3^n in all
    stats = PipelineStats()
    run_transform("cover", random_family(modp, n, seed=n), stats=stats)
    assert stats.rmm_muls == 3**n
    assert stats.columns_processed == 2**n


@pytest.mark.parametrize("n", range(13))
def test_default_cover_products_take_one_column_and_its_supersets(n):
    # rows1 and rows2 of each product are exactly the supersets, in each
    # half, of its one column's halves, and the plan marks it so
    split = GroundSplit.for_n(n)
    halves = [(list(range(1 << split.h1)), split.u1_mask),
              ([t << split.h1 for t in range(1 << split.h2)], split.u2_mask)]
    for step in _cover_plan(split):
        assert isinstance(step, SupersetProduct) and step.cols.shape[1] == 1
        for rows1, (col,), rows2 in zip(*(a.tolist() for a in (step.rows1, step.cols, step.rows2))):
            for rows, (half, mask) in zip((rows1, rows2), halves):
                assert rows == [t for t in half if t & col & mask == col & mask]


@pytest.mark.parametrize("n", [6, 9], ids=["6-default", "9-default"])
def test_cover_batches_partition_the_columns(monkeypatch, n):
    # every batch holds m products of one shape, at most BATCH_OUTPUT_ENTRIES
    # outputs unless it is one product, and the batches share out all 2^n
    # columns once each; also under a cap that most classes' runs exceed
    batch_sizes = {}
    for cap in (BATCH_OUTPUT_ENTRIES, 1 << 5):
        monkeypatch.setattr(mst, "BATCH_OUTPUT_ENTRIES", cap)
        cols, batch_sizes[cap] = [], []
        for step in _cover_plan(GroundSplit.for_n(n)):
            (m, r1), (m_cols, c), (m2, r2) = step.rows1.shape, step.cols.shape, step.rows2.shape
            assert m == m_cols == m2 and c >= 1
            assert m == 1 or m * r1 * r2 <= cap
            cols += step.cols.ravel().tolist()
            batch_sizes[cap].append(m)
        assert sorted(cols) == list(range(1 << n))
    assert max(batch_sizes[BATCH_OUTPUT_ENTRIES]) > 1
    assert len(batch_sizes[1 << 5]) > len(batch_sizes[BATCH_OUTPUT_ENTRIES])


@pytest.mark.parametrize("cap", [BATCH_OUTPUT_ENTRIES, 1 << 5])
def test_cover_plan_batches_match_a_plain_loop(monkeypatch, cap):
    # classes s1-major, columns S1 | S2 ascending S1-major within a
    # class, cut every max(1, cap / 2^(n - s1 - s2)) columns: a batch's
    # outputs
    monkeypatch.setattr(mst, "BATCH_OUTPUT_ENTRIES", cap)
    for n in range(11):
        split = GroundSplit.for_n(n)
        h1, h2 = split.h1, split.h2
        want = []
        for s1 in range(h1 + 1):
            for s2 in range(h2 + 1):
                cols = [t1 | t2 << h1
                        for t1 in range(1 << h1) if t1.bit_count() == s1
                        for t2 in range(1 << h2) if t2.bit_count() == s2]
                per_batch = max(1, cap // 2 ** (n - s1 - s2))
                want += [cols[b:b + per_batch] for b in range(0, len(cols), per_batch)]
        got = []
        for step in _cover_plan(split):
            assert isinstance(step, SupersetProduct) and step.cols.shape[1] == 1
            got.append(step.cols[:, 0].tolist())
        assert got == want


def test_measured_planner_selection():
    split = GroundSplit.for_n(10)
    planner = MeasuredCostPlanner()
    for s1 in range(split.h1 + 1):
        for s2 in range(split.h2 + 1):
            k1, k2 = planner.select(split, s1, s2)
            assert s1 <= k1 <= split.h1
            assert s2 <= k2 <= split.h2
            assert (k1, k2) == planner.select(split, s1, s2)


@pytest.mark.parametrize("n", range(MAX_GROUND_SET + 1))
def test_measured_planner_picks_the_column_size_everywhere(n):
    # cover's one column per product, and its 3^n kernel multiplications,
    # hold for every ground set a family can have
    split = GroundSplit.for_n(n)
    planner = MeasuredCostPlanner()
    for s1 in range(split.h1 + 1):
        for s2 in range(split.h2 + 1):
            assert planner.select(split, s1, s2) == (s1, s2)


@pytest.mark.parametrize("n", range(1, 11))
def test_store_brackets_equal_the_dense_doubling(n):
    # every cover batch is marked as superset rows, and its operands from
    # the store equal, entry for entry, the dense doubling of each of its
    # blocks (which is what a build without a store gives)
    split = GroundSplit.for_n(n)
    for ring in (PrimeField(), PrimeField(101), CountingRing(PrimeField())):
        fam = ArrayFamily.of(random_family(ring, n, seed=n))
        store = BracketStore(fam, split)
        for step in _cover_plan(split):
            assert isinstance(step, SupersetProduct)
            for part, rows in ((1, step.rows1), (2, step.rows2)):
                got = build_submatrix(fam, split, part, rows, step.cols, store)
                assert got.entries.dtype == fam.form.dtype
                assert got.cols.tolist() == step.cols.ravel().tolist()
                for k in range(len(rows)):
                    want = build_submatrix(fam, split, part, rows[k, None], step.cols[k, None])
                    assert got.rows[:, k].tolist() == want.rows[:, 0].tolist()
                    assert got.entries[k].tolist() == want.entries[0].tolist()
        assert store.tables


def test_the_store_builds_each_table_once_in_any_order(monkeypatch):
    # one chunked pass per half over every column builds all of its
    # tables, whether the plan's steps come s1-major or shuffled
    n = 9
    split = GroundSplit.for_n(n)
    fam = random_family(PrimeField(), n, seed=4)
    passes = []
    chunks = mst._chunks

    def counting(form, values, cols, bits):
        passes.append((cols.tolist(), bits))
        return chunks(form, values, cols, bits)

    monkeypatch.setattr(mst, "_chunks", counting)
    halves = [(list(range(1 << n)), range(split.h1)), (list(range(1 << n)), range(split.h1, n))]
    default = PipelineStats()
    want = run_transform("cover", fam, stats=default).values
    assert passes == halves
    steps = list(_cover_plan(split))
    random.Random(9).shuffle(steps)
    passes.clear()
    stats = PipelineStats()
    assert _execute(fam, split, steps, None, stats).values == want
    assert stats == default
    assert passes == halves


@pytest.mark.parametrize("n", range(11))
def test_the_store_holds_every_superset_bracket_after_a_run(monkeypatch, n):
    split = GroundSplit.for_n(n)
    stores = []

    class Recording(BracketStore):
        def __init__(self, *args):
            super().__init__(*args)
            stores.append(self)

    monkeypatch.setattr(mst, "BracketStore", Recording)
    run_transform("cover", random_family(PrimeField(), n, seed=n))
    (store,) = stores
    assert sorted(store.tables) == [(1, s) for s in range(split.h1 + 1)] + [
        (2, s) for s in range(split.h2 + 1)]
    held = sum(table.size for table in store.tables.values())
    assert held == 3**split.h1 * 2**split.h2 + 2**split.h1 * 3**split.h2


def test_cover_builds_each_superset_bracket_once(monkeypatch):
    # two builds per product, 3^h1 2^h2 + 2^h1 3^h2 entries (as many as
    # the store computes), and CountingRing multiplications of the kernel's
    # 3^n plus, per half, each column's root and its doubling
    n = 8
    split = GroundSplit.for_n(n)
    builds = []
    build = mst.build_submatrix

    def recording(*args, **kwargs):
        sub = build(*args, **kwargs)
        builds.append(len(sub.rows) * len(sub.cols))
        return sub

    monkeypatch.setattr(mst, "build_submatrix", recording)
    counter = OpCounter()
    fam = random_family(CountingRing(PrimeField(), counter), n, seed=n)
    counter.reset()
    run_transform("cover", fam)
    (h1, h2), products = (split.h1, split.h2), sum(1 for _ in _cover_plan(split))
    assert len(builds) == 2 * products
    assert sum(builds) == 3**h1 * 2**h2 + 2**h1 * 3**h2
    roots = (2 ** (n - 1)) * n  # sum over S of |S_1| + |S_2|
    doubling = sum(2**h_o * 3**h_p - 2**n for h_p, h_o in ((h1, h2), (h2, h1)))
    assert counter.muls == 3**n + roots + doubling


def test_superset_rows_are_cached_read_only():
    design = greedy_cover(5, 2, 2)
    blocks = _superset_rows(design, 3)
    assert _superset_rows(design, 3) is blocks
    assert [a.shape for a in blocks] == [(comb(5, 2),), (comb(5, 2), 1 << 3)]
    for array in blocks:
        with pytest.raises(ValueError):
            array[0] = 0


def test_cover_plans_repeat_element_for_element():
    # the cached superset rows give every run the same batches, also after
    # a run of the executor has read them
    split = GroundSplit.for_n(10)
    first = list(_cover_plan(split))
    run_transform("cover", random_family(PrimeField(), 10, seed=1))
    second = list(_cover_plan(split))
    assert len(first) == len(second)
    for a, b in zip(first, second):
        for name in ("rows1", "cols", "rows2"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype == np.int64 and x.shape == y.shape
            assert np.array_equal(x, y)


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
    g = run_transform("rows-columns", fam)
    assert g.values[0] == modp.one  # empty T keeps the empty product
    assert all(v == modp.zero for v in g.values[1:])


def test_cover_f64_bit_reproducible():
    ring = make_ring("f64")
    fam = random_family(ring, 7, seed=19)
    first = run_transform("cover", fam)
    second = run_transform("cover", fam)
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
    run_transform("rows-columns", random_family(modp, n, seed=n), stats=stats)
    assert stats.rmm_muls == rows1 * len(small) * rows2
    assert stats.columns_processed == len(small)


def test_columns_reference_counts_n10(modp):
    # s0 = floor(0.3642 * 10) = 3; one product of 2^5 x 176 x 2^5
    fam = random_family(modp, 10, seed=10)
    stats = PipelineStats()
    run_transform("columns", fam, sigma=0.3642, backend=ClassicalBackend(), stats=stats)
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
