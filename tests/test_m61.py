"""The uint64 form of PrimeField(2^61 - 1): exact arithmetic, and agreement
with the object form (over CountingRing) and with the naive oracle."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import multisubset
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
    mst_naive,
    run_transform,
    sum_acyclic_digraphs,
    tian_he_sum,
)
from multisubset import arrays, m61, mst
from multisubset.arrays import ArrayFamily
from multisubset.bitops import bits_of
from multisubset.mst import (
    GroundSplit,
    _direct_scan,
    build_submatrix,
    row_thresholds,
    scan_cut,
)
from multisubset.setfn import MAX_GROUND_SET

from helpers import masks, random_family

P = MERSENNE61
# the ends of m61.mul's 31/30-bit halves, of 32-bit halves, and of [0, p)
EXTREMES = [0, 1, 2**30 - 1, 2**30, 2**31 - 1, 2**31, 2**32 - 1, 2**32, P - 1]
ARRAY_ALGOS = ("columns", "rows-columns", "cover")


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


_residues = st.sampled_from(EXTREMES) | st.integers(0, P - 1)


@settings(max_examples=50, deadline=None)
@given(
    xs=st.lists(_residues, min_size=1, max_size=12),
    ys=st.lists(_residues, min_size=1, max_size=12),
    m=st.integers(1, 3),
)
def test_mul_in_the_three_shapes_the_executor_uses(xs, ys, m):
    # equal shapes; a table times a broadcast row into `out`, as
    # mst._doubled uses it; cover's (m, r1, 1) x (m, 1, r2) outer product
    rows = [[(x + k * y) % P for y in ys] for k, x in enumerate(xs)]
    assert m61.mul(u64(rows), u64(rows)).tolist() == [[v * v % P for v in vals] for vals in rows]
    out = np.empty((len(xs), len(ys)), dtype=np.uint64)
    assert m61.mul(u64(rows), u64(ys), out=out) is out
    assert out.tolist() == [[v * y % P for v, y in zip(vals, ys)] for vals in rows]
    a = u64([[[x] for x in xs]] * m)
    b = u64([[ys]] * m)
    assert m61.mul(a, b).tolist() == [[[x * y % P for y in ys] for x in xs]] * m


def test_shift_is_multiplication_by_a_power_of_two():
    xs = EXTREMES + [random.Random(s).randrange(P) for s in range(20)]
    for s in range(61):
        assert m61.shift(u64(xs), s).tolist() == [x * 2**s % P for x in xs]


def _python_product(a, b):
    return [[sum(x * y for x, y in zip(arow, brow)) % P for brow in b] for arow in a]


# one column (an outer product), part of a chunk, and full chunks with or
# without a partial one after them
@pytest.mark.parametrize("cols", [1, 128, 389, m61.KERNEL_CHUNK_COLUMNS,
                                  3 * m61.KERNEL_CHUNK_COLUMNS + 5])
def test_kernel_with_every_entry_p_minus_1(cols):
    a = [[P - 1] * cols for _ in range(3)]
    b = [[P - 1] * cols for _ in range(2)]
    assert m61.product(u64([a]), u64([b])).tolist() == [_python_product(a, b)]


def test_kernel_chunk_and_fold_bounds_keep_the_sums_exact():
    # a chunk's float64 block entries: columns of limb products below 2^42
    assert m61.KERNEL_CHUNK_COLUMNS <= 2**11
    # a folded degree sum plus three such products per column until the next fold
    assert P + m61.KERNEL_FOLD_COLUMNS * 3 * (2**21 - 1) ** 2 < 2**64
    # a run's sums per index (m61.Sums): a T gets at most one term per
    # column S inside it, 2^25 for a DAG round over MAX_GROUND_SET + 1
    # elements, and each 32-bit half of a term sums in uint64
    assert 2 ** (MAX_GROUND_SET + 1) * (2**32 - 1) < 2**64


def test_sums_with_2_to_the_20_terms_of_p_minus_1_on_one_index():
    # the worst case for one index, next to a random spread over the rest
    rng = np.random.default_rng(20)
    size, spread = 1 << 10, 5000
    idx = np.concatenate([np.full(2**20, 7), rng.integers(0, size, spread)])
    vals = np.concatenate([np.full(2**20, P - 1, dtype=np.uint64),
                           rng.integers(0, P, spread, dtype=np.uint64)])
    want = [0] * size
    for i, v in zip(idx.tolist(), vals.tolist()):
        want[i] += v
    want = [w % P for w in want]
    sums = m61.sums(size)
    for at in range(0, len(idx), 1 << 16):  # as a run's steps add them
        sums.add_at(idx[at:at + (1 << 16)], vals[at:at + (1 << 16)])
    assert sums.table().tolist() == want
    objects = arrays.ObjectForm(PrimeField(P)).sums(size)
    objects.add_at(idx, np.array(vals.tolist(), dtype=object))
    assert objects.table().tolist() == want


def test_sums_read_again_and_added_to_after_a_read():
    # a read leaves the sums as they were: reading again, or adding more
    # terms and reading, gives the sums so far on both forms; after a read
    # the uint64 halves are below p, so 2^31 more terms stay below 2^64
    assert P + 2**31 * (2**32 - 1) < 2**64
    first = ([0, 1, 1, 3], [P - 1, 5, 2**40 + 7, 123456789012345])
    second = ([1, 2, 3, 1], [P - 2, 2**33 + 1, 9, 2**60])
    want = [0] * 4
    reads = []
    for idx, vals in (first, second):
        for i, v in zip(idx, vals):
            want[i] = (want[i] + v) % P
        reads.append(list(want))
    assert reads[0][1] == 1099511627788
    for sums, array in ((m61.sums(4), lambda v: np.array(v, dtype=np.uint64)),
                        (arrays.ObjectForm(PrimeField(P)).sums(4),
                         lambda v: np.array(v, dtype=object))):
        got = []
        for idx, vals in (first, second):
            sums.add_at(np.array(idx), array(vals))
            got.append(sums.table().tolist())
            got.append(sums.table().tolist())
        assert got == [reads[0], reads[0], reads[1], reads[1]]


def test_kernel_with_every_entry_p_minus_1_at_a_chunk_of_2_to_the_11(monkeypatch):
    # two full chunks; 2^42 - 1 has both low limbs at their largest
    monkeypatch.setattr(m61, "KERNEL_CHUNK_COLUMNS", 2**11)
    cols = 2 * 2**11
    a = [[P - 1] * cols, [2**42 - 1] * cols, [P - 1] * cols]
    b = [[P - 1] * cols, [2**42 - 1] * cols]
    assert m61.product(u64([a]), u64([b])).tolist() == [_python_product(a, b)]


def test_kernel_folds_its_degree_sums_every_chunk(monkeypatch):
    folds = []
    fold = m61.fold

    def counting(x):
        folds.append(x.shape)
        return fold(x)

    monkeypatch.setattr(m61, "fold", counting)
    monkeypatch.setattr(m61, "KERNEL_FOLD_COLUMNS", m61.KERNEL_CHUNK_COLUMNS)
    m, r1, r2, cols = 2, 3, 4, 3 * m61.KERNEL_CHUNK_COLUMNS + 5
    a, b = _random_batch(11, m, r1, r2, cols)
    assert m61.product(u64(a), u64(b)).tolist() == [_python_product(a[k], b[k]) for k in range(m)]
    assert folds.count((5, m, r1, r2)) == 3


def test_kernel_sums_past_the_uint64_range_of_one_fold(monkeypatch):
    # 3 * 2^20 columns of p - 1: unfolded, the degree-2 sums (about 1.5 * 2^42
    # per column) would pass 2^64; (p - 1)^2 = 1 (mod p)
    monkeypatch.setattr(m61, "KERNEL_CHUNK_COLUMNS", 2**11)
    cols = 3 << 20
    a = np.broadcast_to(u64([P - 1]), (1, 1, cols))
    assert m61.product(a, a).tolist() == [[[cols % P]]]


def test_kernel_random_entries_and_counts():
    rng = random.Random(4)
    cols = list(range(2 * m61.KERNEL_CHUNK_COLUMNS + 17))
    a = [[rng.choice(EXTREMES + [rng.randrange(P)]) for _ in cols] for _ in range(5)]
    b = [[rng.choice(EXTREMES + [rng.randrange(P)]) for _ in cols] for _ in range(4)]
    stats = PipelineStats()
    out = ClassicalBackend().multiply(
        PrimeField(), SubMatrix(list(range(5)), cols, u64([a])),
        SubMatrix(list(range(4)), cols, u64([b])), stats,
    )
    assert out.tolist() == [_python_product(a, b)]
    assert stats.rmm_muls == 5 * len(cols) * 4


def _random_batch(seed, m, r1, r2, cols):
    """(m, r1, cols) and (m, r2, cols) nested lists of extreme and random entries."""
    rng = random.Random(seed)
    return [[[[rng.choice(EXTREMES + [rng.randrange(P)]) for _ in range(cols)]
              for _ in range(r)] for _ in range(m)] for r in (r1, r2)]


# one column, part of a chunk, and a chunk and 3 columns
@pytest.mark.parametrize("cols", [1, 131, m61.KERNEL_CHUNK_COLUMNS + 3])
def test_batched_kernel_matches_block_by_block(cols):
    m, r1, r2 = 5, 3, 4
    a, b = _random_batch(cols, m, r1, r2, cols)
    out = m61.product(u64(a), u64(b))
    assert out.shape == (m, r1, r2)
    assert out.tolist() == [_python_product(a[k], b[k]) for k in range(m)]


def test_kernel_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    calls = m61._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count functions")
    get, set_ = calls
    during = []
    matmul = np.matmul

    def recording(*args, **kwargs):
        during.append(get())
        return matmul(*args, **kwargs)

    a, b = _random_batch(9, 3, 4, 2, 2 * m61.KERNEL_CHUNK_COLUMNS + 1)
    original = get()
    monkeypatch.setattr(np, "matmul", recording)
    try:
        for before in (2, 1):
            set_(before)
            during.clear()
            out = m61.product(u64(a), u64(b))
            assert get() == before
            assert during and set(during) == {1}
            assert out.tolist() == [_python_product(a[k], b[k]) for k in range(3)]
    finally:
        set_(original)


def test_kernel_without_the_thread_calls_is_unchanged(monkeypatch):
    monkeypatch.setattr(m61, "_blas_thread_calls", lambda: None)
    a, b = _random_batch(10, 4, 3, 5, m61.KERNEL_CHUNK_COLUMNS + 9)
    assert m61.product(u64(a), u64(b)).tolist() == [_python_product(a[k], b[k]) for k in range(4)]


def test_kernel_rejects_arrays_over_another_ring():
    a = SubMatrix([0], [0], u64([[[1]]]))
    with pytest.raises(ValueError):
        ClassicalBackend().multiply(PrimeField(101), a, a)
    with pytest.raises(ValueError):
        SubMatrix([0, 1], [0], u64([[[1]]]))


def test_bracket_matrix_array_form(modp):
    # the uint64 form against the object form over the same values
    split = GroundSplit.for_n(7)
    uint64 = ArrayFamily.of(random_family(modp, 7, seed=12))
    objects = ArrayFamily.of(random_family(CountingRing(modp), 7, seed=12))
    cols = masks([[m for m in range(1 << 7) if m % 5 != 1]])
    for part, rows in ((1, [0, 3, 5, 15, 6]), (2, [0, 0b10000, 0b1110000, 0b1010000])):
        want = build_submatrix(objects, split, part, masks([rows]), cols)
        got = build_submatrix(uint64, split, part, masks([rows]), cols)
        assert (got.entries.dtype, want.entries.dtype) == (np.uint64, object)
        assert got.rows.tolist() == want.rows.tolist() == [[r] for r in rows]
        assert got.cols.tolist() == want.cols.tolist() == cols[0].tolist()
        assert got.entries.tolist() == want.entries.tolist()


def test_chunked_bracket_matches_the_object_form(modp, monkeypatch):
    # one block on the uint64 form, its columns cut into chunks, against
    # the object form in one chunk
    split = GroundSplit.for_n(7)
    uint64 = ArrayFamily.of(random_family(modp, 7, seed=5))
    objects = ArrayFamily.of(random_family(CountingRing(modp), 7, seed=5))
    blocks = {1: ([0, 3, 5, 7, 1, 6, 2, 2, 15], [1, 6, 3, 9, 127, 0, 5, 5]),
              2: ([0, 0b10000, 0b1110000, 0b1010000], [33, 64, 80, 17, 127, 0, 96])}
    want = {part: build_submatrix(objects, split, part, masks([rows]), masks([cols]))
            for part, (rows, cols) in blocks.items()}
    # 48 entries: chunks of 3 columns of the 16-row part-1 table; 24
    # entries: chunks of 3 columns of the 8-row part 2
    for entries in (48, 24):
        monkeypatch.setattr(mst, "CHUNK_ENTRIES", entries)
        for part, (rows, cols) in blocks.items():
            got = build_submatrix(uint64, split, part, masks([rows]), masks([cols]))
            assert got.entries.shape == (1, len(rows), len(cols))
            assert got.rows.tolist() == want[part].rows.tolist() == [[r] for r in rows]
            assert got.cols.tolist() == want[part].cols.tolist() == cols
            assert got.entries.tolist() == want[part].entries.tolist()


def test_bracket_build_without_a_store_takes_one_block(modp):
    split = GroundSplit.for_n(7)
    uint64 = ArrayFamily.of(random_family(modp, 7, seed=5))
    with pytest.raises(ValueError):
        build_submatrix(uint64, split, 1, masks([[0, 3], [7, 1]]), masks([[1], [3]]))
    with pytest.raises(ValueError):
        build_submatrix(uint64, split, 1, masks(np.zeros((0, 2))), masks(np.zeros((0, 1))))


def test_bracket_rows_outside_the_part_are_rejected(modp):
    split = GroundSplit.for_n(7)
    uint64 = ArrayFamily.of(random_family(modp, 7, seed=5))
    with pytest.raises(ValueError):
        build_submatrix(uint64, split, 1, masks([[1, 0b10000000]]), masks([[0]]))
    with pytest.raises(ValueError):
        build_submatrix(uint64, split, 2, masks([[0b0001]]), masks([[0]]))


def _both_forms(algo, n, seed, sigma=None, tau=None):
    """(table, stats) on the uint64 form and on the object form (CountingRing)."""
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
            (arr, arr_stats), (obj, obj_stats) = _both_forms(algo, n, seed)
            assert arr == obj
            assert arr_stats == obj_stats
            if naive is not None:
                assert arr == naive


def test_chunk_sizes_and_folds_do_not_change_the_table(monkeypatch):
    # tiny chunks: many kernel chunks and a fold after each; build chunks of
    # 5 columns, and of one column when a half has more rows than the entry
    # bound; scan and store chunks of one bit count, a column whose table is
    # larger than the cap being a chunk of its own
    scans = []  # per chunked call: (bit counts, columns, table entries) of each chunk
    chunks_of = mst._chunks

    def recording(form, values, cols, bits):
        scans.append([])
        mask = sum(1 << b for b in bits)
        for c0, c1, roots, free in chunks_of(form, values, cols, bits):
            counts = set(np.bitwise_count(cols[c0:c1] & mask).tolist())
            scans[-1].append((counts, c1 - c0, (c1 - c0) << len(free)))
            yield c0, c1, roots, free

    monkeypatch.setattr(mst, "_chunks", recording)
    monkeypatch.setattr(m61, "KERNEL_CHUNK_COLUMNS", 7)
    monkeypatch.setattr(m61, "KERNEL_FOLD_COLUMNS", 7)
    naive = mst_naive(random_family(PrimeField(), 8, 3)).values
    for entries in (5 << 4, 4):
        monkeypatch.setattr(mst, "CHUNK_ENTRIES", entries)
        scans.clear()
        for algo in ARRAY_ALGOS:
            (arr, arr_stats), (obj, obj_stats) = _both_forms(algo, 8, 3)
            assert arr == obj == naive
            assert arr_stats == obj_stats
        chunks = [chunk for scan in scans for chunk in scan]
        assert all(len(pops) == 1 for pops, _, _ in chunks)
        assert all(table <= entries for _, width, table in chunks if width > 1)
        assert any(width == 1 and table > entries for _, width, table in chunks)
        assert any(sum(pops == {p} for pops, _, _ in scan) > 1 for scan in scans for p in range(9))


@st.composite
def _scan_case(draw):
    """n, seed, distinct column masks (the empty and the full set among them
    when drawn) and row thresholds from a tau inside its interval, or None."""
    n = draw(st.integers(0, 10))
    full = (1 << n) - 1
    cols = draw(st.lists(st.integers(0, full), unique=True, max_size=150))
    for end in draw(st.sets(st.sampled_from([0, full]))):
        if end not in cols:
            cols.insert(draw(st.integers(0, len(cols))), end)
    tau = draw(st.none() | st.floats(1 / 2, 2 / 3, exclude_min=True, exclude_max=True))
    thresholds = None if tau is None else row_thresholds(GroundSplit.for_n(n), tau)
    return n, draw(st.integers(0, 10**6)), cols, thresholds


def _scan_by_definition(fam, cols, cut):
    """(table, pairs) of the scan by its definition: g[T] += prod_{i in T}
    f_i(S) for each uncut column S and each uncut superset T of S."""
    ring, members, full = fam.ring, [m.values for m in fam.members], (1 << fam.n) - 1
    g, pairs = [ring.zero] * (1 << fam.n), 0
    for s in cols:
        free = sub = full & ~s
        while True:
            t = s | sub
            if cut is None or not cut[t]:
                prod = ring.one
                for i in bits_of(t):
                    prod = ring.mul(prod, members[i][s])
                g[t] = ring.add(g[t], prod)
                pairs += 1
            if sub == 0:
                break
            sub = (sub - 1) & free
    return g, pairs


@settings(max_examples=60, deadline=None)
@given(_scan_case())
def test_superset_scan_on_both_forms_matches_its_definition(case):
    # both forms against the scan's definition
    n, seed, cols, thresholds = case
    split = GroundSplit.for_n(n)
    cut = None if thresholds is None else scan_cut(split, thresholds)
    want, want_pairs = _scan_by_definition(random_family(PrimeField(), n, seed), cols, cut)
    for ring in (PrimeField(), CountingRing(PrimeField())):
        fam = ArrayFamily.of(random_family(ring, n, seed))
        stats, sums = PipelineStats(), fam.form.sums(1 << n)
        _direct_scan(fam, masks(cols), sums, stats, split, thresholds)
        assert stats.pair_iterations == want_pairs
        assert sums.table().tolist() == want


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
        (arr, arr_stats), (obj, obj_stats) = _both_forms(algo, n, seed, sigma, t)
        assert arr == obj == naive
        assert arr_stats == obj_stats


def _random_weights(ring, n, seed):
    rng = random.Random(seed)
    weights = [
        SetFunction(ring, n, [0 if (m >> i) & 1 else rng.randrange(P) for m in range(1 << n)])
        for i in range(n)
    ]
    return WeightSystem(ring, n, weights)


@pytest.mark.parametrize("n", range(1, 9))
def test_array_path_dag_tables_equal_tian_he(n):
    wsys = _random_weights(PrimeField(), n, n)
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
    assert m61.from_rows([odd]).tolist() == [[v % P for v in odd]]


def test_batch_cap_below_one_product_does_not_change_the_table(monkeypatch):
    # every product a batch of its own
    monkeypatch.setattr(mst, "BATCH_OUTPUT_ENTRIES", 1)
    for n in (5, 8):
        (arr, arr_stats), (obj, obj_stats) = _both_forms("cover", n, 7)
        assert arr == obj
        assert arr_stats == obj_stats


class _EntryTypes(ClassicalBackend):
    def __init__(self):
        self.seen = set()

    def multiply(self, ring, a, b, stats=None):
        self.seen.add(a.entries.dtype)
        return super().multiply(ring, a, b, stats)


@pytest.mark.parametrize("algo,ring,uint64", [
    ("columns", PrimeField(), True),
    ("rows-columns", PrimeField(), True),
    ("cover", PrimeField(), True),
    ("columns", CountingRing(PrimeField()), False),
    ("columns", PrimeField(101), False),
    ("naive", PrimeField(), False),
])
def test_which_runs_take_the_array_path(algo, ring, uint64):
    # which element form each run multiplies in (naive multiplies none);
    # an ArrayFamily runs as it is, and naive rejects it
    backend = _EntryTypes()
    fam = random_family(ring, 5, seed=1)
    g = run_transform(algo, fam, backend=backend)
    form = {np.dtype(np.uint64 if uint64 else object)}
    assert backend.seen == (form if algo != "naive" else set())
    assert all(type(v) is int for v in g.values)
    given = ArrayFamily.of(fam)
    if algo == "naive":
        with pytest.raises(ValueError):
            run_transform(algo, given)
        return
    backend = _EntryTypes()
    assert run_transform(algo, given, backend=backend).values == g.values
    assert backend.seen == form


@settings(max_examples=12, deadline=None)
@given(n=st.integers(0, 8), seed=st.integers(0, 10**6))
def test_dag_uint64_route_matches_the_object_route(n, seed):
    # the same weights over PrimeField (uint64 arrays from the weights to
    # the last round) and over CountingRing(PrimeField()) (object arrays)
    arr_wsys = _random_weights(PrimeField(), n, seed)
    obj_wsys = _random_weights(CountingRing(PrimeField()), n, seed)
    expected = tian_he_sum(arr_wsys).a
    for algo in ARRAY_ALGOS:
        arr_stats, obj_stats = PipelineStats(), PipelineStats()
        arr = sum_acyclic_digraphs(arr_wsys, algo, stats=arr_stats).a
        obj = sum_acyclic_digraphs(obj_wsys, algo, stats=obj_stats).a
        assert arr == obj == expected
        assert arr_stats == obj_stats


@pytest.mark.skipif(not m61.HEAP_TOP_PADDED, reason="no glibc mallopt to keep freed heap")
@pytest.mark.parametrize("algo", ["columns", "rows-columns"])
def test_steady_state_calls_fault_no_heap_pages_back_in(algo):
    resource = pytest.importorskip("resource")
    fam = random_family(PrimeField(), 12, seed=2)
    run_transform(algo, fam)  # warm-up: the heap grows to the call's working set
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_transform(algo, fam)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_object_form_runs_never_import_m61():
    # m61 sets malloc options on import, so runs over other rings must not load it
    code = """
import sys
from multisubset import CountingRing, PrimeField, run_transform, sum_acyclic_digraphs
from multisubset.jsonio import generate_family, generate_weight_system
run_transform("naive", generate_family(5, PrimeField(), 1))
for ring in (CountingRing(PrimeField()), PrimeField(101)):
    for algo in ("naive", "columns", "rows-columns", "cover"):
        run_transform(algo, generate_family(5, ring, 1))
        sum_acyclic_digraphs(generate_weight_system(4, ring, 1), algo)
print("multisubset.m61" in sys.modules)
"""
    src = str(Path(multisubset.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
