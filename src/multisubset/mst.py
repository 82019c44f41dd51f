"""Multi-subset transform of a family of set functions.

Given f_1, ..., f_n on subsets of {0, ..., n-1}, the transform is

    g(T) = sum over S subseteq T of ( prod over i in T of f_i(S) ).

`mst_naive` evaluates the definition directly.  The three fast variants
route all or part of the work through rectangular matrix multiplication
after splitting the ground set in half: each (T, S) term factors as a
product of a part-1 bracket and a part-2 bracket, so summing over a set
of columns S is a rectangular product between the two bracket matrices.

Each fast variant is a plan: an ordered sequence of steps that one
executor runs into a single output table.  A `Product` step is a batch
of m rectangular products of one shape, held as int64 arrays: each adds
the terms of its columns to every cell T1 | T2 of its row lists; a
`Scan` step adds the terms of its columns to every superset T by a
direct scan, optionally skipping the pairs a trimmed product covers.

`run_transform` is the one entry point: `check_algorithm` resolves the
algorithm's sigma and tau, and `_plan` builds its steps.

The executor runs every fast plan on numpy arrays, for every ring: the
members become one array of the ring's element form (`arrays.ArrayFamily`,
or arrive as one, as the DAG rounds hand them over).  Exactly
`PrimeField(2^61 - 1)` takes the uint64 form (`m61`: arithmetic mod p,
and a kernel through float64 BLAS); every other ring the object form,
whose operations call the ring's own methods, so `CountingRing` counts
them.  The bracket build, the scatter and the direct scan below are
written once against the form's operations.  The plan batches itself:
`cover` emits its thousands of one-column products as a few batches of
one shape, so they pay numpy's per-call overhead once per batch, not
once each.  `naive` stays on lists: it is the oracle the fast plans are
checked against, and the control that no array kernel touches.

* `columns` sends every column of popcount <= floor(sigma*n) through one
  big rectangular multiplication and finishes the large columns by a
  direct superset scan.
* `rows-columns` additionally trims the matrix rows: the product is only
  taken over row halves larger than a threshold, and the remaining
  (small-row, small-column) pairs are folded into the direct scan.
* `cover` gives each column its own product, between the part
  supersets of its two halves, the blocks of (h, s, s) covering
  designs: wider blocks would pay only under a fast rectangular kernel.

Every table the executor fills comes from one doubling loop
(`_doubled`): a column's products over the supersets of a fixed set, or
their masks, each one factor or bit away from a smaller one.  The
bracket build works in one of two ways.  A `SupersetProduct`, every
step of `cover`'s plan, needs only its rows' brackets: they come from a
`BracketStore`, built once per run by doubling each column's root over
its part's free bits, as the direct scan does over all free bits.  The
one product of `columns` and of `rows-columns` doubles over every
subset of the half, per column chunk, and picks its rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .bitops import bits_of
from .cover import greedy_cover
from .rmm import ClassicalBackend, RmmBackend, SubMatrix
from .setfn import Family, SetFunction

# Optimized column-fraction for the plain columns algorithm, and the
# (row, column) fractions for the row-trimmed variant.  See analysis.py
# for the optimization that produces them.
COLUMNS_SIGMA = 0.3642045
ROWS_COLUMNS_TAU = 0.59777
ROWS_COLUMNS_SIGMA = 0.38185
# The open intervals sigma and tau must lie in, here and in the analysis.
SIGMA_INTERVAL = (1.0 / 3.0, 1.0 / 2.0)
TAU_INTERVAL = (1.0 / 2.0, 2.0 / 3.0)

ALGORITHMS = ("naive", "columns", "rows-columns", "cover")
# Entries of a doubled table per column chunk: 2^f rows, for f bits doubled
# over, times the chunk's columns (a column with a larger table is a chunk
# of its own).  Below 2^21 columns per chunk, the uint64 form's scan sums
# stay exact.
CHUNK_ENTRIES = 1 << 16
# Entries a `BracketStore` holds at once (8 MiB on the uint64 form; a
# run at n <= 14 fits whole).  A table that would pass it is never built:
# its batches double over their own columns instead.
STORE_ENTRIES = 1 << 20
# Output entries per batch of equal-shape cover products (a larger product
# is a batch of its own).  Below 2^21 blocks per batch, the uint64 form's
# scatter sums stay exact.
BATCH_OUTPUT_ENTRIES = 1 << 14


@dataclass(frozen=True)
class GroundSplit:
    """Halving of the ground set: part 1 = low bits, part 2 = high bits."""

    n: int
    h1: int

    @classmethod
    def for_n(cls, n: int) -> "GroundSplit":
        return cls(n, (n + 1) // 2)

    @property
    def h2(self) -> int:
        return self.n - self.h1

    @property
    def u1_mask(self) -> int:
        return (1 << self.h1) - 1

    @property
    def u2_mask(self) -> int:
        return ((1 << self.n) - 1) ^ self.u1_mask


@dataclass
class PipelineStats:
    """Structural work counters (not ring operations; see CountingRing)."""

    pair_iterations: int = 0
    rmm_muls: int = 0
    columns_processed: int = 0


@dataclass
class Product:
    """Plan step: a batch of m rectangular products of one shape.

    rows1 (m, r1), cols (m, c) and rows2 (m, r2) are int64 mask arrays;
    product k adds the terms of cols[k] at every T1 | T2 with T1 in
    rows1[k] and T2 in rows2[k].  Each (T1 | T2, S) pair is summed once,
    so a plan must not give it to another product or step too.  The
    executor runs a plain Product of one block (m = 1); batches are
    `SupersetProduct`s.
    """

    rows1: object
    cols: object
    rows2: object


class SupersetProduct(Product):
    """A Product whose blocks each have one column, all with the same part
    sizes, and as rows all the part supersets of that column, ascending:
    every step of `cover`'s plan.  The executor builds their brackets
    from the run's `BracketStore`.
    """


@dataclass
class Scan:
    """Plan step: the terms of cols (1-D, int64) at every superset T by the
    direct scan.  With thresholds (t1, t2), every T with more than t1
    part-1 and more than t2 part-2 elements is skipped (a trimmed product
    covers it).
    """

    cols: object
    thresholds: tuple[int, int] | None = None


def _guarded_floor(x: float) -> int:
    # floor() after nudging past float error, so e.g. 0.6 * 5 lands on 3.
    return math.floor(x + 1e-9)


def require_open(value: float, interval: tuple[float, float], name: str) -> None:
    lo, hi = interval
    if not (lo < value < hi):
        raise ValueError(f"{name} must lie strictly between {lo:.4g} and {hi:.4g}")


def naive_at(fam: Family, targets, stats: PipelineStats | None = None) -> list:
    """g(T) for each T in targets, by the definition (2^|T| pairs each)."""
    ring = fam.ring
    members = [m.values for m in fam.members]
    add, mul = ring.add, ring.mul
    one = ring.one
    out = []
    pairs = 0
    for t_mask in targets:
        bits = bits_of(t_mask)
        acc = ring.zero
        s_mask = t_mask
        while True:
            prod = one
            for i in bits:
                prod = mul(prod, members[i][s_mask])
            acc = add(acc, prod)
            pairs += 1
            if s_mask == 0:
                break
            s_mask = (s_mask - 1) & t_mask
        out.append(acc)
    if stats is not None:
        stats.pair_iterations += pairs
    return out


def mst_naive(fam: Family, stats: PipelineStats | None = None) -> SetFunction:
    """Direct evaluation over all 3^n (T, S subseteq T) pairs."""
    return SetFunction(fam.ring, fam.n, naive_at(fam, range(1 << fam.n), stats))


def build_submatrix(fam, split: GroundSplit, part: int, rows, cols, store=None) -> SubMatrix:
    """Bracket matrices of a batch of m blocks on one half of the split.

    `fam` is an `arrays.ArrayFamily`; `rows` is an (m, r) int64 array of
    masks within part p of the ground set, `cols` an (m, c) one.  Entry
    (k, i, j) of the (m, r, c) array is prod over i' in T_p of f_i'(S)
    for T_p = rows[k, i] and S = cols[k, j] when S's part-p bits lie
    inside T_p, and zero otherwise (the bracket).  The row labels are the
    (r, m) array whose row i holds the i-th rows of the m blocks and the
    column labels the m blocks' columns concatenated, so that
    len(rows) * len(cols) counts the entries.

    Given the run's `BracketStore`, the batch is a `SupersetProduct`'s:
    each block has one column, all with s part-p bits, and as rows all
    2^(h_p - s) part supersets of that column, ascending.  Their brackets
    come from the store, each computed once per run.  A batch of another
    shape raises ValueError; its rows' masks are not checked.  Without a
    store the batch is one block (the one product of `columns` and of
    `rows-columns`; ValueError otherwise): per column chunk (at most
    CHUNK_ENTRIES table entries), the products of every subset of the
    half come from doubling (`_doubled`: subset U + {b} is subset U times
    f_b), the block's rows are picked, and the entries whose column has
    half bits outside the row are zeroed.
    """
    import numpy as np

    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    part_mask = split.u1_mask if part == 1 else split.u2_mask
    outside_part = rows[(rows & ~part_mask) != 0]
    if outside_part.size:
        raise ValueError(f"row mask {int(outside_part[0]):#x} is not within part {part}")
    first_bit, h = (0, split.h1) if part == 1 else (split.h1, split.h2)
    (m, r), c = rows.shape, cols.shape[1]
    if store is not None:
        sizes = np.bitwise_count(cols[:, 0] & part_mask) if m and c == 1 else None
        if sizes is None or (sizes != sizes[0]).any() or r != 1 << (h - int(sizes[0])):
            raise ValueError("a store builds blocks of one column each, of one part size s, "
                             "with 2^(h_p - s) rows")
        col = cols[:, 0]
        return SubMatrix(rows.T, col, store.brackets(part, col, int(sizes[0]))[:, :, None])
    if m != 1:
        raise ValueError(f"a build without a store takes one block, not {m}")
    form = fam.form
    local, col = rows[0] >> first_bit, cols[0]
    out = np.empty((1, r, c), dtype=form.dtype)
    width = max(1, CHUNK_ENTRIES >> h)
    ones = np.full(min(c, width), form.one, dtype=form.dtype)
    for c0 in range(0, c, width):
        chunk = col[c0:c0 + width]
        w = len(chunk)
        table = _doubled(form.mul, ones[:w], fam.values[first_bit:first_bit + h, chunk])
        entries = out[0, :, c0:c0 + w]
        np.take(table, local, axis=0, out=entries)
        entries[(chunk & part_mask) & ~rows[0, :, None] != 0] = form.zero
    return SubMatrix(rows.T, col, out)


def _doubled(op, roots, factors):
    """(2^f, c) table doubled from c roots over f rows of factors (f, c):
    row 0 holds the roots, and step q applies op to rows [0, 2^q) and
    factors[q] into rows [2^q, 2^(q+1)), so row j combines each root
    with the factors of j's set bits.  With the form's mul over a
    column's free factors, ascending, the rows are the products of its
    supersets in ascending order; with np.bitwise_or over the free bits,
    their masks."""
    import numpy as np

    table = np.empty((1 << len(factors), len(roots)), dtype=roots.dtype)
    table[0] = roots
    for q in range(len(factors)):
        op(table[:1 << q], factors[q], out=table[1 << q:2 << q])
    return table


def _chunks(form, values, cols, bits: range):
    """(c0, c1, roots, free) chunks of columns sorted by their count of
    set bits in `bits`: columns c0..c1 share one count, roots holds each
    one's prod over those bits b of f_b(S), and free (f, c1 - c0) its f
    unset bits in `bits`, ascending.  A chunk holds at most CHUNK_ENTRIES
    doubled entries (2^f per column), or one column.

    The roots are computed once, before chunking, lowest b first: step j
    multiplies in the j-th such bit of the suffix of columns with more
    than j.
    """
    import numpy as np

    bit = np.arange(bits.start, bits.stop)
    rest = cols & (((1 << len(bits)) - 1) << bits.start)
    counts = np.bitwise_count(rest)
    roots = np.full(len(cols), form.one, dtype=form.dtype)
    ends = np.searchsorted(counts, np.arange(len(bits) + 1), side="right").tolist()
    for at in ends[:int(counts.max(initial=0))]:
        low = rest[at:] & -rest[at:]
        rest[at:] ^= low
        roots[at:] = form.mul(roots[at:], values[np.bitwise_count(low - 1), cols[at:]])
    for k, (p0, p1) in enumerate(zip([0, *ends], ends)):
        width = max(1, CHUNK_ENTRIES >> (len(bits) - k))
        for c0 in range(p0, p1, width):
            c1 = min(c0 + width, p1)
            unset = (cols[c0:c1, None] >> bit) & 1 == 0
            free = bit[np.nonzero(unset)[1]].reshape(c1 - c0, len(bits) - k).T
            yield c0, c1, roots[c0:c1], free


def _superset_brackets(fam, split: GroundSplit, part: int, cols, s: int):
    """(c, 2^(h_p - s)) array for c columns that each have s part-p bits:
    row k holds prod over i in T_p of f_i(cols[k]) for every part
    superset T_p of cols[k]'s part bits, ascending: each column's root,
    prod over its s part bits i of f_i(S), doubled over the part's free
    bits (`_chunks`), 2^(h_p - s) - 1 multiplications after the root's s.
    """
    import numpy as np

    form, values = fam.form, fam.values
    bits = range(split.h1) if part == 1 else range(split.h1, split.n)
    out = np.empty((len(cols), 1 << (len(bits) - s)), dtype=form.dtype)
    for c0, c1, roots, free in _chunks(form, values, cols, bits):
        out[c0:c1] = _doubled(form.mul, roots, values[free, cols[c0:c1]]).T
    return out


class BracketStore:
    """Superset brackets of every column on each half, built once per run.

    Table (p, s) holds, for every column S with s part-p bits, the
    products prod over i in T_p of f_i(S) for every part superset T_p of
    S's part bits, ascending (`_superset_brackets`): row rank_p[S] of a
    (C(h_p, s) 2^(n - h_p), 2^(h_p - s)) array, where rank_p[S] (one
    int32 per mask) counts the masks below S with as many part-p bits.
    A table is built when first asked for, so a run computes each of its
    3^h1 2^h2 + 2^h1 3^h2 entries once.

    Part 1 keeps one table: `cover`'s plan takes its classes s1-major, so
    once it asks for the next s1 the last one is never read again.  A
    table that would take the store past STORE_ENTRIES when first asked
    for is never built; its columns double over their own free bits at
    each ask instead, which gives the same entries, each still computed
    once.
    """

    def __init__(self, fam, split: GroundSplit):
        self.fam, self.split = fam, split
        self.tables: dict = {}
        self.ranks: dict = {}

    def brackets(self, part: int, cols, s: int):
        """(len(cols), 2^(h_p - s)) superset brackets of columns with s part-p bits."""
        table = self._table(part, s)
        if table is None:
            return _superset_brackets(self.fam, self.split, part, cols, s)
        return table[self.ranks[part][cols]]

    def _table(self, part: int, s: int):
        import numpy as np

        if (part, s) in self.tables:
            return self.tables[part, s]
        if part == 1:
            self.tables = {key: t for key, t in self.tables.items() if key[0] != 1}
        split = self.split
        part_mask, h = (split.u1_mask, split.h1) if part == 1 else (split.u2_mask, split.h2)
        entries = math.comb(h, s) << (split.n - s)
        held = sum(t.size for t in self.tables.values() if t is not None)
        if held + entries > STORE_ENTRIES:
            # for good: built later, it would redo the columns asked so far
            self.tables[part, s] = None
            return None
        sizes = np.bitwise_count(np.arange(1 << split.n) & part_mask)
        if part not in self.ranks:
            rank = np.empty(1 << split.n, dtype=np.int32)
            for size in range(h + 1):
                at = np.flatnonzero(sizes == size)
                rank[at] = np.arange(len(at))
            self.ranks[part] = rank
        table = _superset_brackets(self.fam, split, part, np.flatnonzero(sizes == s), s)
        self.tables[part, s] = table
        return table


def _product_into(
    fam,
    split: GroundSplit,
    step: Product,
    backend: RmmBackend,
    g,
    stats: PipelineStats | None,
    store: BracketStore | None,
) -> None:
    """Run a Product step's batch as one batched product, scattered into g;
    its brackets come from `store` when one is given."""
    if stats is not None:
        stats.columns_processed += step.cols.size
    if not (step.rows1.size and step.cols.size and step.rows2.size):
        return
    e1 = build_submatrix(fam, split, 1, step.rows1, step.cols, store)
    e2 = build_submatrix(fam, split, 2, step.rows2, step.cols, store)
    product = backend.multiply(fam.ring, e1, e2, stats)
    # g[t1 | t2] += product[k, i, j] for t1 = rows1[k, i], t2 = rows2[k, j]
    idx = step.rows1[:, :, None] | step.rows2[:, None, :]
    fam.form.add_at(g, idx.ravel(), product.ravel())


def _direct_scan(
    fam,
    cols,
    g,
    stats: PipelineStats | None,
    split: GroundSplit | None = None,
    thresholds: tuple[int, int] | None = None,
) -> None:
    """Accumulate g[T] += prod_{i in T} f_i(S) for each S in cols, T superset S.

    cols is a 1-D int64 array.  When row thresholds (t1, t2) are given, a
    T whose half-sizes both exceed them is left out (a trimmed product
    covers it), and so is a column that is such a T itself.  The columns
    run sorted by popcount, in chunks of one popcount (`_chunks`).  A
    chunk fills a product table and a matching mask table by doubling
    each column's root, prod over i in S of f_i(S), and S itself over the
    column's free bits (`_doubled`).  Cut entries are computed, then
    dropped by one mask before the chunk's sums per T.
    """
    import numpy as np

    form, values, n = fam.form, fam.values, fam.n
    cut = None
    if thresholds is not None:
        cut = scan_cut(split, thresholds)
        cols = cols[~cut[cols]]
    cols = cols[np.argsort(np.bitwise_count(cols), kind="stable")]
    pairs = 0
    for c0, c1, roots, free in _chunks(form, values, cols, range(n)):
        s = cols[c0:c1]
        prods = _doubled(form.mul, roots, values[free, s])
        masks = _doubled(np.bitwise_or, s, 1 << free)
        if cut is not None:
            kept = ~cut[masks]
            masks, prods = masks[kept], prods[kept]
        pairs += masks.size
        form.add_at(g, masks.ravel(), prods.ravel())
    if stats is not None:
        stats.pair_iterations += pairs


def _execute(
    fam,
    split: GroundSplit,
    steps,
    backend: RmmBackend | None,
    stats: PipelineStats | None,
) -> SetFunction:
    """Run a plan's steps in order into one output table, on arrays.

    `fam` is a list `Family`, or an `arrays.ArrayFamily` that runs as it
    is.  The table comes back as a list.
    """
    from .arrays import ArrayFamily

    backend = backend or ClassicalBackend()
    fam = ArrayFamily.of(fam)
    g = fam.zero_table()
    store = BracketStore(fam, split)
    for step in steps:
        if isinstance(step, Scan):
            _direct_scan(fam, step.cols, g, stats, split, step.thresholds)
        else:
            superset = isinstance(step, SupersetProduct)
            _product_into(fam, split, step, backend, g, stats, store if superset else None)
    return SetFunction(fam.ring, fam.n, g.tolist())


def row_thresholds(split: GroundSplit, tau: float) -> tuple[int, int]:
    return _guarded_floor(tau * split.h1), _guarded_floor(tau * split.h2)


def _half_rows(split: GroundSplit, part: int, above: int = -1):
    """Row masks of one half with more than `above` elements, ascending."""
    import numpy as np

    h, shift = (split.h1, 0) if part == 1 else (split.h2, split.h1)
    t = np.arange(1 << h)
    return t[np.bitwise_count(t) > above] << shift


def small_large_columns(n: int, s0: int):
    """Masks of popcount at most s0, and the rest, each an ascending array."""
    # Imported on first use: importing numpy before the package's larger
    # modules are compiled raises the peak RSS of a run without bytecode
    # caching.
    import numpy as np

    small = np.bitwise_count(np.arange(1 << n)) <= s0
    return np.flatnonzero(small), np.flatnonzero(~small)


def scan_cut(split: GroundSplit, thresholds: tuple[int, int]):
    """A bool per mask T: True when both half-sizes of T exceed (t1, t2)."""
    import numpy as np

    t1, t2 = thresholds
    t = np.arange(1 << split.n)
    return (np.bitwise_count(t & split.u1_mask) > t1) & (np.bitwise_count(t & split.u2_mask) > t2)


class MeasuredCostPlanner:
    """The one-column rule: each column class (s1, s2) gets blocks of
    exactly its sizes, (k1, k2) = (s1, s2).

    `cover`'s plan no longer reads it: it lists one product per column.
    perfbench's `counts._cover_is_per_column` still does, for its 3^n
    kernel-multiplication prediction, until the benchmark drops that
    seam.
    """

    def select(self, split: GroundSplit, s1: int, s2: int) -> tuple[int, int]:
        return s1, s2


def _cover_plan(split: GroundSplit):
    """Batches of one-column `SupersetProduct`s, generated as the executor asks.

    Columns come in classes by (popcount in part 1, popcount in part 2),
    taken s1-major, as `BracketStore` expects.  The blocks of a class's
    (h_p, s_p, s_p) covering designs are every s_p-subset of each half,
    ascending, so each column S1 | S2 is a block pair of its own, with
    the part supersets of S1 and of S2 as its rows (`_superset_rows`).
    The columns run S1-major, in batches of at most BATCH_OUTPUT_ENTRIES
    outputs (a larger product is a batch of its own) within their class.
    The run issues 3^n kernel multiplications, the naive pair count.
    """
    import numpy as np

    h1, h2 = split.h1, split.h2
    for s1 in range(h1 + 1):
        for s2 in range(h2 + 1):
            cols1, rows1 = _superset_rows(greedy_cover(h1, s1, s1), 0)
            cols2, rows2 = _superset_rows(greedy_cover(h2, s2, s2), h1)
            per_batch = max(1, BATCH_OUTPUT_ENTRIES >> (split.n - s1 - s2))
            count = len(cols1) * len(cols2)
            for b0 in range(0, count, per_batch):
                i, j = np.divmod(np.arange(b0, min(b0 + per_batch, count)), len(cols2))
                yield SupersetProduct(rows1[i], (cols1[i] | cols2[j])[:, None], rows2[j])


@functools.cache
def _superset_rows(design, shift: int):
    """(masks, rows) of an (h, s, s) design's blocks, shifted left by
    `shift`: masks holds the blocks, rows (C(h, s), 2^(h - s)) each
    block's supersets within the h-bit half, ascending.

    Cached per (design, shift), so the arrays are read-only: every
    `cover` run reads the same ones.
    """
    import numpy as np

    keys = np.array(design.blocks, dtype=np.int64)
    half = np.arange(1 << design.v)
    rows = np.nonzero(half & keys[:, None] == keys[:, None])[1].reshape(len(keys), -1)
    blocks = keys << shift, rows << shift
    for array in blocks:
        array.flags.writeable = False
    return blocks


def check_algorithm(
    algo: str, sigma: float | None, tau: float | None
) -> tuple[float | None, float | None]:
    """The (sigma, tau) that `algo` runs with, defaults filled in.

    Rejects an unknown algorithm, sigma or tau given to one that takes
    none, sigma outside (1/3, 1/2) and tau outside (1/2, 2/3).  A
    parameter the algorithm does not take comes back as None.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    if sigma is not None and algo not in ("columns", "rows-columns"):
        raise ValueError(f"sigma does not apply to {algo}")
    if tau is not None and algo != "rows-columns":
        raise ValueError(f"tau does not apply to {algo}")
    if algo == "columns":
        sigma = COLUMNS_SIGMA if sigma is None else sigma
    elif algo == "rows-columns":
        sigma = ROWS_COLUMNS_SIGMA if sigma is None else sigma
        tau = ROWS_COLUMNS_TAU if tau is None else tau
    if sigma is not None:
        require_open(sigma, SIGMA_INTERVAL, "sigma")
    if tau is not None:
        require_open(tau, TAU_INTERVAL, "tau")
    return sigma, tau


def _plan(algo: str, split: GroundSplit, sigma: float | None, tau: float | None):
    """The steps of a fast algorithm, for the sigma and tau it runs with."""
    if algo == "cover":
        return _cover_plan(split)
    small, large = small_large_columns(split.n, _guarded_floor(sigma * split.n))
    t1, t2 = (-1, -1) if algo == "columns" else row_thresholds(split, tau)
    product = Product(_half_rows(split, 1, t1)[None], small[None], _half_rows(split, 2, t2)[None])
    if algo == "columns":
        return product, Scan(large)
    return Scan(small, (t1, t2)), product, Scan(large)


def run_transform(
    algo: str,
    fam: Family,
    sigma: float | None = None,
    tau: float | None = None,
    backend: RmmBackend | None = None,
    stats: PipelineStats | None = None,
) -> SetFunction:
    """Run `algo` (see ALGORITHMS): the naive oracle or a fast plan.

    `fam` may also be an `arrays.ArrayFamily`, which the fast plans run
    as it is; naive rejects it with ValueError.  The table comes back as
    a list either way.
    """
    sigma, tau = check_algorithm(algo, sigma, tau)
    if algo == "naive":
        if not isinstance(fam, Family):
            raise ValueError("naive runs on list families only")
        return mst_naive(fam, stats)
    split = GroundSplit.for_n(fam.n)
    return _execute(fam, split, _plan(algo, split, sigma, tau), backend, stats)
