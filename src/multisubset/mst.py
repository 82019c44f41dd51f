"""Multi-subset transform of a family of set functions.

Given f_1, ..., f_n on subsets of {0, ..., n-1}, the transform is

    g(T) = sum over S subseteq T of ( prod over i in T of f_i(S) ).

`mst_naive` evaluates the definition directly.  The three fast variants
route all or part of the work through rectangular matrix multiplication
after splitting the ground set in half: each (T, S) term factors as a
product of a part-1 bracket and a part-2 bracket, so summing over a set
of columns S is a rectangular product between the two bracket matrices.

Each fast variant is a plan: an ordered sequence of steps that one
executor runs into a single output table.  A `Product` step adds the
terms of its columns to every cell T1 | T2 of its row lists by one
rectangular product; a `Scan` step adds the terms of its columns to
every superset T by a direct scan, optionally skipping the pairs a
trimmed product covers.

`run_transform` is the one entry point: `check_algorithm` resolves the
algorithm's sigma and tau, and `_plan` builds its steps.

The executor has two paths.  The list path runs every ring operation as
one Python call on the ring; it serves every ring and plan and is the
one `CountingRing` counts.  The array path runs the three fast plans
over exactly `PrimeField(2^61 - 1)`: the members become one uint64
array (or arrive as one, an `m61.M61Family`, as the DAG rounds hand
them over), the bracket build, the scatter and the direct scan are numpy
operations mod p, and the kernel multiplies the bracket arrays exactly
through float64 BLAS (all in `m61`).  Consecutive products of one shape
run as one batched product, so `cover`'s thousands of one-column
products pay numpy's per-call overhead once per batch, not once each.
Both paths give the same table and the same `PipelineStats`.  `naive`
stays on lists: it is the oracle the fast plans are checked against,
and the control that no array kernel touches.

* `columns` sends every column of popcount <= floor(sigma*n) through one
  big rectangular multiplication and finishes the large columns by a
  direct superset scan.
* `rows-columns` additionally trims the matrix rows: the product is only
  taken over row halves larger than a threshold, and the remaining
  (small-row, small-column) pairs are folded into the direct scan.
* `cover` chops the column work into blocks indexed by greedy covering
  designs, one product per block pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .bitops import bits_of, subsets_of_size
from .cover import greedy_cover
from .ring import is_m61
from .rmm import ClassicalBackend, RmmBackend, SubMatrix
from .setfn import Family, SetFunction

# Optimized column-fraction for the plain columns algorithm, and the
# (row, column) fractions for the row-trimmed variant.  See analysis.py
# for the optimization that produces them.
COLUMNS_SIGMA = 0.3642045
ROWS_COLUMNS_TAU = 0.59777
ROWS_COLUMNS_SIGMA = 0.38185

ALGORITHMS = ("naive", "columns", "rows-columns", "cover")
# Algorithms whose plans run on the array path over PrimeField(2^61 - 1);
# naive stays on lists as the oracle and control.
ARRAY_ALGORITHMS = ("columns", "rows-columns", "cover")


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
    """Plan step: the columns' terms at every T1 | T2 by one rectangular product.

    rows1 holds part-1 masks, rows2 part-2 masks; each (T1 | T2, S) pair
    is summed once, so a plan must not give it to another step too.
    """

    rows1: list[int]
    cols: list[int]
    rows2: list[int]


@dataclass
class Scan:
    """Plan step: the columns' terms at every superset T by the direct scan.

    With thresholds (t1, t2), every T with more than t1 part-1 and more
    than t2 part-2 elements is skipped (a trimmed product covers it).
    """

    cols: list[int]
    thresholds: tuple[int, int] | None = None


def _guarded_floor(x: float) -> int:
    # floor() after nudging past float error, so e.g. 0.6 * 5 lands on 3.
    return math.floor(x + 1e-9)


def _require_open(value: float, lo: float, hi: float, name: str) -> None:
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


def build_submatrix(
    fam: Family, split: GroundSplit, part: int, rows: list[int], cols: list[int]
) -> SubMatrix:
    """Bracket matrix for one half of the split.

    Entry (T_p, S) is prod over i in T_p of f_i(S) when S's part-p bits
    lie inside T_p, and zero otherwise (the bracket).  Row masks must
    stay within their own half of the ground set.  Given the array path's
    `m61.M61Family` in place of a `Family`, the entries are one uint64
    array; otherwise they are lists.

    On the array path, `rows` may also be a batch: a list of m row lists
    of one length r, with `cols` the m blocks' column lists of one length
    c concatenated.  The entries are then an (m, r, c) array, and the row
    labels an (r, m) array whose row i holds the i-th rows of all m
    blocks, so that len(rows) * len(cols) counts the entries.
    """
    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    part_mask = split.u1_mask if part == 1 else split.u2_mask
    if not isinstance(fam, Family):
        from .m61 import bracket

        first_bit, h = (0, split.h1) if part == 1 else (split.h1, split.h2)
        labels, entries = bracket(fam.values, first_bit, h, part_mask, rows, cols)
        return SubMatrix(labels, list(cols), entries)
    for t_mask in rows:
        if t_mask & ~part_mask:
            raise ValueError(f"row mask {t_mask:#x} is not within part {part}")
    ring = fam.ring
    members = [m.values for m in fam.members]
    mul = ring.mul
    zero, one = ring.zero, ring.one
    entries = []
    for t_mask in rows:
        bits = bits_of(t_mask)
        row = []
        for s_mask in cols:
            if (s_mask & part_mask) & ~t_mask:
                row.append(zero)
            elif not bits:
                row.append(one)
            else:
                v = members[bits[0]][s_mask]
                for i in bits[1:]:
                    v = mul(v, members[i][s_mask])
                row.append(v)
        entries.append(row)
    return SubMatrix(list(rows), list(cols), entries)


def _product_into(
    fam: Family,
    split: GroundSplit,
    batch: list[Product],
    backend: RmmBackend,
    g: list,
    stats: PipelineStats | None,
) -> None:
    """Run Product steps of one shape as one product (a batch on arrays)."""
    if stats is not None:
        stats.columns_processed += sum(len(step.cols) for step in batch)
    first = batch[0]
    if not first.rows1 or not first.rows2 or not first.cols:
        return
    cols = [c for step in batch for c in step.cols]
    if isinstance(fam, Family):
        rows1, rows2 = first.rows1, first.rows2  # one step on the list path
    else:
        rows1, rows2 = [s.rows1 for s in batch], [s.rows2 for s in batch]
    e1 = build_submatrix(fam, split, 1, rows1, cols)
    e2 = build_submatrix(fam, split, 2, rows2, cols)
    product = backend.multiply(fam.ring, e1, e2, stats)
    if not isinstance(product, list):
        from .m61 import scatter

        scatter(g, e1.rows, e2.rows, product)
        return
    add = fam.ring.add
    for i, t1 in enumerate(rows1):
        row = product[i]
        for j, t2 in enumerate(rows2):
            idx = t1 | t2
            g[idx] = add(g[idx], row[j])


def _direct_scan(
    fam: Family,
    cols: list[int],
    g: list,
    stats: PipelineStats | None,
    split: GroundSplit | None = None,
    thresholds: tuple[int, int] | None = None,
) -> None:
    """Accumulate g[T] += prod_{i in T} f_i(S) for each S in cols, T superset S.

    Each column builds its table of (T, product) pairs by doubling: for
    each free bit in ascending order, every kept entry gets a copy with
    the bit set and one more factor.  When row thresholds (t1, t2) are
    given, a T whose half-sizes both exceed them is not kept (a trimmed
    product covers it); the kept set is downward closed, so doubling
    reaches exactly the uncut supersets of S.
    """
    ring = fam.ring
    n = fam.n
    cut = None if thresholds is None else scan_cut(split, thresholds)
    if not isinstance(fam, Family):
        from .m61 import superset_scan

        pairs = superset_scan(fam.values, cols, g, cut)
        if stats is not None:
            stats.pair_iterations += pairs
        return
    members = [m.values for m in fam.members]
    add, mul = ring.add, ring.mul
    pairs = 0
    for s_mask in cols:
        if cut is not None and cut[s_mask]:
            continue
        col = [mv[s_mask] for mv in members]
        base = ring.one
        for i in bits_of(s_mask):
            base = mul(base, col[i])
        masks, prods = [s_mask], [base]
        for b in range(n):
            bit = 1 << b
            if s_mask & bit:
                continue
            f = col[b]
            if cut is None:
                masks += [m | bit for m in masks]
                prods += [mul(p, f) for p in prods]
            else:
                kept = [i for i, m in enumerate(masks) if not cut[m | bit]]
                masks += [masks[i] | bit for i in kept]
                prods += [mul(prods[i], f) for i in kept]
        for t_mask, prod in zip(masks, prods):
            g[t_mask] = add(g[t_mask], prod)
        pairs += len(masks)
    if stats is not None:
        stats.pair_iterations += pairs


def _execute(
    fam: Family,
    split: GroundSplit,
    steps,
    backend: RmmBackend | None,
    stats: PipelineStats | None,
    arrays: bool = False,
) -> SetFunction:
    """Run a plan's steps in order into one output table.

    With `arrays` (for PrimeField(2^61 - 1) only) the steps run on the
    array path, on `fam` as it is when it is already an `m61.M61Family`,
    and consecutive Product steps of one shape run as one batched
    product; the table comes back as Python ints either way.
    """
    backend = backend or ClassicalBackend()
    if arrays:
        from .m61 import BATCH_OUTPUT_ENTRIES, M61Family

        if isinstance(fam, Family):
            fam = M61Family.of(fam)
        g = fam.zero_table()
        max_entries = BATCH_OUTPUT_ENTRIES
    else:
        g = [fam.ring.zero] * (1 << fam.n)
        max_entries = 0
    for step in _batched(steps, max_entries):
        if isinstance(step, Scan):
            _direct_scan(fam, step.cols, g, stats, split, step.thresholds)
        else:
            _product_into(fam, split, step, backend, g, stats)
    return SetFunction(fam.ring, fam.n, g.tolist() if arrays else g)


def _batched(steps, max_entries: int):
    """The steps, with each run of Products of one shape grouped into lists.

    A shape is (len(rows1), len(cols), len(rows2)); a list grows while its
    products' outputs hold at most max_entries entries in all (a product
    larger than that is a list of its own).  Steps are pulled one at a
    time, so a generated plan is never held whole.
    """
    batch, shape = [], None
    for step in steps:
        if isinstance(step, Product):
            r1, c, r2 = len(step.rows1), len(step.cols), len(step.rows2)
            if (r1, c, r2) == shape and (len(batch) + 1) * r1 * r2 <= max_entries:
                batch.append(step)
                continue
        if batch:
            yield batch
        if isinstance(step, Product):
            batch, shape = [step], (r1, c, r2)
        else:
            batch, shape = [], None
            yield step
    if batch:
        yield batch


def row_thresholds(split: GroundSplit, tau: float) -> tuple[int, int]:
    return _guarded_floor(tau * split.h1), _guarded_floor(tau * split.h2)


def _half_rows(split: GroundSplit, part: int, above: int = -1) -> list[int]:
    """Row masks of one half with more than `above` elements, ascending."""
    h, shift = (split.h1, 0) if part == 1 else (split.h2, split.h1)
    return [t << shift for t in range(1 << h) if t.bit_count() > above]


def small_large_columns(n: int, s0: int) -> tuple[list[int], list[int]]:
    """Masks of popcount at most s0, and the rest, each ascending."""
    # Imported on first use: importing numpy before the package's larger
    # modules are compiled raises the peak RSS of a run without bytecode
    # caching.
    import numpy as np

    small = np.bitwise_count(np.arange(1 << n)) <= s0
    return np.flatnonzero(small).tolist(), np.flatnonzero(~small).tolist()


def scan_cut(split: GroundSplit, thresholds: tuple[int, int]) -> bytearray:
    """One byte per mask T: 1 when both half-sizes of T exceed (t1, t2)."""
    import numpy as np

    t1, t2 = thresholds
    t = np.arange(1 << split.n)
    both = (np.bitwise_count(t & split.u1_mask) > t1) & (np.bitwise_count(t & split.u2_mask) > t2)
    return bytearray(both.tobytes())


class MeasuredCostPlanner:
    """Chooses block sizes by grid-searching a classical cost model.

    The model charges (estimated blocks_1 * blocks_2) block pairs, each
    costing R1*C*R2 kernel products plus C*(R1 + R2) matrix-build work,
    where R_p counts rows meeting the block and C counts in-block column
    pairs.  Ties go to the lexicographically smallest (k1, k2).
    """

    def select(self, split: GroundSplit, s1: int, s2: int) -> tuple[int, int]:
        return _cheapest_blocks(split.h1, split.h2, s1, s2)


# One entry per (h1, h2, s1, s2): at most 13^4 for n <= MAX_GROUND_SET = 24.
@functools.lru_cache(maxsize=None)
def _cheapest_blocks(h1: int, h2: int, s1: int, s2: int) -> tuple[int, int]:
    best = (h1, h2)
    best_cost = None
    for k1 in range(s1, h1 + 1):
        for k2 in range(s2, h2 + 1):
            cost = _block_cost(h1, h2, s1, s2, k1, k2)
            if best_cost is None or cost < best_cost:
                best = (k1, k2)
                best_cost = cost
    return best


def _cover_size_estimate(v: int, k: int, s: int) -> int:
    per_block = math.comb(k, s)
    lower = math.comb(v, s) / per_block
    if per_block > 1:
        est = math.ceil((1.0 + math.log(per_block)) * lower)
    else:
        est = math.ceil(lower)
    return max(1, min(math.comb(v, k), est))


def _rows_meeting(h: int, k: int, s: int) -> int:
    # rows T_p with |T_p intersect K_p| >= s, for any fixed k-subset K_p
    hits = sum(math.comb(k, j) for j in range(s, k + 1))
    return hits << (h - k)


def _block_cost(h1: int, h2: int, s1: int, s2: int, k1: int, k2: int) -> float:
    r1 = _rows_meeting(h1, k1, s1)
    r2 = _rows_meeting(h2, k2, s2)
    width = math.comb(k1, s1) * math.comb(k2, s2)
    blocks = _cover_size_estimate(h1, k1, s1) * _cover_size_estimate(h2, k2, s2)
    return blocks * (r1 * width * r2 + width * (r1 + r2))


def _cover_plan(split: GroundSplit):
    """One product per block pair, generated as the executor asks for it.

    Columns come in classes by (popcount in part 1, popcount in part 2);
    covering designs tile each class into block pairs, and a covered-set
    keeps every column's contribution counted exactly once.  Each part-2
    block's columns and rows are listed once per class.

    Under the classical cost model `MeasuredCostPlanner` picks blocks of
    exactly the column size for every class at every n up to
    MAX_GROUND_SET, so each product covers one column and the run issues
    3^n kernel multiplications, the naive pair count.  The products of a
    class share one shape, so the array path runs them in a few batches.
    """
    h1, h2 = split.h1, split.h2
    planner = MeasuredCostPlanner()
    covered = bytearray(1 << split.n)
    for s1 in range(h1 + 1):
        for s2 in range(h2 + 1):
            k1, k2 = planner.select(split, s1, s2)
            design1 = greedy_cover(h1, k1, s1)
            blocks2 = [
                (
                    [m2 << h1 for m2 in subsets_of_size(key2, s2)],
                    [t << h1 for t in range(1 << h2) if (t & key2).bit_count() >= s2],
                )
                for key2 in greedy_cover(h2, k2, s2).blocks
            ]
            for key1 in design1.blocks:
                cols1 = list(subsets_of_size(key1, s1))
                rows1 = [t for t in range(1 << h1) if (t & key1).bit_count() >= s1]
                for cols2, rows2 in blocks2:
                    cols = [c for m1 in cols1 for m2 in cols2 if not covered[c := m1 | m2]]
                    if not cols:
                        continue
                    for c in cols:
                        covered[c] = 1
                    yield Product(rows1, cols, rows2)


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
        _require_open(sigma, 1.0 / 3.0, 1.0 / 2.0, "sigma")
    if tau is not None:
        _require_open(tau, 1.0 / 2.0, 2.0 / 3.0, "tau")
    return sigma, tau


def _plan(algo: str, split: GroundSplit, sigma: float | None, tau: float | None):
    """The steps of a fast algorithm, for the sigma and tau it runs with."""
    if algo == "cover":
        return _cover_plan(split)
    small, large = small_large_columns(split.n, _guarded_floor(sigma * split.n))
    if algo == "columns":
        return (
            Product(_half_rows(split, 1), small, _half_rows(split, 2)),
            Scan(large),
        )
    t1, t2 = row_thresholds(split, tau)
    return (
        Scan(small, (t1, t2)),
        Product(_half_rows(split, 1, t1), small, _half_rows(split, 2, t2)),
        Scan(large),
    )


def run_transform(
    algo: str,
    fam: Family,
    sigma: float | None = None,
    tau: float | None = None,
    backend: RmmBackend | None = None,
    stats: PipelineStats | None = None,
) -> SetFunction:
    """Run `algo` (see ALGORITHMS): the naive oracle or a fast plan.

    `fam` may also be the array path's `m61.M61Family`, which runs as it
    is; naive rejects it with ValueError.  The table comes back as a list
    either way.
    """
    sigma, tau = check_algorithm(algo, sigma, tau)
    given_arrays = not isinstance(fam, Family)
    if algo == "naive":
        if given_arrays:
            raise ValueError("naive runs on list families only")
        return mst_naive(fam, stats)
    split = GroundSplit.for_n(fam.n)
    arrays = given_arrays or (algo in ARRAY_ALGORITHMS and is_m61(fam.ring))
    return _execute(fam, split, _plan(algo, split, sigma, tau), backend, stats, arrays)
