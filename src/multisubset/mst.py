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

* `mst_columns` sends every column of popcount <= floor(sigma*n) through
  one big rectangular multiplication and finishes the large columns by a
  direct superset scan.
* `mst_rows_columns` additionally trims the matrix rows: the product is
  only taken over row halves larger than a threshold, and the remaining
  (small-row, small-column) pairs are folded into the direct scan.
* `mst_cover_columns` chops the column work into blocks indexed by
  greedy covering designs, one product per block pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bitops import bits_of, subsets_of_size
from .cover import greedy_cover
from .rmm import ClassicalBackend, RmmBackend, SubMatrix
from .setfn import Family, SetFunction

# Optimized column-fraction for the plain columns algorithm, and the
# (row, column) fractions for the row-trimmed variant.  See analysis.py
# for the optimization that produces them.
COLUMNS_SIGMA = 0.3642045
ROWS_COLUMNS_TAU = 0.59777
ROWS_COLUMNS_SIGMA = 0.38185

ALGORITHMS = ("naive", "columns", "rows-columns", "cover")


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
    stay within their own half of the ground set.
    """
    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    ring = fam.ring
    part_mask = split.u1_mask if part == 1 else split.u2_mask
    members = [m.values for m in fam.members]
    mul = ring.mul
    zero, one = ring.zero, ring.one
    entries = []
    for t_mask in rows:
        if t_mask & ~part_mask:
            raise ValueError(f"row mask {t_mask:#x} is not within part {part}")
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
    step: Product,
    backend: RmmBackend,
    g: list,
    stats: PipelineStats | None,
) -> None:
    if stats is not None:
        stats.columns_processed += len(step.cols)
    rows1, cols, rows2 = step.rows1, step.cols, step.rows2
    if not rows1 or not rows2 or not cols:
        return
    e1 = build_submatrix(fam, split, 1, rows1, cols)
    e2 = build_submatrix(fam, split, 2, rows2, cols)
    product = backend.multiply(fam.ring, e1, e2, stats)
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
    members = [m.values for m in fam.members]
    add, mul = ring.add, ring.mul
    cut = None
    if thresholds is not None:
        t1, t2 = thresholds
        u1 = split.u1_mask
        cut = bytearray(
            (t & u1).bit_count() > t1 and (t & ~u1).bit_count() > t2
            for t in range(1 << n)
        )
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
) -> SetFunction:
    """Run a plan's steps in order into one output table."""
    backend = backend or ClassicalBackend()
    g = [fam.ring.zero] * (1 << fam.n)
    for step in steps:
        if isinstance(step, Scan):
            _direct_scan(fam, step.cols, g, stats, split, step.thresholds)
        else:
            _product_into(fam, split, step, backend, g, stats)
    return SetFunction(fam.ring, fam.n, g)


def row_thresholds(split: GroundSplit, tau: float) -> tuple[int, int]:
    return _guarded_floor(tau * split.h1), _guarded_floor(tau * split.h2)


def _half_rows(split: GroundSplit, part: int, above: int = -1) -> list[int]:
    """Row masks of one half with more than `above` elements, ascending."""
    h, shift = (split.h1, 0) if part == 1 else (split.h2, split.h1)
    return [t << shift for t in range(1 << h) if t.bit_count() > above]


def small_large_columns(n: int, s0: int) -> tuple[list[int], list[int]]:
    small, large = [], []
    for s_mask in range(1 << n):
        (small if s_mask.bit_count() <= s0 else large).append(s_mask)
    return small, large


def mst_columns(
    fam: Family,
    sigma: float = COLUMNS_SIGMA,
    backend: RmmBackend | None = None,
    stats: PipelineStats | None = None,
) -> SetFunction:
    """Columns algorithm: small columns via one rectangular product."""
    _require_open(sigma, 1.0 / 3.0, 1.0 / 2.0, "sigma")
    split = GroundSplit.for_n(fam.n)
    small, large = small_large_columns(fam.n, _guarded_floor(sigma * fam.n))
    plan = (
        Product(_half_rows(split, 1), small, _half_rows(split, 2)),
        Scan(large),
    )
    return _execute(fam, split, plan, backend, stats)


def mst_rows_columns(
    fam: Family,
    sigma: float = ROWS_COLUMNS_SIGMA,
    tau: float = ROWS_COLUMNS_TAU,
    backend: RmmBackend | None = None,
    stats: PipelineStats | None = None,
) -> SetFunction:
    """Rows-and-columns algorithm: trimmed rows on the small columns."""
    _require_open(sigma, 1.0 / 3.0, 1.0 / 2.0, "sigma")
    _require_open(tau, 1.0 / 2.0, 2.0 / 3.0, "tau")
    split = GroundSplit.for_n(fam.n)
    small, large = small_large_columns(fam.n, _guarded_floor(sigma * fam.n))
    t1, t2 = row_thresholds(split, tau)
    plan = (
        Scan(small, (t1, t2)),
        Product(_half_rows(split, 1, t1), small, _half_rows(split, 2, t2)),
        Scan(large),
    )
    return _execute(fam, split, plan, backend, stats)


class MeasuredCostPlanner:
    """Chooses block sizes by grid-searching a classical cost model.

    The model charges (estimated blocks_1 * blocks_2) block pairs, each
    costing R1*C*R2 kernel products plus C*(R1 + R2) matrix-build work,
    where R_p counts rows meeting the block and C counts in-block column
    pairs.  Ties go to the lexicographically smallest (k1, k2).
    """

    def select(self, split: GroundSplit, s1: int, s2: int) -> tuple[int, int]:
        best = (split.h1, split.h2)
        best_cost = None
        for k1 in range(s1, split.h1 + 1):
            for k2 in range(s2, split.h2 + 1):
                cost = _block_cost(split.h1, split.h2, s1, s2, k1, k2)
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
    keeps every column's contribution counted exactly once.
    """
    h1, h2 = split.h1, split.h2
    planner = MeasuredCostPlanner()
    covered = bytearray(1 << split.n)
    for s1 in range(h1 + 1):
        for s2 in range(h2 + 1):
            k1, k2 = planner.select(split, s1, s2)
            design1 = greedy_cover(h1, k1, s1)
            design2 = greedy_cover(h2, k2, s2)
            for key1 in design1.blocks:
                cols1 = list(subsets_of_size(key1, s1))
                rows1 = [t for t in range(1 << h1) if (t & key1).bit_count() >= s1]
                for key2 in design2.blocks:
                    cols = []
                    for m1 in cols1:
                        for m2 in subsets_of_size(key2, s2):
                            c = m1 | (m2 << h1)
                            if not covered[c]:
                                cols.append(c)
                    if not cols:
                        continue
                    rows2 = [
                        t << h1
                        for t in range(1 << h2)
                        if (t & key2).bit_count() >= s2
                    ]
                    for c in cols:
                        covered[c] = 1
                    yield Product(rows1, cols, rows2)


def mst_cover_columns(
    fam: Family,
    backend: RmmBackend | None = None,
    stats: PipelineStats | None = None,
) -> SetFunction:
    """Cover-columns algorithm: dense blocks from greedy covering designs.

    Kept to reproduce the paper, not for speed.  Under the classical cost
    model `MeasuredCostPlanner` picks blocks of exactly the column size
    for every class, so each product covers one column and the run issues
    3^n kernel multiplications, the naive pair count.
    """
    split = GroundSplit.for_n(fam.n)
    return _execute(fam, split, _cover_plan(split), backend, stats)


def check_algorithm(algo: str, sigma: float | None, tau: float | None) -> None:
    """Reject an unknown algorithm, and sigma or tau given to one that takes none."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    if sigma is not None and algo not in ("columns", "rows-columns"):
        raise ValueError(f"sigma does not apply to {algo}")
    if tau is not None and algo != "rows-columns":
        raise ValueError(f"tau does not apply to {algo}")


def run_transform(
    algo: str,
    fam: Family,
    sigma: float | None = None,
    tau: float | None = None,
    backend: RmmBackend | None = None,
    stats: PipelineStats | None = None,
) -> SetFunction:
    """Dispatch by algorithm name (see ALGORITHMS)."""
    check_algorithm(algo, sigma, tau)
    if algo == "naive":
        return mst_naive(fam, stats)
    if algo == "columns":
        return mst_columns(
            fam, COLUMNS_SIGMA if sigma is None else sigma, backend, stats
        )
    if algo == "rows-columns":
        return mst_rows_columns(
            fam,
            ROWS_COLUMNS_SIGMA if sigma is None else sigma,
            ROWS_COLUMNS_TAU if tau is None else tau,
            backend,
            stats,
        )
    return mst_cover_columns(fam, backend, stats)
