"""Exact operation counts and the closed forms they are checked against.

The counts come from a run that is separate from the timed one: inputs
generated over a `CountingRing` (same seed, same values) give the ring
operation counts, and a `PipelineStats` gives the kernel multiplications
(`rmm_muls`) and the (T, S) pairs the direct scans visit.  None of them
depends on the input values, so they must repeat exactly from run to run.
"""

from __future__ import annotations

import math

from multisubset import mst
from multisubset.ring import CountingRing, OpCounter, PrimeField

try:
    from multisubset.bench import predicted_pair_iterations
except ImportError:
    predicted_pair_iterations = None


def _floor(x: float) -> int:
    # The pipelines floor sigma*n and tau*h the same way: past float error.
    return math.floor(x + 1e-9)


def _small_columns(n: int, sigma: float) -> int:
    return sum(math.comb(n, d) for d in range(_floor(sigma * n) + 1))


def _rows_above(h: int, tau: float) -> int:
    return sum(math.comb(h, c) for c in range(_floor(tau * h) + 1, h + 1))


def _cover_is_per_column(n: int) -> bool:
    """True when the cost planner picks k = s for every column class."""
    planner_cls = getattr(mst, "MeasuredCostPlanner", None)
    split_cls = getattr(mst, "GroundSplit", None)
    if planner_cls is None or split_cls is None:
        return False
    split = split_cls.for_n(n)
    planner = planner_cls()
    return all(
        planner.select(split, s1, s2) == (s1, s2)
        for s1 in range(split.h1 + 1)
        for s2 in range(split.h2 + 1)
    )


def transform_rmm_muls(algo: str, n: int) -> int | None:
    """Closed-form kernel multiplications of one transform, None if unknown.

    columns: 2^n * |small|; rows-columns: |rows1| * |small| * |rows2|;
    cover with one product per column: sum over S of 2^(n-|S|) = 3^n.
    """
    h1 = (n + 1) // 2
    if algo == "naive":
        return 0
    if algo == "columns":
        return (1 << n) * _small_columns(n, mst.COLUMNS_SIGMA)
    if algo == "rows-columns":
        tau = mst.ROWS_COLUMNS_TAU
        return (
            _rows_above(h1, tau)
            * _small_columns(n, mst.ROWS_COLUMNS_SIGMA)
            * _rows_above(n - h1, tau)
        )
    if algo == "cover" and _cover_is_per_column(n):
        return 3 ** n
    return None


def predictions(workload, algo: str) -> dict:
    """Predicted per-call counts; a DAG sum runs n transforms over n+1 elements."""
    if workload.is_dag:
        rounds, size = workload.n, workload.n + 1
    else:
        rounds, size = 1, workload.n
    muls = transform_rmm_muls(algo, size)
    pairs = None if predicted_pair_iterations is None else predicted_pair_iterations(algo, size)
    return {
        "rmm_muls": None if muls is None else rounds * muls,
        "pair_iterations": None if pairs is None else rounds * pairs,
    }


def exact_counts(workload, algo: str, seed: int):
    """One untimed call over a CountingRing; returns (counts, output)."""
    counter = OpCounter()
    inputs = workload.make_inputs(CountingRing(PrimeField(), counter), seed)
    stats_cls = getattr(mst, "PipelineStats", None)
    stats = stats_cls() if stats_cls is not None else None
    counter.reset()
    output = workload.call(algo, inputs, stats=stats)
    counts = {"ring.muls": counter.muls, "ring.adds": counter.adds}
    for key in ("pair_iterations", "rmm_muls"):
        counts[key] = getattr(stats, key, None)
    return counts, output
