"""Closed-form predictions of the (T, S) pairs the direct scans visit.

`PipelineStats.pair_iterations` of a run must equal
`predicted_pair_iterations` for its algorithm, n, sigma and tau.
"""

from __future__ import annotations

import math

from .mst import (
    COLUMNS_SIGMA,
    ROWS_COLUMNS_SIGMA,
    ROWS_COLUMNS_TAU,
    GroundSplit,
    check_algorithm,
    row_thresholds,
    _guarded_floor,
)


def predicted_pair_iterations(
    algo: str, n: int, sigma: float | None = None, tau: float | None = None
) -> int:
    """Closed-form count of (S, T) pairs the direct scans will touch."""
    check_algorithm(algo, sigma, tau)
    if algo == "naive":
        return 3 ** n
    if algo == "cover":
        return 0
    if algo == "columns":
        s0 = _guarded_floor((COLUMNS_SIGMA if sigma is None else sigma) * n)
        return sum(
            math.comb(n, d) << (n - d) for d in range(s0 + 1, n + 1)
        )
    sig = ROWS_COLUMNS_SIGMA if sigma is None else sigma
    t = ROWS_COLUMNS_TAU if tau is None else tau
    s0 = _guarded_floor(sig * n)
    split = GroundSplit.for_n(n)
    t1, t2 = row_thresholds(split, t)
    large = sum(math.comb(n, d) << (n - d) for d in range(s0 + 1, n + 1))
    trimmed = 0
    for c1 in range(split.h1 + 1):
        for c2 in range(split.h2 + 1):
            if c1 > t1 and c2 > t2:
                continue
            t_count = math.comb(split.h1, c1) * math.comb(split.h2, c2)
            small_subsets = sum(
                math.comb(c1 + c2, d) for d in range(min(s0, c1 + c2) + 1)
            )
            trimmed += t_count * small_subsets
    return large + trimmed
