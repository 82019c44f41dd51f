"""Greedy covering designs.

A (v, k, s) covering design is a family of k-element blocks of a
v-element ground set such that every s-element subset lies inside at
least one block.  The greedy construction repeatedly picks the block
covering the most uncovered s-sets (lowest bitmask wins ties), which
keeps the design size within the classical (1 + ln C(k,s)) factor of
the C(v,s)/C(k,s) counting lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .bitops import subsets_of_size

MAX_V = 28
# Entries C(v, k) * C(k, s) of the candidate s-subset sets greedy_cover
# builds before its first pick; a larger design is rejected up front
# ((28, 14, 7) would need 1.4e11).  Every design with v <= 12 fits (at
# most 34650 entries, at (12, 8, 4)).  The largest accepted, (24, 22, 20)
# and (24, 4, 2) with 63756 entries each, took 0.49 and 0.26 CPU seconds
# and 33 and 38 MB peak RSS, 28 MB of it the imported package (Python
# 3.11, one process on a 2-vCPU VM).
MAX_CANDIDATE_ENTRIES = 1 << 16
# Work ceil(cover_size_bound(v, k, s)) * C(v, k) * (C(k, s) + 4), in set
# elements: the greedy picks at most the bound, each pick visits every
# candidate, and a visit intersects the candidate's C(k, s) subsets with the
# uncovered set at a cost of about 4 more (so designs with k = s, where
# C(k, s) = 1, pay mostly that).  A larger design is rejected up front.
# Measured (Python 3.11, one process on a 2-vCPU VM, CPU seconds, one run
# each): every design with v <= 12 fits, and so do (24, 4, 2) at 0.33 s and
# (24, 22, 20) at 0.64 s; the slowest accepted measured is (19, 16, 15) at
# 0.87 s.  Rejected: (17, 14, 12) at 2.11 s, (20, 17, 16) at 1.72 s,
# (21, 18, 17) at 3.35 s, (15, 5, 5) at 1.94 s and (16, 5, 5) at 3.99 s.
MAX_CANDIDATE_WORK = 2 * 10**7


@dataclass(frozen=True)
class CoverDesign:
    v: int
    k: int
    s: int
    blocks: tuple[int, ...]


def _check_params(v: int, k: int, s: int):
    if not 0 <= s <= k <= v <= MAX_V:
        raise ValueError(
            f"need 0 <= s <= k <= v <= {MAX_V}, got (v, k, s) = ({v}, {k}, {s})"
        )


@lru_cache(maxsize=None)
def greedy_cover(v: int, k: int, s: int) -> CoverDesign:
    """Greedy (v, k, s) covering design with deterministic tie-breaking."""
    _check_params(v, k, s)
    entries = math.comb(v, k) * math.comb(k, s)
    if entries > MAX_CANDIDATE_ENTRIES:
        raise ValueError(
            f"(v, k, s) = ({v}, {k}, {s}) needs {entries} candidate entries; "
            f"the limit is {MAX_CANDIDATE_ENTRIES}"
        )
    visits = math.ceil(cover_size_bound(v, k, s)) * math.comb(v, k)
    per_visit = math.comb(k, s) + 4
    if visits * per_visit > MAX_CANDIDATE_WORK:
        raise ValueError(
            f"(v, k, s) = ({v}, {k}, {s}) may take {visits} candidate visits of "
            f"{per_visit} set elements each; the limit is {MAX_CANDIDATE_WORK} elements"
        )
    full = (1 << v) - 1
    candidates = sorted(subsets_of_size(full, k))
    cand_sets = [frozenset(subsets_of_size(c, s)) for c in candidates]
    uncovered = set(subsets_of_size(full, s))
    blocks: list[int] = []
    while uncovered:
        best_idx = -1
        best_gain = 0
        for idx, ts in enumerate(cand_sets):
            gain = len(ts & uncovered)
            if gain > best_gain:
                best_idx = idx
                best_gain = gain
        if best_idx < 0:
            raise RuntimeError("greedy cover stalled; unreachable for s <= k <= v")
        blocks.append(candidates[best_idx])
        uncovered -= cand_sets[best_idx]
    return CoverDesign(v, k, s, tuple(blocks))


def verify_cover(design: CoverDesign) -> bool:
    """True iff every s-subset of the v-set is inside some block."""
    _check_params(design.v, design.k, design.s)
    for block in design.blocks:
        if block.bit_count() != design.k or block >> design.v:
            return False
    covered = set()
    for block in design.blocks:
        covered.update(subsets_of_size(block, design.s))
    return len(covered) == math.comb(design.v, design.s)


def cover_size_bound(v: int, k: int, s: int) -> float:
    """Greedy-size guarantee: (1 + ln C(k,s)) * C(v,s)/C(k,s) + 1."""
    _check_params(v, k, s)
    per_block = math.comb(k, s)
    return (1.0 + math.log(per_block)) * math.comb(v, s) / per_block + 1.0
