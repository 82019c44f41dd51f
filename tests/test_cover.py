import math
from itertools import combinations
from math import comb

import pytest

from multisubset import CoverDesign, cover_size_bound, greedy_cover, verify_cover
from multisubset.cover import MAX_CANDIDATE_ENTRIES, MAX_CANDIDATE_WORK
from multisubset.bitops import subsets_of_size


def test_two_points_per_block_of_three():
    design = greedy_cover(4, 3, 2)
    assert len(design.blocks) == 3
    assert verify_cover(design)


def test_two_blocks_never_cover_4_3_2():
    # any two 3-subsets of a 4-set share a pair, leaving one of the 6 uncovered
    triples = [m for m in range(16) if m.bit_count() == 3]
    for a, b in combinations(triples, 2):
        covered = set(subsets_of_size(a, 2)) | set(subsets_of_size(b, 2))
        assert len(covered) < comb(4, 2)


@pytest.mark.parametrize("v", range(0, 9))
def test_greedy_grid_valid_and_bounded(v):
    for k in range(0, v + 1):
        for s in range(0, k + 1):
            design = greedy_cover(v, k, s)
            assert verify_cover(design)
            assert len(design.blocks) <= cover_size_bound(v, k, s)
            if k >= 1:
                # within factor k of the fractional lower bound
                assert len(design.blocks) <= k * comb(v, s) / comb(k, s)


def test_degenerate_shapes():
    assert len(greedy_cover(6, 6, 3).blocks) == 1  # whole set is one block
    assert len(greedy_cover(6, 4, 0).blocks) == 1  # empty set needs any block
    # with s == k each block covers only itself
    assert len(greedy_cover(6, 3, 3).blocks) == comb(6, 3)
    empty = greedy_cover(0, 0, 0)
    assert verify_cover(empty) and len(empty.blocks) == 1


def test_deterministic_and_cached():
    a = greedy_cover(7, 4, 2)
    assert greedy_cover(7, 4, 2) is a  # memoized
    greedy_cover.cache_clear()
    b = greedy_cover(7, 4, 2)
    assert b is not a and b.blocks == a.blocks  # same greedy choices every run


def test_parameter_validation():
    for v, k, s in [(-1, 0, 0), (3, 4, 1), (4, 2, 3), (29, 3, 2)]:
        with pytest.raises(ValueError):
            greedy_cover(v, k, s)


def test_candidate_budget_keeps_every_design_up_to_v_12():
    largest = max(comb(v, k) * comb(k, s) for v in range(13) for k in range(v + 1)
                  for s in range(k + 1))
    assert largest == comb(12, 8) * comb(8, 4) <= MAX_CANDIDATE_ENTRIES
    # past the budget: rejected before any candidate set is built
    with pytest.raises(ValueError, match="candidate entries"):
        greedy_cover(24, 12, 6)
    assert verify_cover(greedy_cover(24, 22, 20))  # 63756 entries, the largest accepted


def test_visit_budget_keeps_every_design_up_to_v_12():
    def work(v, k, s):
        return math.ceil(cover_size_bound(v, k, s)) * comb(v, k) * (comb(k, s) + 4)

    largest = max(work(v, k, s) for v in range(13) for k in range(v + 1)
                  for s in range(k + 1))
    assert largest == work(12, 6, 6) <= MAX_CANDIDATE_WORK
    assert verify_cover(greedy_cover(24, 4, 2))  # 1381380 visits of 10 elements
    # few candidate entries, but a pick scans all 54264 candidates and the
    # greedy bound allows 54265 picks: rejected before the first
    with pytest.raises(ValueError, match="candidate visits"):
        greedy_cover(21, 6, 6)
    # fewer visits than (15, 4, 4), but each intersects C(18, 17) = 18 subsets
    with pytest.raises(ValueError, match="candidate visits"):
        greedy_cover(21, 18, 17)


def test_verify_rejects_bad_designs():
    good = greedy_cover(5, 3, 2)
    # drop a block: some pair goes uncovered
    if len(good.blocks) > 1:
        broken = CoverDesign(5, 3, 2, good.blocks[:-1])
        assert not verify_cover(broken)
    # wrong block size
    assert not verify_cover(CoverDesign(5, 3, 2, (0b11,)))
    # block outside the ground set
    assert not verify_cover(CoverDesign(5, 3, 2, (0b100011 | good.blocks[0],)))
    # no blocks at all cannot cover anything when targets exist
    assert not verify_cover(CoverDesign(3, 2, 1, ()))


def test_bound_is_classic_greedy_guarantee():
    v, k, s = 10, 4, 2
    per_block = comb(k, s)
    expected = (1 + math.log(per_block)) * comb(v, s) / per_block + 1
    assert cover_size_bound(v, k, s) == pytest.approx(expected)
