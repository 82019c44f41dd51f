import random

import numpy as np
import pytest

from multisubset import ClassicalBackend, CountingRing, OpCounter, PipelineStats, SubMatrix
from multisubset.arrays import element_form


def _random_block(ring, rows, cols, rng):
    entries = [[ring.sample(rng) for _ in cols] for _ in rows]
    return SubMatrix(rows=list(rows), cols=list(cols), entries=element_form(ring).from_rows(entries)[None])


def u64(values):
    return np.array(values, dtype=np.uint64)


def test_submatrix_validation():
    with pytest.raises(ValueError):
        SubMatrix(rows=[1, 2], cols=[0], entries=u64([[[5]]]))
    with pytest.raises(ValueError):
        SubMatrix(rows=[1], cols=[0, 3], entries=u64([[[5]]]))


def test_classical_small(modp):
    a = SubMatrix(rows=[0, 1], cols=[0, 1, 2], entries=u64([[[1, 2, 3], [4, 5, 6]]]))
    b = SubMatrix(rows=[0], cols=[0, 1, 2], entries=u64([[[7, 8, 9]]]))
    out = ClassicalBackend().multiply(modp, a, b)
    # inner products with rows of b (columns are shared)
    assert out.tolist() == [[[1 * 7 + 2 * 8 + 3 * 9], [4 * 7 + 5 * 8 + 6 * 9]]]


def test_classical_mul_count(modp):
    rng = random.Random(0)
    a = _random_block(modp, list(range(3)), list(range(5)), rng)
    b = _random_block(modp, list(range(4)), list(range(5)), rng)
    stats = PipelineStats()
    ClassicalBackend().multiply(modp, a, b, stats)
    assert stats.rmm_muls == 3 * 5 * 4


@pytest.mark.parametrize("m", [1, 3])
def test_object_product_costs_r1_c_r2_ring_muls_and_adds(modp, m):
    # one product over CountingRing, on a batch of m blocks of 3 x 5 by 4 x 5:
    # one outer product per column, summed from zero, equal to the uint64 form
    counter = OpCounter()
    ring = CountingRing(modp, counter)
    rng = random.Random(m)
    a = [[[modp.sample(rng) for _ in range(5)] for _ in range(3)] for _ in range(m)]
    b = [[[modp.sample(rng) for _ in range(5)] for _ in range(4)] for _ in range(m)]
    cols = list(range(5 * m))
    stats = PipelineStats()
    counter.reset()
    out = ClassicalBackend().multiply(
        ring, SubMatrix(list(range(3)), cols, np.array(a, dtype=object)),
        SubMatrix(list(range(4)), cols, np.array(b, dtype=object)), stats,
    )
    assert stats.rmm_muls == 3 * (5 * m) * 4
    assert counter.muls == counter.adds == stats.rmm_muls
    assert out.shape == (m, 3, 4)
    assert out.tolist() == ClassicalBackend().multiply(
        modp, SubMatrix(list(range(3)), cols, u64(a)), SubMatrix(list(range(4)), cols, u64(b)),
    ).tolist()


def test_column_mismatch_rejected(modp):
    a = SubMatrix(rows=[0], cols=[0, 1], entries=u64([[[1, 2]]]))
    b = SubMatrix(rows=[0], cols=[0, 2], entries=u64([[[1, 2]]]))
    with pytest.raises(ValueError):
        ClassicalBackend().multiply(modp, a, b)
