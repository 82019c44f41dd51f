import random

import pytest

from multisubset import ClassicalBackend, PipelineStats, SubMatrix


def _random_block(ring, rows, cols, rng):
    entries = [[ring.sample(rng) for _ in cols] for _ in rows]
    return SubMatrix(rows=list(rows), cols=list(cols), entries=entries)


def test_submatrix_validation():
    with pytest.raises(ValueError):
        SubMatrix(rows=[1, 2], cols=[0], entries=[[5]])
    with pytest.raises(ValueError):
        SubMatrix(rows=[1], cols=[0, 3], entries=[[5]])


def test_classical_small(modp):
    a = SubMatrix(rows=[0, 1], cols=[0, 1, 2], entries=[[1, 2, 3], [4, 5, 6]])
    b = SubMatrix(rows=[0], cols=[0, 1, 2], entries=[[7, 8, 9]])
    out = ClassicalBackend().multiply(modp, a, b)
    # inner products with rows of b (columns are shared)
    assert out == [[1 * 7 + 2 * 8 + 3 * 9], [4 * 7 + 5 * 8 + 6 * 9]]


def test_classical_mul_count(modp):
    rng = random.Random(0)
    a = _random_block(modp, list(range(3)), list(range(5)), rng)
    b = _random_block(modp, list(range(4)), list(range(5)), rng)
    stats = PipelineStats()
    ClassicalBackend().multiply(modp, a, b, stats)
    assert stats.rmm_muls == 3 * 5 * 4


def test_column_mismatch_rejected(modp):
    a = SubMatrix(rows=[0], cols=[0, 1], entries=[[1, 2]])
    b = SubMatrix(rows=[0], cols=[0, 2], entries=[[1, 2]])
    with pytest.raises(ValueError):
        ClassicalBackend().multiply(modp, a, b)
