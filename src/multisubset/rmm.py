"""Rectangular matrix product kernels for the transform algorithms.

An operand is a batch of m blocks of one shape, as a plan's `Product`
step holds them.  Both operands share the column index set:
multiply(A, B) returns P[k][i][j] = sum_c A[k][i][c] * B[k][j][c], i.e.
each block of A times the matching block of B transposed.  The classical
kernel performs exactly rows(A) * cols * rows(B) ring multiplications,
counted in `PipelineStats.rmm_muls`: the labels count each block's rows
and all m blocks' columns, so the count covers the whole batch.

Entries are arrays of the ring's element form (`arrays.element_form`),
and the kernel is the form's `product`.  On the uint64 form of
`PrimeField(2^61 - 1)` it multiplies exactly through float64 BLAS: each
operand is split into three limbs of at most 21 bits, float64 products
per column chunk sum the 9 limb-pair blocks exactly, and the blocks are
recombined mod p, with the BLAS products on the calling thread.  On the
object form it takes one outer product of ring values per column, summed
from zero, so a `CountingRing` counts R1 * C * R2 muls and as many adds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import Ring


@dataclass
class SubMatrix:
    """A batch of m dense blocks with explicit row/column labels (bitmasks).

    entries is an (m, r, c) array; rows[i] holds the i-th rows of the m
    blocks, and cols their m column lists of length c concatenated.
    """

    rows: object
    cols: object
    entries: object  # a numpy array of the ring's element form

    def __post_init__(self):
        m, r, c = self.entries.shape
        if r != len(self.rows) or m * c != len(self.cols):
            raise ValueError("entry shape does not match row and column labels")


class RmmBackend:
    """Interface for rectangular products of bracket matrices.

    multiply(ring, a, b, stats) returns the (m, R1, R2) inner products of
    the rows of `a` with the rows of `b`, block by block over the shared
    column labels, adding kernel multiplications to stats.rmm_muls.
    """

    id = "abstract"

    def multiply(self, ring: Ring, a: SubMatrix, b: SubMatrix, stats=None):
        raise NotImplementedError


class ClassicalBackend(RmmBackend):
    """The element form's product: exactly R1 * C * R2 multiplications.

    The uint64 form's float64 BLAS calls run on the calling thread alone
    and leave OpenBLAS's thread count as they found it.
    """

    id = "classical"

    def multiply(self, ring: Ring, a: SubMatrix, b: SubMatrix, stats=None):
        import numpy as np

        from .arrays import element_form

        if not np.array_equal(a.cols, b.cols):
            raise ValueError("operands must share the column index set")
        form = element_form(ring)
        if a.entries.dtype != form.dtype or b.entries.dtype != form.dtype:
            raise ValueError(f"entries must be {form.dtype} arrays for {ring!r}")
        out = form.product(a.entries, b.entries)
        if stats is not None:
            stats.rmm_muls += len(a.rows) * len(a.cols) * len(b.rows)
        return out
