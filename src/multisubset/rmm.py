"""Rectangular matrix product kernels for the transform algorithms.

Both operands share the column index set: multiply(A, B) returns
P[i][j] = sum_c A[i][c] * B[j][c], i.e. A times B transposed.  The
classical kernel performs exactly rows(A) * cols * rows(B) ring
multiplications, counted in `PipelineStats.rmm_muls`.

Entries are either lists of ring values, multiplied one Python ring
operation per term, or (on the M61 array path) uint64 arrays in [0, p),
multiplied exactly through float64 BLAS: each operand is split into three
limbs of at most 21 bits, float64 products per column chunk sum the 9
limb-pair blocks exactly, and the blocks are recombined mod p.  The BLAS products
run on the calling thread, so no OpenBLAS worker is left spinning.  An
array operand may hold a batch of m equal-shape blocks, multiplied block
by block; its labels count each block's rows and all m blocks' columns,
so the count R1 * C * R2 covers the whole batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ring import Ring, is_m61


@dataclass
class SubMatrix:
    """Dense block with explicit row/column labels (bitmasks)."""

    rows: list[int]
    cols: list[int]
    entries: list  # or, on the array path, a uint64 array

    def __post_init__(self):
        if not isinstance(self.entries, list):
            # A batch (m, r, c): rows[i] holds the i-th rows of the m blocks,
            # cols their m column lists of length c concatenated.
            *batch, r, c = self.entries.shape
            if r != len(self.rows) or c * math.prod(batch) != len(self.cols):
                raise ValueError("entry shape does not match row and column labels")
            return
        if len(self.entries) != len(self.rows):
            raise ValueError("entry row count does not match row labels")
        for row in self.entries:
            if len(row) != len(self.cols):
                raise ValueError("entry column count does not match column labels")


class RmmBackend:
    """Interface for rectangular products of bracket matrices.

    multiply(ring, a, b, stats) returns the R1 x R2 grid of inner
    products between rows of `a` and rows of `b` (both indexed by the
    shared column list), adding kernel multiplications to stats.rmm_muls.
    """

    id = "abstract"

    def multiply(self, ring: Ring, a: SubMatrix, b: SubMatrix, stats=None):
        raise NotImplementedError


class ClassicalBackend(RmmBackend):
    """Triple loop on lists, the limb-split M61 product (`m61.product`) on arrays.

    The M61 product's float64 BLAS calls run on the calling thread alone
    and leave OpenBLAS's thread count as they found it.  Either way the
    multiplication count is exactly R1 * C * R2.
    """

    id = "classical"

    def multiply(self, ring: Ring, a: SubMatrix, b: SubMatrix, stats=None):
        if a.cols != b.cols:
            raise ValueError("operands must share the column index set")
        if isinstance(a.entries, list):
            add, mul, zero = ring.add, ring.mul, ring.zero
            out = []
            for arow in a.entries:
                orow = []
                for brow in b.entries:
                    acc = zero
                    for x, y in zip(arow, brow):
                        acc = add(acc, mul(x, y))
                    orow.append(acc)
                out.append(orow)
        elif is_m61(ring):
            from .m61 import product

            out = product(a.entries, b.entries)
        else:
            raise ValueError("array entries need PrimeField(2^61 - 1)")
        if stats is not None:
            stats.rmm_muls += len(a.rows) * len(a.cols) * len(b.rows)
        return out
