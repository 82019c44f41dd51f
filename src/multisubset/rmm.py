"""Rectangular matrix product kernels for the transform algorithms.

Both operands share the column index set: multiply(A, B) returns
P[i][j] = sum_c A[i][c] * B[j][c], i.e. A times B transposed.  The
classical kernel performs exactly rows(A) * cols * rows(B) ring
multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import Ring


@dataclass
class SubMatrix:
    """Dense block with explicit row/column labels (bitmasks)."""

    rows: list[int]
    cols: list[int]
    entries: list[list]

    def __post_init__(self):
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
    """Triple-loop product; multiplication count is exactly R1 * C * R2."""

    id = "classical"

    def multiply(self, ring: Ring, a: SubMatrix, b: SubMatrix, stats=None):
        if a.cols != b.cols:
            raise ValueError("operands must share the column index set")
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
        if stats is not None:
            stats.rmm_muls += len(a.rows) * len(a.cols) * len(b.rows)
        return out
