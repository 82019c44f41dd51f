"""The element forms of the one array executor.

Every fast plan (`columns`, `rows-columns`, `cover`), the zeta and
Moebius transforms and the DAG rounds run on numpy arrays, for every
ring.  `element_form` picks how a ring's values sit in those arrays:

* the uint64 form, for exactly `PrimeField(2^61 - 1)`: the `m61` module,
  exact arithmetic mod p on uint64 with a float64 BLAS kernel;
* the object form (`ObjectForm`), for every other ring: object arrays of
  the ring's own values, whose operations are the ring's methods through
  `np.frompyfunc`, so a `CountingRing` still sees and counts every one.

A form has `dtype`, `zero`, `one` and these operations: `from_rows`
(rows of ring values to a 2-D array), `mul` (elementwise, broadcasting,
into `out` when given), in-place `add`, `sub` and `neg`, `product` (a
matrix times another transposed, block by block for a batch) and `sums`
(one run's accumulator of sums per index: `add_at(idx, vals)` and
`table()` as often as the plan asks).  The bracket build, the scatter
and the direct superset scan (`mst`) and the zeta/Moebius butterfly
(`setfn`) are written once against them.

`m61` is imported for the uint64 form only, since it sets a malloc option
on import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ring import MERSENNE61, PrimeField, Ring
from .setfn import Family, SetFunction


def element_form(ring: Ring):
    """The uint64 form (`m61`) for exactly PrimeField(2^61 - 1), not a
    wrapper of it; the object form for every other ring."""
    if type(ring) is PrimeField and ring.p == MERSENNE61:
        from . import m61

        return m61
    return ObjectForm(ring)


class ObjectForm:
    """The object form: a ring's values in object arrays, its methods as ufuncs.

    Every operation is one call of the ring's method per element, so a
    `CountingRing` counts the same operations a Python loop would make.
    """

    dtype = np.dtype(object)

    def __init__(self, ring: Ring):
        self.zero, self.one = ring.zero, ring.one
        self._add = np.frompyfunc(ring.add, 2, 1)
        self._sub = np.frompyfunc(ring.sub, 2, 1)
        self._neg = np.frompyfunc(ring.neg, 1, 1)
        self._mul = np.frompyfunc(ring.mul, 2, 1)

    def from_rows(self, rows: list) -> np.ndarray:
        return np.array(rows, dtype=object)

    def mul(self, a, b, out=None):
        return self._mul(a, b, out=out)

    def add(self, a, b):
        return self._add(a, b, out=a)

    def sub(self, a, b):
        return self._sub(a, b, out=a)

    def neg(self, a):
        return self._neg(a, out=a)

    def sums(self, size: int) -> "ObjectSums":
        return ObjectSums(self._add, np.full(size, self.zero, dtype=object))

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(..., r1, c) times (..., r2, c) transposed: one outer product per
        column, summed from zero in column order (r1 * c * r2 muls and adds)."""
        out = np.full((*a.shape[:-1], b.shape[-2]), self.zero, dtype=object)
        for k in range(a.shape[-1]):
            self.add(out, self.mul(a[..., k, None], b[..., None, :, k]))
        return out


class ObjectSums:
    """Sums per index of object values: a zero table that every term is
    added into as it comes, by the ring's add (`frompyfunc(ring.add).at`).
    A read returns a copy, so later terms leave it as it was."""

    def __init__(self, add, table: np.ndarray):
        self._add, self._table = add, table

    def add_at(self, idx: np.ndarray, vals: np.ndarray) -> None:
        self._add.at(self._table, idx, vals)

    def table(self) -> np.ndarray:
        return self._table.copy()


@dataclass
class ArrayFamily:
    """A family as one (n, 2^n) array of its ring's element form.

    values[i, S] is f_i(S).  `of` builds it from a list `Family` (the
    uint64 form reduces member values outside [0, p)); the DAG rounds
    build theirs directly (`dag.round_family`).
    """

    ring: Ring
    n: int
    values: np.ndarray
    form: object

    @classmethod
    def of(cls, fam) -> "ArrayFamily":
        """`fam` itself when it is an ArrayFamily, else its members in one array."""
        if isinstance(fam, cls):
            return fam
        form = element_form(fam.ring)
        values = form.from_rows([m.values for m in fam.members])
        return cls(fam.ring, fam.n, values.reshape(fam.n, 1 << fam.n), form)

    def to_family(self) -> Family:
        """The members as a list `Family` of Python values, for the naive oracle."""
        rows = self.values.tolist()
        return Family(self.ring, self.n, [SetFunction(self.ring, self.n, r) for r in rows])
