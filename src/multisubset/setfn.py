"""Set functions over an n-element ground set and their lattice transforms.

A set function is a dense table of 2**n ring values indexed by bitmask.
Provides the fast zeta transform (sums over subsets), its Moebius
inverse, and subset convolution in both the naive 3**n form and the
ranked O(2**n * n**2) form.

The zeta and Moebius transforms run as reshaped butterflies on one
array of the ring's element form (`arrays.element_form`, imported on the
first call): uint64 over exactly `PrimeField(2^61 - 1)`, with every value
reduced into [0, p), and object arrays calling the ring's own methods
over every other ring, so `CountingRing` counts one operation per
addition.  They still take and return list-valued set functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bitops import size_buckets, submasks
from .ring import Ring

MAX_GROUND_SET = 24


def _check_n(n: int):
    if not 0 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground set size must be in [0, {MAX_GROUND_SET}], got {n}")


@dataclass
class SetFunction:
    """Dense table of 2**n ring values; values[mask] is f(S) for bitmask S."""

    ring: Ring
    n: int
    values: list

    def __post_init__(self):
        _check_n(self.n)
        if len(self.values) != 1 << self.n:
            raise ValueError(
                f"need {1 << self.n} values for n={self.n}, got {len(self.values)}"
            )

    @classmethod
    def constant(cls, ring: Ring, n: int, value) -> "SetFunction":
        _check_n(n)
        return cls(ring, n, [value] * (1 << n))

    @classmethod
    def zeros(cls, ring: Ring, n: int) -> "SetFunction":
        return cls.constant(ring, n, ring.zero)

    @classmethod
    def indicator(cls, ring: Ring, n: int, mask: int) -> "SetFunction":
        f = cls.zeros(ring, n)
        f.values[mask] = ring.one
        return f

    def copy(self) -> "SetFunction":
        return SetFunction(self.ring, self.n, list(self.values))


@dataclass
class Family:
    """n set functions f_0 .. f_{n-1} over the same n-element ground set."""

    ring: Ring
    n: int
    members: list = field(default_factory=list)

    def __post_init__(self):
        _check_n(self.n)
        if len(self.members) != self.n:
            raise ValueError(
                f"family over {self.n} elements needs {self.n} members, "
                f"got {len(self.members)}"
            )
        for f in self.members:
            if f.n != self.n:
                raise ValueError("family members must share the ground set size")


def values_equal(ring: Ring, xs, ys) -> bool:
    """Elementwise ring equality of two value tables."""
    if len(xs) != len(ys):
        return False
    return all(ring.eq(x, y) for x, y in zip(xs, ys))


def zeta_transform(f: SetFunction) -> SetFunction:
    """g(T) = sum of f(S) over S subset of T.

    Standard in-place butterfly, exactly n * 2**(n-1) ring additions.
    """
    return _butterfly(f, subtract=False)


def moebius_transform(g: SetFunction) -> SetFunction:
    """Inverse of zeta_transform; n * 2**(n-1) addition-class operations."""
    return _butterfly(g, subtract=True)


def _butterfly(f: SetFunction, subtract: bool) -> SetFunction:
    """Zeta (or, with `subtract`, Moebius) on one array of the element form.

    Bit i is one butterfly on the table viewed as (2^(n-1-i), 2, 2^i):
    the half with the bit gets the half without it added (or subtracted).
    """
    from .arrays import element_form

    form = element_form(f.ring)
    x = form.from_rows([f.values])[0]
    step = form.sub if subtract else form.add
    for i in range(f.n):
        halves = x.reshape(1 << (f.n - 1 - i), 2, 1 << i)
        step(halves[:, 1, :], halves[:, 0, :])
    return SetFunction(f.ring, f.n, x.tolist())


def _check_pair(f: SetFunction, g: SetFunction):
    if f.n != g.n:
        raise ValueError(f"ground set mismatch: {f.n} vs {g.n}")


def subset_convolution_naive(f: SetFunction, g: SetFunction) -> SetFunction:
    """h(T) = sum over S subset of T of f(S) * g(T \\ S), by direct enumeration."""
    _check_pair(f, g)
    ring = f.ring
    fv, gv = f.values, g.values
    out = []
    for mask in range(1 << f.n):
        acc = ring.zero
        for sub in submasks(mask):
            acc = ring.add(acc, ring.mul(fv[sub], gv[mask ^ sub]))
        out.append(acc)
    return SetFunction(ring, f.n, out)


def subset_convolution(f: SetFunction, g: SetFunction) -> SetFunction:
    """Subset convolution via ranked zeta transforms, O(2**n * n**2) ring ops.

    Splits each input by subset size, zeta-transforms every slice, forms the
    size-k pointwise products, and Moebius-inverts the size matching |T|.
    """
    _check_pair(f, g)
    ring = f.ring
    n = f.n
    size = 1 << n
    buckets = size_buckets(n)

    def ranked_zetas(sf: SetFunction) -> list[list]:
        slices = []
        for r in range(n + 1):
            sl = SetFunction.zeros(ring, n)
            for mask in buckets[r]:
                sl.values[mask] = sf.values[mask]
            slices.append(zeta_transform(sl).values)
        return slices

    fz = ranked_zetas(f)
    gz = ranked_zetas(g)

    out = [ring.zero] * size
    for k in range(n + 1):
        acc = [ring.zero] * size
        for r in range(k + 1):
            fr = fz[r]
            gq = gz[k - r]
            for mask in range(size):
                acc[mask] = ring.add(acc[mask], ring.mul(fr[mask], gq[mask]))
        hk = moebius_transform(SetFunction(ring, n, acc))
        for mask in buckets[k]:
            out[mask] = hk.values[mask]
    return SetFunction(ring, n, out)
