"""The uint64 element form of the array executor: exact arithmetic mod p = 2^61 - 1.

`arrays.element_form` returns this module itself for exactly
`PrimeField(2^61 - 1)`; its `dtype`, `zero`, `one`, `from_rows`, `mul`,
`add`, `sub`, `neg`, `product` and `sums` are the operations the one
executor (`mst`, `setfn`, `dag`) is written against.

Every value is a uint64 in [0, p).  Elementwise products never leave
uint64: each operand is split into 32-bit halves, every partial product
fits in 64 bits, and the parts above 2^61 fold back with 2^61 = 1
(mod p); multiplying by a power of two is a 61-bit rotation.  A run's
sums by index (`Sums`) add the 32-bit halves of its terms into two
uint64 tables and fold them mod p once, at the end: exact while no
index gets 2^32 terms, and a plan gives an index at most 2^25.  The
matrix product runs through float64 BLAS on three limbs of at most 21
bits, exact while every float64 sum stays at most 2^53.  A kernel
block entry sums one limb product below 2^42 per column, so a chunk
holds at most 2^11 columns; the blocks of one degree add up in uint64,
at most three such products per column, and are folded mod p every
2^20 columns, before they can pass 2^64.

The BLAS products run on the calling thread: with its default threads,
OpenBLAS hands each product to a second thread that then busy-waits
while the rest of the call runs, nearly doubling the CPU seconds of a
`columns` call with no gain in wall time at these sizes.  `product` sets
the thread count of the OpenBLAS library numpy loaded to one for its
matrix products and gives the previous count back afterwards; where no
such library is found it runs them as numpy would.

Only `arrays.element_form` imports this module, on the first call over
`PrimeField(2^61 - 1)`, so runs over other rings never load it.

On import the module asks glibc's malloc to keep `HEAP_TOP_PAD_BYTES`
of freed memory at the top of the heap (`mallopt(M_TOP_PAD)`).  With
glibc's default pad, freeing a step's temporaries (about 0.5 MB each)
trims the heap, and the next chunk faults the same pages back in: some
2700 minor faults per n = 13 `columns` call, none with the pad.  The
price is that once the uint64 form has run, the process keeps up to the
pad of freed heap instead of returning it to the OS.  Without glibc's
`mallopt` (another libc, macOS, Windows) nothing changes.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

import numpy as np

from .ring import MERSENNE61

# Columns per kernel product chunk: keep each float64 sum of limb products
# exact (at most 2^11 columns of products below 2^42).
KERNEL_CHUNK_COLUMNS = 128
# Kernel columns summed in uint64 per degree between folds mod p: a value
# below p plus 2^20 columns of three products below 2^42 is below 2^64.
KERNEL_FOLD_COLUMNS = 1 << 20
# Freed heap glibc keeps above the top of the heap: the smallest of 4, 8
# and 16 MiB under which the steady-state calls of the benchmark's
# workloads fault no page back in (4 MiB left 120-195 faults per n = 13
# `columns` call).
HEAP_TOP_PAD_BYTES = 8 << 20
_M_TOP_PAD = -2  # glibc's mallopt parameter number

P = np.uint64(MERSENNE61)
# The element form's array type and constants (see arrays.element_form).
dtype = np.dtype(np.uint64)
zero, one = 0, 1
_LIMB_BITS = 21
_MASK21 = np.uint64((1 << _LIMB_BITS) - 1)
_MASK29 = np.uint64((1 << 29) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)
_U3, _U29, _U32, _U61 = (np.uint64(k) for k in (3, 29, 32, 61))

# (get, set) thread-count functions of OpenBLAS: numpy's wheel, then a
# plain build.
_BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _pad_heap_top() -> bool:
    """Set glibc's M_TOP_PAD to HEAP_TOP_PAD_BYTES; False where there is no glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):  # no confstr, name or library
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_TOP_PAD, HEAP_TOP_PAD_BYTES) == 1


HEAP_TOP_PADDED = _pad_heap_top()


def fold(x: np.ndarray) -> np.ndarray:
    """Reduce a uint64 array into [0, p) in place and return it."""
    hi = x >> _U61
    x &= P
    x += hi  # below 2^61 + 8
    np.subtract(x, P, out=x, where=x >= P)
    return x


def mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise a * b mod p for uint64 operands in [0, p); broadcasts.
    The product goes into `out` when given, which must not overlap a or b."""
    a_hi, b_hi = a >> _U32, b >> _U32
    a_lo, b_lo = a & _MASK32, b & _MASK32
    # a * b = hh 2^64 + mid 2^32 + ll with hh < 2^58, mid < 2^62, ll < 2^64
    mid = a_hi * b_lo
    ll = a_lo * b_hi
    mid += ll
    np.multiply(a_lo, b_lo, out=ll)
    out = np.multiply(a_hi, b_hi, out=out)
    out <<= _U3  # 2^64 = 2^3 (mod p)
    out += ll & P
    ll >>= _U61
    out += ll
    # mid 2^32 = (mid >> 29) 2^61 + (mid mod 2^29) 2^32
    out += mid >> _U29
    mid &= _MASK29
    mid <<= _U32
    out += mid  # below 3 * 2^61 + 2^34
    return fold(out)


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b mod p into a (uint64, both in [0, p)); returns a."""
    a += b
    np.subtract(a, P, out=a, where=a >= P)
    return a


def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b mod p into a (uint64, both in [0, p)); returns a."""
    return add(a, P - b)


def neg(a: np.ndarray) -> np.ndarray:
    """-a mod p in place (uint64 in [0, p)); returns a."""
    np.subtract(P, a, out=a, where=a != 0)
    return a


def shift(x: np.ndarray, s: int) -> np.ndarray:
    """x * 2^s mod p for x < 2^61 and 0 <= s < 61: a 61-bit rotation."""
    if s == 0:
        return x.copy()
    return ((x << np.uint64(s)) & P) | (x >> np.uint64(61 - s))


def from_rows(values: list[list]) -> np.ndarray:
    """2-D uint64 array in [0, p) from rows of Python ints of any sign and size."""
    try:
        arr = np.array(values, dtype=np.uint64)
    except OverflowError:  # a negative value or one of 2^64 or more
        arr = np.array([[v % MERSENNE61 for v in row] for row in values], dtype=np.uint64)
    for row in arr:  # one row at a time keeps fold's temporaries small
        fold(row)
    return arr


@functools.cache
def _blas_thread_calls():
    """OpenBLAS's (get, set) thread-count calls in the library numpy loaded, or None.

    Looked up through numpy's core extension module, whose handle also
    finds the symbols of the libraries it was linked against.
    """
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for get_name, set_name in _BLAS_THREAD_FUNCTIONS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        set_.restype = None
        return get, set_
    return None


_blas_lock = threading.Lock()
_blas_users = 0  # products inside _one_blas_thread
_blas_before = 0  # the thread count when the first of them entered


@contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread, then give the count back.

    The count is process-wide, so products that overlap in several
    Python threads share one setting: the first in sets it to one, the
    last out restores it.
    """
    global _blas_users, _blas_before
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_lock:
        if _blas_users == 0:
            _blas_before = get()
            set_(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                set_(_blas_before)


def _limb(x: np.ndarray, k: int, scratch: np.ndarray, out: np.ndarray) -> None:
    """Bits 21k .. 21k + 20 of x (uint64) as float64 into out."""
    np.right_shift(x, np.uint64(_LIMB_BITS * k), out=scratch)
    scratch &= _MASK21
    out[...] = scratch


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a times b transposed mod p, for uint64 entries in [0, p).

    Given (m, r1, c) and (m, r2, c) arrays, a batch of m blocks, the
    product is taken block by block into (m, r1, r2).  One column makes
    it an elementwise outer product.  Otherwise, per column chunk of width
    w, the three 21-bit limbs of b form one (3 r2 x w) float64 matrix;
    limb i of a times it gives the blocks (i, j) for all three limbs j of
    b.  A block entry sums w products below 2^42, an exact float64 for
    w <= 2^11.  The blocks add up by degree i + j in uint64, folded mod p
    every KERNEL_FOLD_COLUMNS columns, and degree k weighs
    2^(21 k) = 2^(21 k mod 61) (mod p).  The float64 products run on
    the calling thread (`_one_blas_thread`).
    """
    (m, r1, cols), r2 = a.shape, b.shape[1]
    if cols == 1:
        return mul(a, b[:, None, :, 0])
    by_degree = np.zeros((5, m, r1, r2), dtype=np.uint64)
    width = min(cols, KERNEL_CHUNK_COLUMNS)
    la, ua = np.empty((m, r1, width)), np.empty((m, r1, width), dtype=np.uint64)
    lb, ub = np.empty((m, 3 * r2, width)), np.empty((m, r2, width), dtype=np.uint64)
    part = np.empty((m, r1, 3 * r2))
    block = np.empty((m, r1, r2), dtype=np.uint64)
    since_fold = 0
    with _one_blas_thread():
        for c0 in range(0, cols, KERNEL_CHUNK_COLUMNS):
            w = min(width, cols - c0)
            if since_fold + w > KERNEL_FOLD_COLUMNS:
                fold(by_degree)
                since_fold = 0
            since_fold += w
            for j in range(3):
                _limb(b[..., c0:c0 + w], j, ub[..., :w], lb[:, j * r2:(j + 1) * r2, :w])
            for i in range(3):
                _limb(a[..., c0:c0 + w], i, ua[..., :w], la[..., :w])
                np.matmul(la[..., :w], lb[..., :w].swapaxes(1, 2), out=part)
                for j in range(3):
                    np.copyto(block, part[..., j * r2:(j + 1) * r2], casting="unsafe")
                    by_degree[i + j] += block
    out = np.zeros((m, r1, r2), dtype=np.uint64)
    for k in range(5):
        out += shift(fold(by_degree[k]), _LIMB_BITS * k % 61)  # each term below p
    return fold(out)


class Sums:
    """Sums per index of uint64 values in [0, p), folded mod p once.

    `add_at` adds each term's low and high 32-bit halves into two uint64
    tables, `lo` and `hi`; `table` folds them and returns
    lo + hi 2^32 mod p.  An index's halves stay below 2^64 while it gets
    fewer than 2^32 terms.  A plan gives each T at most one term per
    column S inside T, so at most 2^25 even for a DAG round over
    MAX_GROUND_SET + 1 elements, and every sum stays below 2^57.
    """

    def __init__(self, size: int):
        self.lo = np.zeros(size, dtype=np.uint64)
        self.hi = np.zeros(size, dtype=np.uint64)

    def add_at(self, idx: np.ndarray, vals: np.ndarray) -> None:
        """Add vals[k] at idx[k], for every k."""
        np.add.at(self.lo, idx, vals & _MASK32)
        np.add.at(self.hi, idx, vals >> _U32)

    def table(self) -> np.ndarray:
        """The sums mod p; folds the halves in place, so it is read once."""
        return add(fold(self.lo), shift(fold(self.hi), 32))


sums = Sums  # the form's name for one run's accumulator: `sums(2^n)`
