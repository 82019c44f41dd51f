"""The uint64 element form of the array executor: exact arithmetic mod p = 2^61 - 1.

`arrays.element_form` returns this module itself for exactly
`PrimeField(2^61 - 1)`; its `dtype`, `zero`, `one`, `from_rows`, `mul`,
`add`, `sub`, `neg`, `product` and `sums` are the operations the one
executor (`mst`, `setfn`, `dag`) is written against.

Every value is a uint64 in [0, p).  Elementwise products never leave
uint64: `mul` splits each operand into a 30-bit high and a 31-bit low
half, every partial product fits in 64 bits, and with 2^62 = 2 and
2^61 = 1 (mod p) their sum stays below 2^63 + 2^33, which one `fold`
reduces; multiplying by a power of two is a 61-bit rotation.  A run's
sums by index (`Sums`) add the 32-bit halves of its terms into two
uint64 tables and fold them mod p when read: exact while no index gets
2^32 terms before a read or 2^31 between reads, and a plan gives an
index at most 2^25.  The matrix product runs through float64 BLAS on
three limbs of at most 21 bits: per column chunk, each operand's limbs
are extracted once, and one `np.matmul` per limb of a gives its three
limb-pair blocks with b.
A block entry sums products below 2^42, an exact float64 while a chunk
holds at most 2^11 columns; each block is cast and added to a uint64 sum
per degree, folded mod p every 2^20 columns, before it can pass 2^64.

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

# Columns per kernel product chunk.  Its float64 block entries are exact
# up to 2^11 columns (a column adds a limb product below 2^42); wider
# chunks make fewer, faster BLAS calls but hold 3 (r1 + r2) float64 limbs
# per column.  At 192, dag-rounds' products (64 x 562 by 32 x 562) take
# three chunks, and the limbs of n = 19's `columns` product (1024 x 43796
# by 512 x 43796) hold 7 MB.
KERNEL_CHUNK_COLUMNS = 192
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
_MASK31 = np.uint64((1 << 31) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)
_U1, _U30, _U31, _U32, _U61 = (np.uint64(k) for k in (1, 30, 31, 32, 61))

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
    np.subtract(x, P, out=hi)  # wraps past x where x < p
    return np.minimum(x, hi, out=x)


def mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise a * b mod p for uint64 operands in [0, p); broadcasts.
    The product goes into `out` when given, which must not overlap a or b.

    Each operand splits as a = a1 2^31 + a0 with a1 < 2^30 and a0 < 2^31.
    With x = a1 b0 + a0 b1 < 2^62 and 2^62 = 2 (mod p),
    a b = 2 a1 b1 + (x >> 30) + (x mod 2^30) 2^31 + a0 b0 (mod p), a sum
    below 2^63 + 2^33 that one `fold` reduces: 21 numpy calls, 18 of them
    full-size when b is a broadcast row.
    """
    a1, b1 = a >> _U31, b >> _U31
    a0, b0 = a & _MASK31, b & _MASK31
    x = a1 * b0
    t = a0 * b1
    x += t
    out = np.multiply(a1, b1 << _U1, out=out)  # 2 a1 b1 < 2^61
    np.multiply(a0, b0, out=t)
    out += t  # a0 b0 < 2^62
    np.right_shift(x, _U30, out=t)
    out += t
    # (x mod 2^30) 2^31: the bits of x << 31 below 2^61
    x <<= _U31
    x &= P
    out += x
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


def _limbs(x: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """The three 21-bit limbs of x (m, r, w), low first, as float64 into
    out (m, 3 r, w): rows i r .. i r + r - 1 hold limb i.  Each limb is
    cast from scratch's int64 view, which holds it exactly."""
    r, limb = x.shape[1], scratch.view(np.int64)
    np.bitwise_and(x, _MASK21, out=scratch)
    out[:, :r] = limb
    np.right_shift(x, np.uint64(_LIMB_BITS), out=scratch)
    scratch &= _MASK21
    out[:, r:2 * r] = limb
    np.right_shift(x, np.uint64(2 * _LIMB_BITS), out=scratch)  # below 2^19
    out[:, 2 * r:] = limb


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a times b transposed mod p, for uint64 entries in [0, p).

    Given (m, r1, c) and (m, r2, c) arrays, a batch of m blocks, the
    product is taken block by block into (m, r1, r2).  One column makes
    it an elementwise outer product.  Otherwise, per column chunk of width
    w, each operand's three 21-bit limbs are stacked into one
    (m, 3 r, w) float64 array, and one `np.matmul` per limb i of a gives
    the blocks (i, j) for all three limbs j of b, an (m, r1, 3 r2)
    array.  A block entry sums w products below 2^42, an exact float64
    for w <= 2^11.  Each block is cast and added to a uint64 sum for
    degree i + j, folded mod p every KERNEL_FOLD_COLUMNS columns; degree
    k weighs 2^(21 k) = 2^(21 k mod 61) (mod p).  The float64 products
    run on the calling thread (`_one_blas_thread`).
    """
    (m, r1, cols), r2 = a.shape, b.shape[1]
    if cols == 1:
        return mul(a, b[:, None, :, 0])
    by_degree = np.zeros((5, m, r1, r2), dtype=np.uint64)
    # each block's exact float64 entries add in int64, whose wrapping sums
    # are the uint64 sums' bits
    cast_into = by_degree.view(np.int64)
    width = min(cols, KERNEL_CHUNK_COLUMNS)
    la, lb = np.empty((m, 3 * r1, width)), np.empty((m, 3 * r2, width))
    scratch = np.empty((m, max(r1, r2), width), dtype=np.uint64)
    part = np.empty((m, r1, 3 * r2))
    since_fold = 0
    with _one_blas_thread():
        for c0 in range(0, cols, KERNEL_CHUNK_COLUMNS):
            w = min(width, cols - c0)
            if since_fold + w > KERNEL_FOLD_COLUMNS:
                fold(by_degree)
                since_fold = 0
            since_fold += w
            _limbs(a[..., c0:c0 + w], scratch[:, :r1, :w], la[..., :w])
            _limbs(b[..., c0:c0 + w], scratch[:, :r2, :w], lb[..., :w])
            for i in range(3):
                np.matmul(la[:, i * r1:(i + 1) * r1, :w], lb[..., :w].swapaxes(1, 2), out=part)
                for j in range(3):
                    into = cast_into[i + j]
                    np.add(into, part[..., j * r2:(j + 1) * r2], out=into,
                           dtype=np.int64, casting="unsafe")
    out = fold(by_degree[0]).copy()
    for k in range(1, 5):
        out += shift(fold(by_degree[k]), _LIMB_BITS * k % 61)  # each term below p
    return fold(out)


class Sums:
    """Sums per index of uint64 values in [0, p), folded mod p when read.

    `add_at` adds each term's low and high 32-bit halves into two uint64
    tables, `lo` and `hi`; `table` folds them in place and returns
    lo + hi 2^32 mod p as a new array.  A read leaves both halves below p
    and congruent to their sums, so adding may go on after it.  An
    index's halves stay below 2^64 while it gets fewer than 2^32 terms
    before the first read and 2^31 between two reads.  A plan gives each
    T at most one term per column S inside T, so at most 2^25 even for a
    DAG round over MAX_GROUND_SET + 1 elements.
    """

    def __init__(self, size: int):
        self.lo = np.zeros(size, dtype=np.uint64)
        self.hi = np.zeros(size, dtype=np.uint64)

    def add_at(self, idx: np.ndarray, vals: np.ndarray) -> None:
        """Add vals[k] at idx[k], for every k."""
        np.add.at(self.lo, idx, vals & _MASK32)
        np.add.at(self.hi, idx, vals >> _U32)

    def table(self) -> np.ndarray:
        """The sums mod p, in the array `shift` allocates."""
        return add(shift(fold(self.hi), 32), fold(self.lo))


sums = Sums  # the form's name for one run's accumulator: `sums(2^n)`
