"""The array path of the fast transforms: exact arithmetic mod p = 2^61 - 1.

Every value is a uint64 in [0, p).  Elementwise products never leave
uint64: each operand is split into 32-bit halves, every partial product
fits in 64 bits, and the parts above 2^61 fold back with 2^61 = 1
(mod p); multiplying by a power of two is a 61-bit rotation.  Sums by
index run through float64 `np.bincount` on the 32-bit halves, and the
matrix product through float64 BLAS on three limbs of at most 21 bits;
both are exact while every float64 sum stays at most 2^53.  A kernel
block entry sums one limb product below 2^42 per column, so a chunk
holds at most 2^11 columns; the blocks of one degree add up in uint64,
at most three such products per column, and are folded mod p every
2^20 columns, before they can pass 2^64.

The direct superset scan doubles the columns of one popcount together
on dense tables, one broadcast product per free bit.

The BLAS products run on the calling thread: with its default threads,
OpenBLAS hands each product to a second thread that then busy-waits
while the rest of the call runs, nearly doubling the CPU seconds of a
`columns` call with no gain in wall time at these sizes.  `product` sets
the thread count of the OpenBLAS library numpy loaded to one for its
matrix products and gives the previous count back afterwards; where no
such library is found it runs them as numpy would.

`mst`, `rmm`, `setfn` and `dag` import this module on the first
array-path call only, so the list path never loads it.  The chunk sizes
below bound the working set of each step.

On import the module asks glibc's malloc to keep `HEAP_TOP_PAD_BYTES`
of freed memory at the top of the heap (`mallopt(M_TOP_PAD)`).  With
glibc's default pad, freeing a step's temporaries (about 0.5 MB each)
trims the heap, and the next chunk faults the same pages back in: some
2700 minor faults per n = 13 `columns` call, none with the pad.  The
price is that once the array path has run, the process keeps up to the
pad of freed heap instead of returning it to the OS.  Without glibc's
`mallopt` (another libc, macOS, Windows) nothing changes.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .ring import MERSENNE61, Ring

# Entries of the bracket build's doubling table per column chunk (2^h rows
# times the chunk's columns; a half of more rows takes one column at a time).
BUILD_CHUNK_ENTRIES = 1 << 16
# Columns per kernel product chunk: keep each float64 sum of limb products
# exact (at most 2^11 columns of products below 2^42).
KERNEL_CHUNK_COLUMNS = 128
# Kernel columns summed in uint64 per degree between folds mod p: a value
# below p plus 2^20 columns of three products below 2^42 is below 2^64.
KERNEL_FOLD_COLUMNS = 1 << 20
# Entries of a direct-scan chunk's product table: each chunk holds columns
# of one popcount p, 2^(n - p) entries per column (a column with more is a
# chunk of its own).
SCAN_CHUNK_ENTRIES = 1 << 16
# Output entries per batch of equal-shape products (a larger product is a
# batch of its own).  Below 2^21 blocks per batch, the scatter's float64
# sums stay exact.
BATCH_OUTPUT_ENTRIES = 1 << 14
# Scan columns summed in float64 between folds mod p.  Each T gets at most
# one pair per column, so its 32-bit halves sum below 2^32 * 2^21 = 2^53.
SCAN_FOLD_COLUMNS = 1 << 21

# Freed heap glibc keeps above the top of the heap: the smallest of 4, 8
# and 16 MiB under which the steady-state calls of the benchmark's
# workloads fault no page back in (4 MiB left 120-195 faults per n = 13
# `columns` call).
HEAP_TOP_PAD_BYTES = 8 << 20
_M_TOP_PAD = -2  # glibc's mallopt parameter number

P = np.uint64(MERSENNE61)
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


def shift(x: np.ndarray, s: int) -> np.ndarray:
    """x * 2^s mod p for x < 2^61 and 0 <= s < 61: a 61-bit rotation."""
    if s == 0:
        return x.copy()
    return ((x << np.uint64(s)) & P) | (x >> np.uint64(61 - s))


def canonical(values: list[list]) -> np.ndarray:
    """2-D uint64 array in [0, p) from rows of Python ints of any sign and size."""
    try:
        arr = np.array(values, dtype=np.uint64)
    except OverflowError:  # a negative value or one of 2^64 or more
        arr = np.array([[v % MERSENNE61 for v in row] for row in values], dtype=np.uint64)
    for row in arr:  # one row at a time keeps fold's temporaries small
        fold(row)
    return arr


@dataclass
class M61Family:
    """A family over PrimeField(2^61 - 1) as one (n, 2^n) uint64 array in [0, p).

    values[i, S] is f_i(S).  `of` builds it from a list `Family`, reducing
    member values that lie outside [0, p); the DAG rounds build theirs
    directly (`dag.round_families`), and `mst.run_transform` takes either
    as it is.
    """

    ring: Ring
    n: int
    values: np.ndarray

    @classmethod
    def of(cls, fam) -> "M61Family":
        values = canonical([m.values for m in fam.members])
        return cls(fam.ring, fam.n, values.reshape(fam.n, 1 << fam.n))

    def zero_table(self) -> np.ndarray:
        return np.zeros(1 << self.n, dtype=np.uint64)


def bracket(values: np.ndarray, first_bit: int, h: int, part_mask: int,
            rows: list, cols: list[int]):
    """Row labels and bracket entries of one half (bits first_bit .. first_bit + h - 1).

    `rows` is a list of r masks, giving the labels list(rows) and an (r, c)
    array; or, for a batch of m blocks, a list of m such lists with `cols`
    their m column lists of one length c concatenated, giving an (r, m)
    label array (row i of block k at [i, k]) and an (m, r, c) array.  A
    row mask outside part_mask raises ValueError.  Per column chunk (at
    most BUILD_CHUNK_ENTRIES table entries), the products of every subset
    of the half come from doubling (subset U + {b} is subset U times f_b);
    each column's block picks its rows, and the entries whose column has
    half bits outside the row are zeroed.
    """
    by_row = np.array(rows, dtype=np.int64).T
    batch = by_row.ndim == 2
    if not batch:
        by_row = by_row[:, None]
    outside_part = by_row[(by_row & ~part_mask) != 0]
    if outside_part.size:
        raise ValueError(f"row mask {int(outside_part[0]):#x} is not within {part_mask:#x}")
    r, m = by_row.shape
    c = len(cols) // m
    local = by_row >> first_bit
    outside_row = ~by_row
    col_arr = np.array(cols, dtype=np.int64)
    out = np.empty((m, r, c), dtype=np.uint64)
    width = max(1, BUILD_CHUNK_ENTRIES >> h)
    table = np.empty((1 << h, min(len(cols), width)), dtype=np.uint64)
    for c0 in range(0, len(cols), width):
        chunk = col_arr[c0:c0 + width]
        w = len(chunk)
        sub = table[:, :w]
        sub[0] = 1
        for k in range(h):
            sub[1 << k:2 << k] = mul(sub[:1 << k], values[first_bit + k, chunk])
        if m == 1:  # one block: whole rows of the table
            entries = out[0, :, c0:c0 + w]
            np.take(sub, local[:, 0], axis=0, out=entries)
            entries[((chunk & part_mask) & outside_row) != 0] = 0
            continue
        block, at = np.divmod(np.arange(c0, c0 + w), c)
        entries = sub[local[:, block], np.arange(w)]  # (r, w)
        entries[((chunk & part_mask) & outside_row[:, block]) != 0] = 0
        out[block, :, at] = entries.T
    return (by_row, out) if batch else (list(rows), out[0])


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
    if a.ndim == 2:
        return product(a[None], b[None])[0]
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


def scatter(g: np.ndarray, rows1: np.ndarray, rows2: np.ndarray, prod: np.ndarray) -> None:
    """g[t1 | t2] += prod[k, i, j] mod p for t1 = rows1[i, k], t2 = rows2[j, k].

    prod holds the (m, r1, r2) products of a batch, and rows1, rows2 its
    (r1, m) and (r2, m) row labels (see `bracket`).  Blocks of one batch may
    hit the same T, so the entries are summed per T by bincount on their
    32-bit halves (exact: a T gets at most one entry per block).
    """
    idx = (rows1.T[:, :, None] | rows2.T[:, None, :]).ravel()
    add(g, _sum_halves(*_halves_by_index(idx, prod.ravel(), len(g))))


def superset_scan(values: np.ndarray, cols: list[int], g: np.ndarray, cut) -> int:
    """g[T] += prod_{i in T} f_i(S) for S in cols, T superset S; returns the pairs.

    `cut` (bytes, one per mask, or None) marks the T to leave out, and
    the columns it marks are skipped.  The columns run grouped by
    popcount p, in chunks of one popcount holding at most
    SCAN_CHUNK_ENTRIES table entries (a column with a larger table is a
    chunk of its own).  A chunk of c columns fills a dense (2^(n-p), c)
    product table and a matching mask table by doubling over each
    column's free bits in rank order: step q multiplies rows [0, 2^q)
    by the column's q-th free factor into rows [2^q, 2^(q+1)) and sets
    that bit in their masks.  Cut entries are computed, then dropped by
    one mask before the sums per T.
    """
    n = values.shape[0]
    size = 1 << n
    col_arr = np.array(cols, dtype=np.int64)
    if cut is not None:
        cut = np.frombuffer(cut, dtype=np.bool_)
        col_arr = col_arr[~cut[col_arr]]
    pops = np.bitwise_count(col_arr).astype(np.int64)
    order = np.argsort(pops, kind="stable")
    col_arr, pops = col_arr[order], pops[order]
    roots = np.ones(len(col_arr), dtype=np.uint64)  # prod over i in S of f_i(S)
    for b in range(n):
        has = np.flatnonzero((col_arr >> b) & 1)
        roots[has] = mul(roots[has], values[b, col_arr[has]])
    lo, hi = np.zeros(size), np.zeros(size)
    pairs = since_fold = 0
    for c0, c1 in _scan_chunks(pops, n):
        s, free = col_arr[c0:c1], n - int(pops[c0])
        # the free bits of each column, ascending: (free, c)
        free_bits = np.nonzero((s[:, None] >> np.arange(n)) & 1 == 0)[1].reshape(len(s), free).T
        prods = np.empty((1 << free, len(s)), dtype=np.uint64)
        masks = np.empty((1 << free, len(s)), dtype=np.int64)
        prods[0], masks[0] = roots[c0:c1], s
        factors, bits = values[free_bits, s], 1 << free_bits
        for q in range(free):
            mul(prods[:1 << q], factors[q], out=prods[1 << q:2 << q])
            np.bitwise_or(masks[:1 << q], bits[q], out=masks[1 << q:2 << q])
        if cut is not None:
            kept = ~cut[masks]
            masks, prods = masks[kept], prods[kept]
        pairs += masks.size
        if since_fold + len(s) > SCAN_FOLD_COLUMNS:
            add(g, _sum_halves(lo, hi))
            lo[:] = hi[:] = 0.0
            since_fold = 0
        since_fold += len(s)
        chunk_lo, chunk_hi = _halves_by_index(masks.ravel(), prods.ravel(), size)
        lo += chunk_lo
        hi += chunk_hi
    add(g, _sum_halves(lo, hi))
    return pairs


def _scan_chunks(pops: np.ndarray, n: int):
    """(c0, c1) chunks of columns sorted by popcount: one popcount each,
    at most SCAN_CHUNK_ENTRIES table entries or one column."""
    edges = [*np.flatnonzero(np.diff(pops, prepend=-1)).tolist(), len(pops)]
    for p0, p1 in zip(edges, edges[1:]):
        width = max(1, SCAN_CHUNK_ENTRIES >> (n - int(pops[p0])))
        for c0 in range(p0, p1, width):
            yield c0, min(c0 + width, p1)


def zeta(x: np.ndarray, subtract: bool = False) -> np.ndarray:
    """Zeta transform mod p over the last axis of x (length 2^n), in place.

    x[..., T] becomes the sum of x[..., S] over S subset of T; with
    `subtract`, the Moebius inverse.  Bit i is one butterfly on x viewed
    as (..., 2^(n-1-i), 2, 2^i): the half with the bit gets the half
    without it added (or subtracted).  x must be C-contiguous in [0, p).
    """
    size = x.shape[-1]
    for i in range(size.bit_length() - 1):
        halves = x.reshape(*x.shape[:-1], size >> (i + 1), 2, 1 << i)
        low, high = halves[..., 0, :], halves[..., 1, :]
        add(high, P - low if subtract else low)
    return x


def _halves_by_index(idx: np.ndarray, vals: np.ndarray, size: int):
    """Float64 sums per index of the low and of the high 32-bit halves of vals."""
    lo = np.bincount(idx, weights=(vals & _MASK32).astype(np.float64), minlength=size)
    hi = np.bincount(idx, weights=(vals >> _U32).astype(np.float64), minlength=size)
    return lo, hi


def _sum_halves(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(lo + hi * 2^32) mod p from exact float64 sums lo, hi < 2^53."""
    return add(lo.astype(np.uint64), shift(hi.astype(np.uint64), 32))
