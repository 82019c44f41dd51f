#!/usr/bin/env python3
"""Time the kernel, one direct scan of every column and each fast plan on the uint64 form.

The direct scan of every column S, adding prod over i in T of f_i(S) at
every superset T, is the paper's O(3^n) baseline.  For each n given, the
script seeds a family of n uniform values in [0, 2^61 - 1) per subset,
as one `arrays.ArrayFamily` (so it reaches n = 17 and 18, where
`generate_family` stops at 16), runs `mst._direct_scan` over every
column into one accumulator and reads the table back, and prints the
CPU seconds (`time.process_time`), the ns per (T, S) pair and a sha256
prefix of the table's uint64 bytes.  Then it times `run_transform` of
each plan in PLANS on the same family (its table comes back as a list,
inside the timing) and prints its CPU seconds, their ratio to the
scan's (above 1 is slower), its table's sha256 prefix and whether the
digest equals the scan's:

    python3 scripts/scan_times.py 14 16 17 18
    python3 scripts/scan_times.py 16 17 --chunk-entries 65536 131072

With `--chunk-entries`, each n runs once per value of
`mst.CHUNK_ENTRIES` given; the constant itself is left as it is after.

First, once per run, it times the uint64 kernel (`m61.product`) at each
(m, r1, r2, c) of KERNEL_SHAPES on seeded operands, m blocks of r1 x c
by r2 x c: the fixed-part shape of 64 blocks of 64 x 128 by 128 x 128,
and mst-bulk's `columns` product, 128 x 1093 by 64 x 1093.  Each line
gives the best CPU time of three calls after one warm-up call, as ns per
kernel multiplication (m r1 r2 c of them), and a sha256 prefix of the
product's uint64 bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

import numpy as np

from multisubset import PipelineStats, PrimeField, mst, run_transform
from multisubset.arrays import ArrayFamily, element_form
from multisubset.ring import MERSENNE61

SEED = 1
PLANS = ("columns", "rows-columns", "cover")
# (m, r1, r2, c) of the timed kernel products: the fixed-part shape and
# mst-bulk's `columns` product
KERNEL_SHAPES = ((64, 64, 128, 128), (1, 128, 64, 1093))


def seeded_family(n: int) -> ArrayFamily:
    """n members of uniform values in [0, 2^61 - 1), one row per member."""
    ring = PrimeField()
    values = np.random.default_rng(SEED).integers(0, MERSENNE61, (n, 1 << n), dtype=np.uint64)
    return ArrayFamily(ring, n, values, element_form(ring))


def time_scan(fam: ArrayFamily) -> tuple[float, int, str]:
    """(CPU seconds, pairs, sha256 hex of the table) of one scan of every column."""
    stats = PipelineStats()
    start = time.process_time()
    sums = fam.form.sums(1 << fam.n)
    mst._direct_scan(fam, np.arange(1 << fam.n), sums, stats)
    table = sums.table()
    cpu = time.process_time() - start
    return cpu, stats.pair_iterations, hashlib.sha256(table.tobytes()).hexdigest()


def kernel_operands(m: int, r1: int, r2: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (m, r1, c) and (m, r2, c) uint64 operands, uniform in [0, 2^61 - 1)."""
    rng = np.random.default_rng(SEED)
    return tuple(rng.integers(0, MERSENNE61, (m, r, c), dtype=np.uint64) for r in (r1, r2))


def time_kernel(m: int, r1: int, r2: int, c: int) -> tuple[float, str]:
    """(best ns per multiplication, sha256 hex of the product) of the uint64 kernel."""
    form = element_form(PrimeField())
    a, b = kernel_operands(m, r1, r2, c)
    out = form.product(a, b)  # the warm-up call
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        form.product(a, b)
        best = min(best, time.process_time() - start)
    return best / (m * r1 * r2 * c) * 1e9, hashlib.sha256(out.tobytes()).hexdigest()


def time_plan(fam: ArrayFamily, algo: str) -> tuple[float, str]:
    """(CPU seconds, sha256 hex of the table) of one `run_transform` of `algo`."""
    start = time.process_time()
    table = run_transform(algo, fam).values
    cpu = time.process_time() - start
    return cpu, hashlib.sha256(np.array(table, dtype=np.uint64).tobytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, nargs="+", help="ground set sizes, 0 to 24")
    parser.add_argument("--chunk-entries", type=int, nargs="+", default=None,
                        help="values of mst.CHUNK_ENTRIES to time (default: as set)")
    args = parser.parse_args(argv)
    chunk_values = args.chunk_entries or [mst.CHUNK_ENTRIES]
    for m, r1, r2, c in KERNEL_SHAPES:
        ns, digest = time_kernel(m, r1, r2, c)
        print(f"kernel m={m} r1={r1} r2={r2} c={c} ns_per_mul={ns:.3f} "
              f"sha256={digest[:16]}", flush=True)
    saved = mst.CHUNK_ENTRIES
    try:
        for n in args.n:
            fam = seeded_family(n)
            for chunk in chunk_values:
                mst.CHUNK_ENTRIES = chunk
                cpu, pairs, digest = time_scan(fam)
                print(f"n={n} chunk_entries={chunk} cpu_s={cpu:.3f} "
                      f"ns_per_pair={cpu / max(pairs, 1) * 1e9:.1f} pairs={pairs} "
                      f"sha256={digest[:16]}", flush=True)
                for algo in PLANS:
                    plan_cpu, plan_digest = time_plan(fam, algo)
                    print(f"n={n} chunk_entries={chunk} plan={algo} cpu_s={plan_cpu:.3f} "
                          f"vs_scan={plan_cpu / max(cpu, 1e-9):.2f} sha256={plan_digest[:16]} "
                          f"same_table={plan_digest == digest}", flush=True)
    finally:
        mst.CHUNK_ENTRIES = saved
    return 0


if __name__ == "__main__":
    sys.exit(main())
