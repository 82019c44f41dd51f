#!/usr/bin/env python3
"""Time one direct scan of every column, and each fast plan, on the uint64 form.

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
