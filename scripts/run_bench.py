#!/usr/bin/env python3
"""Operation-count benchmark over the transform algorithms.

Writes the CSV produced by multisubset.bench and prints a per-algorithm
summary of ring multiplications at the largest n, so growth trends are
visible without opening the file.  Wall times are informational only;
the stable signal is the exact add/mul/pair counters.
"""

import argparse
import sys
from collections import defaultdict

from multisubset.bench import records_to_csv, run_bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--algos", default="naive,columns,rows-columns,cover")
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--ring", choices=["modp", "f64"], default="modp")
    parser.add_argument("--output", default=None,
                        help="CSV path (default: stdout)")
    args = parser.parse_args(argv)

    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    records = run_bench(args.min_n, args.max_n, algos, args.seeds, ring_id=args.ring)
    text = records_to_csv(records)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(records)} records to {args.output}")
    else:
        sys.stdout.write(text)

    by_algo = defaultdict(list)
    for r in records:
        if r.n == args.max_n:
            by_algo[r.algo].append(r)
    print(f"\n# summary at n={args.max_n} (mean over {args.seeds} seeds)",
          file=sys.stderr)
    for algo in algos:
        rs = by_algo[algo]
        muls = sum(r.muls for r in rs) / len(rs)
        ms = sum(r.wall_ms for r in rs) / len(rs)
        print(f"# {algo:<13} muls={muls:>12.0f}  wall={ms:8.1f} ms",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
