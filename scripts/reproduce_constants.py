#!/usr/bin/env python3
"""Recompute the tuned complexity constants and print them as a table.

The columns and rows-columns optimizers are closed-form-ish (bisection on
balance equations) and finish instantly; the cover-pipeline search is a
two-stage grid/descent max-min and takes a few seconds at the default
resolution.  Pass --skip-gamma when only the fast two are wanted.
"""

import argparse
import json
import sys

from multisubset import optimize_columns, optimize_rows_columns, gamma_search


def fmt(report):
    params = ", ".join(f"{k}={v:.6f}" for k, v in sorted(report.parameters.items()))
    line = (
        f"{report.algorithm:<13} mode={report.mode:<6} "
        f"base={report.base:.6f}  exponent={report.exponent:.6f}  {params}"
    )
    if report.uncertainty is not None:
        line += f"  +/-{report.uncertainty:.1e}"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-gamma", action="store_true",
                        help="skip the slow cover-pipeline search")
    parser.add_argument("--resolution", type=float, default=1e-3,
                        help="outer grid resolution for the cover search")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write all reports to this JSON file")
    args = parser.parse_args(argv)

    reports = [
        optimize_columns(),
        optimize_columns(mode="table"),
        optimize_rows_columns(),
        optimize_rows_columns(mode="table"),
    ]
    if not args.skip_gamma:
        reports.append(gamma_search(resolution=args.resolution))

    for report in reports:
        print(fmt(report))

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump([r.to_json_dict() for r in reports], fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
