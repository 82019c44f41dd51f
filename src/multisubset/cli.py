"""Command-line interface.

Subcommands: mst, dag-sum, dag-count, cover, optimize, gen.
Timings come from `python3 perfbench/run.py`; exact counts of one run
from `msubt mst --count-ops`.
Exit codes: 0 success, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import jsonio
from .analysis import gamma_search, optimize_columns, optimize_rows_columns
from .cover import greedy_cover
from .dag import robinson_count, sum_acyclic_digraphs
from .mst import ALGORITHMS, PipelineStats, run_transform
from .ring import CountingRing, OpCounter, make_ring
from .setfn import SetFunction


def _add_ring_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ring", choices=["modp", "f64"], default="modp")
    sub.add_argument("--p", type=int, default=None,
                     help="prime modulus for --ring modp (default 2^61 - 1; "
                          "a composite one exits with code 2)")


def _add_transform_flags(sub: argparse.ArgumentParser) -> None:
    """The flags `mst` and `dag-sum` share: algorithm, ring and output."""
    sub.add_argument("--algo", choices=ALGORITHMS, default="naive")
    sub.add_argument("--sigma", type=float, default=None)
    sub.add_argument("--tau", type=float, default=None)
    _add_ring_flags(sub)
    sub.add_argument("--output", default=None)


def _make_ring(args):
    return make_ring(args.ring, p=args.p)


def _emit(args, payload: dict) -> None:
    text = jsonio.dumps(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_mst(args) -> int:
    if args.count_ops and not args.output:
        raise ValueError("--count-ops writes a sidecar and requires --output")
    base_ring = _make_ring(args)
    counter = OpCounter()
    ring = CountingRing(base_ring, counter) if args.count_ops else base_ring
    fam = jsonio.family_from_dict(ring, jsonio.load_json(args.input))
    stats = PipelineStats()
    result = run_transform(
        args.algo, fam, sigma=args.sigma, tau=args.tau, stats=stats
    )
    _emit(args, jsonio.set_function_to_dict(result))
    if args.count_ops:
        jsonio.save_json(
            args.output + ".counts.json",
            {"adds": counter.adds, "muls": counter.muls, **asdict(stats)},
        )
    return 0


def _cmd_dag_sum(args) -> int:
    ring = _make_ring(args)
    wsys = jsonio.weight_system_from_dict(ring, jsonio.load_json(args.weights))
    result = sum_acyclic_digraphs(wsys, args.algo, sigma=args.sigma, tau=args.tau)
    if args.output:
        table = SetFunction(ring, result.n, result.a)
        jsonio.save_json(args.output, jsonio.set_function_to_dict(table))
    print(jsonio.encode_value(ring, result.total))
    return 0


def _cmd_dag_count(args) -> int:
    print(robinson_count(args.n))
    return 0


def _cmd_cover(args) -> int:
    design = greedy_cover(args.v, args.k, args.s)
    _emit(args, jsonio.cover_design_to_dict(design))
    return 0


def _cmd_optimize(args) -> int:
    if args.target == "gamma" and args.mode is not None:
        raise ValueError("--mode does not apply to --target gamma")
    mode = args.mode or "paper"
    kwargs = {}
    if args.resolution is not None:
        if args.target == "columns" or (args.target == "rows-columns" and mode != "table"):
            raise ValueError("--resolution applies to --target gamma and to "
                             "--target rows-columns --mode table only")
        kwargs["resolution"] = args.resolution
    table = None
    if args.omega_table:
        table = jsonio.omega_table_from_dict(jsonio.load_json(args.omega_table))
    if args.target == "columns":
        report = optimize_columns(mode=mode, table=table)
    elif args.target == "rows-columns":
        report = optimize_rows_columns(mode=mode, table=table, **kwargs)
    else:
        report = gamma_search(table=table, **kwargs)
    _emit(args, report.to_json_dict())
    return 0


def _cmd_gen(args) -> int:
    ring = _make_ring(args)
    if args.kind == "family":
        payload = jsonio.family_to_dict(
            jsonio.generate_family(args.n, ring, args.seed)
        )
    else:
        payload = jsonio.weight_system_to_dict(
            jsonio.generate_weight_system(args.n, ring, args.seed)
        )
    _emit(args, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msubt",
        description="Multi-subset transforms, DAG sums, covering designs, "
        "and exponent optimization.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("mst", help="run a multi-subset transform on a family file")
    p.add_argument("--input", required=True)
    _add_transform_flags(p)
    p.add_argument("--count-ops", action="store_true")
    p.set_defaults(func=_cmd_mst)

    p = subs.add_parser("dag-sum", help="weighted acyclic-digraph sum")
    p.add_argument("--weights", required=True)
    _add_transform_flags(p)
    p.set_defaults(func=_cmd_dag_sum)

    p = subs.add_parser("dag-count", help="count labeled acyclic digraphs")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_dag_count)

    p = subs.add_parser("cover", help="greedy covering design")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_cover)

    p = subs.add_parser("optimize", help="parameter optimization reports")
    p.add_argument("--target", choices=["columns", "rows-columns", "gamma"],
                   required=True)
    p.add_argument("--mode", choices=["paper", "line", "table"], default=None,
                   help="omega bound for columns and rows-columns (default: paper)")
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--omega-table", default=None,
                   help='JSON {"anchors": [[k, bound], ...]}; omega is bounded by '
                        "chords between them (table mode and --target gamma)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_optimize)

    p = subs.add_parser("gen", help="generate random input files")
    p.add_argument("--kind", choices=["family", "weights"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_ring_flags(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
