"""Alternating parent/change runs of perfbench, written as one BENCH_<short>.json.

Runs the unchanged benchmark command of two checkouts, a parent and a
change, one process at a time: for each workload and seed one `--trace 0`
run per side, the side that goes first alternating from seed to seed,
then one `--trace 1` run per side on the first seed.  The command, the
run length, the workloads and the end-to-end metrics come from each
checkout's BENCHMARK.json, which must be the same on both sides.  This
script times nothing itself; every number comes from perfbench's report
lines.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --short dense_scan --seeds 61-70 --what "..."

writes BENCH_dense_scan.json (in the current directory, or --output-dir)
with the pairs, a summary per end-to-end metric (parent and change
quartiles, change/parent median ratio, pairs where the change is lower,
the parent's interquartile spread and whether a gain is shown),
CPU against wall medians per algorithm, failures, and the trace runs'
per-layer split and exact counts.  The file is rewritten after each
workload, so a cut series keeps the workloads already done.  Runs see
PYTHONDONTWRITEBYTECODE=1, as in the earlier BENCH files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# Fields of perfbench's env line kept as the file's environment.
ENVIRONMENT = ("python", "numpy", "cpu", "nproc", "blas_threads")
# Per-layer metrics of a trace run kept in trace_split (for both roles).
SPLIT = ("rmm.kernel_s", "rmm.muls", "rmm.products", "mst.build_s", "mst.build_entries",
         "mst.self_s", "mst.pair_iterations", "setfn.zeta_s", "dag.self_s", "dag.round_s",
         "dag.targets_read_ratio")


def seed_list(text: str) -> list[int]:
    """'61-70' or '61,63,65' as a list of at least two seeds (the summary's
    quartiles need two runs a side)."""
    if "-" in text:
        lo, hi = text.split("-")
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(s) for s in text.split(",")]
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"{text!r} names {len(seeds)} seeds; give at least two")
    return seeds


def benchmark(checkouts: dict) -> dict:
    """The BENCHMARK.json both checkouts declare; exits if they differ."""
    decl = {side: json.loads((checkouts[side] / "BENCHMARK.json").read_text())
            for side in SIDES}
    if decl["parent"] != decl["change"]:
        raise SystemExit("BENCHMARK.json differs between the parent and the change")
    return decl["parent"]


def run(bench: dict, checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its JSON line, env line and per-algorithm CPU/wall medians."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    out = {"json": json.loads(lines[-1]), "env": {}, "cpu_vs_wall": {}, "counts": []}
    for line in lines:
        if line.startswith("env "):
            out["env"] = json.loads(line[4:])
        elif line.startswith("counts "):
            out["counts"].append(line)
        elif "_cpu_s median=" in line and "wall median=" in line:
            algo = line.split("_cpu_s", 1)[0]
            out["cpu_vs_wall"][algo] = {
                "cpu_median_s": _number(line.split("median=", 1)[1].split()[0]),
                "samples": int(line.split("samples=", 1)[1].split()[0]),
                "wall_median_s": _number(line.split("wall median=", 1)[1].split()[0]),
            }
    return out


def _number(text: str):
    return None if text == "None" else float(text)


def value(side_run: dict, metric: str):
    return side_run["json"]["metrics"][metric]["value"]


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(bench: dict, pairs: list[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles, the median ratio, the
    pairs where the change is lower, the parent's interquartile spread, and
    whether a gain is shown: the change better (as the metric's `better`
    says; ties count for neither side) in at least 9/10 of the pairs, and
    its median better than the parent's by more than that spread."""
    summary = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        per_side = {side: [value(p[side], name) for p in pairs] for side in SIDES}
        sign = 1 if metric["better"] == "lower" else -1
        lower = sum(c < p for p, c in zip(per_side["parent"], per_side["change"]))
        better = sum(sign * (p - c) > 0 for p, c in zip(per_side["parent"], per_side["change"]))
        entry = {side: quartiles(per_side[side]) for side in SIDES}
        parent, change = entry["parent"], entry["change"]
        entry["change_over_parent_median"] = change["median"] / parent["median"]
        entry["change_lower_in_pairs"] = f"{lower}/{len(pairs)}"
        entry["parent_iqr"] = parent["q3"] - parent["q1"]
        entry["gain_shown"] = (10 * better >= 9 * len(pairs)
                               and sign * (parent["median"] - change["median"]) > entry["parent_iqr"])
        summary[name] = entry
    return summary


def cpu_vs_wall(pairs: list[dict]) -> dict:
    """Median over the runs of each algorithm's per-run CPU and wall medians."""
    out = {}
    for side in SIDES:
        for algo in pairs[0][side]["cpu_vs_wall"]:
            runs = [p[side]["cpu_vs_wall"][algo] for p in pairs]
            out[f"{algo}_{side}"] = {
                "cpu_median_of_medians_s": statistics.median(r["cpu_median_s"] for r in runs),
                "wall_median_of_medians_s": statistics.median(r["wall_median_s"] for r in runs),
            }
    return out


def kept(side_run: dict) -> dict:
    """What a pair keeps of one run: its JSON line, CPU/wall medians, source digest."""
    return {"json": side_run["json"], "cpu_vs_wall": side_run["cpu_vs_wall"],
            "source_sha256": side_run["env"].get("source_sha256")}


def bench_workload(bench: dict, checkouts: dict, seeds: list[int],
                   workload: str) -> tuple[dict, dict]:
    """The workload's entry of the BENCH file, and the env line of its first parent run."""
    pairs, runs_env = [], None
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs = {side: run(bench, checkouts[side], workload, seed, 0) for side in order}
        runs_env = runs_env or runs["parent"]["env"]
        pairs.append({"seed": seed, "first": order[0], **{s: kept(runs[s]) for s in SIDES}})
        print(f"{workload} seed {seed}: " + "; ".join(
            f"{s} " + " ".join(f"{m['name']}={value(runs[s], m['name']):.4g}"
                               for m in bench["end_to_end"])
            for s in SIDES), file=sys.stderr)
    out = {
        "pairs": pairs,
        "summary": summarize(bench, pairs),
        "cpu_vs_wall": cpu_vs_wall(pairs),
        "failed": {side: sum(p[side]["json"]["failed"] for p in pairs) for side in SIDES},
    }
    traces = {side: run(bench, checkouts[side], workload, seeds[0], 1) for side in SIDES}
    out["trace_split"] = {
        side: {f"{role}.{name}": value(traces[side], f"{role}.{name}")
               for role in ("rmm_algo", "scan_algo") for name in SPLIT}
        for side in SIDES
    }
    out["trace_counts"] = {side: traces[side]["counts"] for side in SIDES}
    out["trace"] = {side: traces[side]["json"] for side in SIDES}
    return out, runs_env


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--short", required=True, help="file name part: BENCH_<short>.json")
    p.add_argument("--seeds", type=seed_list, required=True, help="'61-70' or '61,62,...'")
    p.add_argument("--what", default="", help="free text describing the runs")
    p.add_argument("--output-dir", type=Path, default=Path("."))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    bench = benchmark(checkouts)
    path = args.output_dir / f"BENCH_{args.short}.json"
    doc = {
        "what": args.what,
        "parent_commit": None,
        "command": " ".join(bench["command"])
        + f" --workload W --seed S --seconds {bench['run_seconds']} --trace 0",
        "workloads": {},
        "environment": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        doc["workloads"][workload], env = bench_workload(bench, checkouts, args.seeds, workload)
        if not doc["environment"]:
            doc["parent_commit"] = env.get("commit")
            doc["environment"] = {k: env.get(k) for k in ENVIRONMENT}
        path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
