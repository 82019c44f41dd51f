#!/usr/bin/env python3
"""Layered benchmark of the multisubset transform and DAG-sum pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload mst-bulk --seed 1 --seconds 25 --trace 0

One process runs one workload serially: no threads, no worker processes.
`--trace 0` times untraced calls into the public API (`run_transform`,
`sum_acyclic_digraphs`) on a plain PrimeField and prints the end-to-end
metrics.  Calls are timed in CPU seconds of this process: the program is
serial, so that is its wall time minus what a shared host steals.  `--trace 1` alternates untraced and traced calls, then makes one
untimed exact-count call per algorithm over a CountingRing, and prints the
per-layer metrics.  Every output is checked off the timed path.  The last
line of standard output is one JSON object; the lines before it are the
human-readable report and the environment.  See perfbench/README.md.
"""

import os
import time

_LOADAVG = os.getloadavg()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
CLOCK = time.process_time
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END = {
    "rmm_algo_cpu_s": "s",
    "scan_algo_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class CallLog:
    """CPU and wall durations of the calls whose output was produced, and the failures."""

    def __init__(self, algos):
        self.durations = {a: [] for a in algos}
        self.walls = {a: [] for a in algos}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, algo: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{algo}: {why}")


def checked_call(workload, algo, inputs, checker, log, durations, call, walls=None):
    """Run call(); record its CPU (and wall) time; check the output off the timed path."""
    gc.collect()
    log.attempted += 1
    started_wall = time.perf_counter()
    started = CLOCK()
    try:
        output = call()
    except Exception as exc:  # a failed call is counted, the run goes on
        log.fail(algo, f"raised {exc!r}")
        return None
    durations.append(CLOCK() - started)
    if walls is not None:
        walls.append(time.perf_counter() - started_wall)
    try:
        ok = checker.check(workload.table(output))
    except Exception as exc:
        ok = False
        log.fail(algo, f"output unreadable: {exc!r}")
        return output
    if not ok:
        log.fail(algo, "output differs from the reference")
    return output


def run_loop(algos, step, seconds: float, clock=time.perf_counter) -> None:
    """Alternate algorithms (A B, then B A, ...) for `seconds`.

    Every algorithm runs at least once; afterwards a step is skipped, and
    the loop ends, when its median step time would overrun the budget.
    """
    spent = {a: [] for a in algos}
    start = clock()
    order = tuple(algos)
    while True:
        for algo in order:
            if spent[algo] and clock() - start + statistics.median(spent[algo]) > seconds:
                return
            began = clock()
            step(algo)
            spent[algo].append(clock() - began)
        order = order[::-1]


def median_or_none(values):
    return statistics.median(values) if values else None


def git_commit() -> str:
    # Look only in this checkout: no parent repository, no user or system config.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "multisubset").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(_LOADAVG),
        "seed": seed,
        "blas_threads": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup(workload, seed: int, log):
    """Generate the inputs and the reference data SETUP_REPS times.

    Returns (inputs, checker, median CPU seconds of one repetition); checker
    is None when the reference data failed its own check.
    """
    from multisubset.ring import PrimeField

    times = []
    for _ in range(SETUP_REPS):
        started = CLOCK()
        inputs = workload.make_inputs(PrimeField(), seed)
        try:
            checker = workload.checker(inputs, seed)
        except ValueError as exc:
            log.errors.append(f"reference: {exc}")
            checker = None
        times.append(CLOCK() - started)
    return inputs, checker, statistics.median(times)


def measure_untraced(workload, inputs, checker, seconds, log):
    def step(algo):
        checked_call(workload, algo, inputs, checker, log, log.durations[algo],
                     lambda: workload.call(algo, inputs), log.walls[algo])

    run_loop(workload.algos, step, seconds)


class TracedAlgo:
    """What the traced calls of one algorithm recorded."""

    def __init__(self, tracing):
        self.tracer = tracing.Tracer()
        self.durations: list[float] = []
        self.missing: set = set()
        self.cache = [0, 0]  # covering-design cache (hits, misses); None without a cache
        self.call_counts: list[tuple] = []


def measure_traced(workload, inputs, checker, seed, seconds, log, report):
    """Traced and untraced calls in alternation, then the exact-count run."""
    import counts
    import tracing
    from multisubset import mst
    from multisubset.rmm import ClassicalBackend

    from workloads import accepts

    has_backend = accepts(workload.entry, "backend")
    stats_cls = getattr(mst, "PipelineStats", None)
    root = "dag.sum_acyclic_digraphs" if workload.is_dag else "mst.run_transform"
    recs = {a: TracedAlgo(tracing) for a in workload.algos}

    def traced(algo):
        rec = recs[algo]
        tracer = rec.tracer
        tracer.call_id += 1
        backend = tracing.TimingBackend(ClassicalBackend(), tracer) if has_backend else None
        stats = stats_cls() if stats_cls is not None else None
        muls_before = tracer.counts["rmm.muls"]
        cache_before = tracing.cache_stats()

        def call():
            idx = tracer.begin(root)
            try:
                return workload.call(algo, inputs, backend=backend, stats=stats)
            finally:
                tracer.end(idx)

        with tracing.instrument(tracer) as missing:
            rec.missing |= missing
            checked_call(workload, algo, inputs, checker, log, rec.durations, call)
        cache_after = tracing.cache_stats()
        if cache_before is None or cache_after is None:
            rec.cache = None
        elif rec.cache is not None:
            rec.cache = [rec.cache[i] + cache_after[i] - cache_before[i] for i in (0, 1)]
        rec.call_counts.append((
            getattr(stats, "pair_iterations", None),
            getattr(stats, "rmm_muls", None),
            tracer.counts["rmm.muls"] - muls_before,
        ))

    def untraced(algo):
        checked_call(workload, algo, inputs, checker, log, log.durations[algo],
                     lambda: workload.call(algo, inputs), log.walls[algo])

    flips = {a: 0 for a in workload.algos}

    def step(algo):
        pair = (untraced, traced) if flips[algo] % 2 == 0 else (traced, untraced)
        flips[algo] += 1
        for fn in pair:
            fn(algo)

    run_loop(workload.algos, step, seconds)

    metrics = {}
    for role, algo in zip(tracing.ROLES, workload.algos):
        rec = recs[algo]
        layer = tracing.layer_metrics(
            rec.tracer, max(len(rec.durations), 1), rec.missing, has_backend,
            rec.cache, workload.is_dag,
        )
        exact, output = counts.exact_counts(workload, algo, seed)
        log.attempted += 1
        if not checker.check(workload.table(output)):
            log.fail(algo, "exact-count run output differs from the reference")
        predicted = counts.predictions(workload, algo)
        layer["rmm.muls_predicted"] = predicted["rmm_muls"]
        layer["mst.pair_iterations"] = exact["pair_iterations"]
        layer["mst.pair_iterations_predicted"] = predicted["pair_iterations"]
        layer["ring.muls"] = exact["ring.muls"]
        layer["ring.adds"] = exact["ring.adds"]
        untraced_med = median_or_none(log.durations[algo])
        traced_med = median_or_none(rec.durations)
        if untraced_med and traced_med:
            layer["trace.overhead_ratio"] = traced_med / untraced_med
        exact_pair = (exact["pair_iterations"], exact["rmm_muls"])
        repeat = all(c == rec.call_counts[0] and c[:2] == exact_pair for c in rec.call_counts)
        match = exact_pair == (predicted["pair_iterations"], predicted["rmm_muls"])
        report.append(
            f"counts {algo}: ring.muls={exact['ring.muls']} ring.adds={exact['ring.adds']} "
            f"pair_iterations={exact['pair_iterations']} (predicted {predicted['pair_iterations']}) "
            f"rmm_muls={exact['rmm_muls']} (predicted {predicted['rmm_muls']}) "
            f"repeat_across_traced_calls={repeat} match_predictions={match}"
        )
        unmeasured = sorted(set(tracing.LAYER_METRICS) - set(layer))
        if unmeasured:
            report.append(f"unmeasured {algo} (seam missing): {', '.join(unmeasured)}")
        for name in tracing.LAYER_METRICS:
            metrics[f"{role}.{name}"] = layer.get(name)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "multisubset" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import multisubset

    if Path(multisubset.__file__).resolve().parent != SRC / "multisubset":
        print(f"perfbench: imported multisubset from {multisubset.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    import_s = CLOCK()  # CPU time since the process started
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    log = CallLog(workload.algos)
    report = [
        f"perfbench workload={workload.name} n={workload.n} algos={','.join(workload.algos)} "
        f"seed={args.seed} seconds={args.seconds} trace={args.trace}",
        "env " + json.dumps(environment(args.seed), sort_keys=True),
    ]
    inputs, checker, prep_s = setup(workload, args.seed, log)
    setup_s = import_s + prep_s
    if checker is None:
        correct = False
        metrics = {}
    else:
        if args.trace:
            metrics = measure_traced(workload, inputs, checker, args.seed,
                                     args.seconds, log, report)
        else:
            measure_untraced(workload, inputs, checker, args.seconds, log)
            metrics = {
                "rmm_algo_cpu_s": median_or_none(log.durations[workload.algos[0]]),
                "scan_algo_cpu_s": median_or_none(log.durations[workload.algos[1]]),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        correct = log.failed == 0 and all(log.durations.values())
    for algo, values in log.durations.items():
        report.append(
            f"{algo.replace('-', '_')}_cpu_s median={median_or_none(values)} s "
            f"samples={len(values)} all={[round(v, 4) for v in values]} "
            f"wall median={median_or_none(log.walls[algo])} s"
        )
    report.append(f"setup_s={setup_s} (start and imports {import_s}, median of "
                  f"{SETUP_REPS} preparations {prep_s}; CPU seconds)")
    report.append(f"failed_frac={log.failed / max(log.attempted, 1)} ({log.failed} of {log.attempted} calls)")
    report.extend(f"error {e}" for e in log.errors)
    if args.trace:
        import tracing

        for name, value in metrics.items():
            unit, _, moves = tracing.LAYER_METRICS[name.split(".", 1)[1]]
            report.append(f"{name} = {value} {unit}  [should move: {moves}]")
        units = {f"{r}.{k}": v[0] for r in tracing.ROLES for k, v in tracing.LAYER_METRICS.items()}
    else:
        units = END_TO_END
    for line in report:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": max(log.attempted, 1),
        "failed": log.failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
