"""Benchmark harness: measured ring-operation counts next to the
closed-form pair-iteration predictions, one CSV row per (algo, n, seed).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .jsonio import generate_family
from .mst import (
    ALGORITHMS,
    COLUMNS_SIGMA,
    ROWS_COLUMNS_SIGMA,
    ROWS_COLUMNS_TAU,
    GroundSplit,
    PipelineStats,
    row_thresholds,
    run_transform,
    _guarded_floor,
)
from .ring import OpCounter, counting_wrap, make_ring
from .rmm import ClassicalBackend

CSV_HEADER = (
    "algo,n,seed,sigma,tau,backend,ring,adds,muls,"
    "pair_iterations,predicted_pairs,wall_ms"
)

MAX_BENCH_N = 16
MAX_NAIVE_BENCH_N = 14


@dataclass
class BenchRecord:
    algo: str
    n: int
    seed: int
    sigma: float | None
    tau: float | None
    backend: str
    ring: str
    adds: int
    muls: int
    pair_iterations: int
    predicted_pairs: int
    wall_ms: float

    def to_row(self) -> str:
        def opt(x):
            return "" if x is None else repr(x)

        return ",".join(
            [
                self.algo,
                str(self.n),
                str(self.seed),
                opt(self.sigma),
                opt(self.tau),
                self.backend,
                self.ring,
                str(self.adds),
                str(self.muls),
                str(self.pair_iterations),
                str(self.predicted_pairs),
                f"{self.wall_ms:.3f}",
            ]
        )

    @classmethod
    def from_row(cls, row: str) -> "BenchRecord":
        parts = row.split(",")
        if len(parts) != 12:
            raise ValueError(f"expected 12 CSV fields, got {len(parts)}")
        return cls(
            algo=parts[0],
            n=int(parts[1]),
            seed=int(parts[2]),
            sigma=float(parts[3]) if parts[3] else None,
            tau=float(parts[4]) if parts[4] else None,
            backend=parts[5],
            ring=parts[6],
            adds=int(parts[7]),
            muls=int(parts[8]),
            pair_iterations=int(parts[9]),
            predicted_pairs=int(parts[10]),
            wall_ms=float(parts[11]),
        )


def predicted_pair_iterations(
    algo: str, n: int, sigma: float | None = None, tau: float | None = None
) -> int:
    """Closed-form count of (S, T) pairs the direct scans will touch."""
    if algo == "naive":
        return 3 ** n
    if algo == "cover":
        return 0
    sig = COLUMNS_SIGMA if sigma is None else sigma
    if algo == "columns":
        s0 = _guarded_floor(sig * n)
        return sum(
            math.comb(n, d) << (n - d) for d in range(s0 + 1, n + 1)
        )
    if algo == "rows-columns":
        sig = ROWS_COLUMNS_SIGMA if sigma is None else sigma
        t = ROWS_COLUMNS_TAU if tau is None else tau
        s0 = _guarded_floor(sig * n)
        split = GroundSplit.for_n(n)
        t1, t2 = row_thresholds(split, t)
        large = sum(math.comb(n, d) << (n - d) for d in range(s0 + 1, n + 1))
        trimmed = 0
        for c1 in range(split.h1 + 1):
            for c2 in range(split.h2 + 1):
                if c1 > t1 and c2 > t2:
                    continue
                t_count = math.comb(split.h1, c1) * math.comb(split.h2, c2)
                small_subsets = sum(
                    math.comb(c1 + c2, d) for d in range(min(s0, c1 + c2) + 1)
                )
                trimmed += t_count * small_subsets
        return large + trimmed
    raise ValueError(f"unknown algorithm {algo!r}")


def _run_one(
    algo: str,
    n: int,
    seed: int,
    ring_id: str,
    sigma: float | None,
    tau: float | None,
) -> BenchRecord:
    counter = OpCounter()
    ring = counting_wrap(make_ring(ring_id), counter)
    fam = generate_family(n, ring, seed)
    stats = PipelineStats()
    started = time.perf_counter()
    run_transform(algo, fam, sigma=sigma, tau=tau, stats=stats)
    wall_ms = (time.perf_counter() - started) * 1000.0
    eff_sigma = eff_tau = None
    if algo == "columns":
        eff_sigma = COLUMNS_SIGMA if sigma is None else sigma
    elif algo == "rows-columns":
        eff_sigma = ROWS_COLUMNS_SIGMA if sigma is None else sigma
        eff_tau = ROWS_COLUMNS_TAU if tau is None else tau
    return BenchRecord(
        algo=algo,
        n=n,
        seed=seed,
        sigma=eff_sigma,
        tau=eff_tau,
        backend="" if algo == "naive" else ClassicalBackend.id,
        ring=ring_id,
        adds=counter.adds,
        muls=counter.muls,
        pair_iterations=stats.pair_iterations,
        predicted_pairs=predicted_pair_iterations(algo, n, sigma, tau),
        wall_ms=wall_ms,
    )


def run_bench(
    min_n: int,
    max_n: int,
    algos: list[str],
    seeds: int,
    ring_id: str = "modp",
    sigma: float | None = None,
    tau: float | None = None,
) -> list[BenchRecord]:
    """All (algo, n, seed) records, computed one after another, sorted."""
    if not 1 <= min_n <= max_n <= MAX_BENCH_N:
        raise ValueError(f"need 1 <= min_n <= max_n <= {MAX_BENCH_N}")
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    if "naive" in algos and max_n > MAX_NAIVE_BENCH_N:
        raise ValueError(f"naive benchmarks support n <= {MAX_NAIVE_BENCH_N}")
    if seeds < 1:
        raise ValueError("need at least one seed")
    records = [
        _run_one(algo, n, seed, ring_id, sigma, tau)
        for algo in algos
        for n in range(min_n, max_n + 1)
        for seed in range(seeds)
    ]
    records.sort(key=lambda r: (r.algo, r.n, r.seed))
    return records


def records_to_csv(records: list[BenchRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(record.to_row() for record in records)
    return "\n".join(lines) + "\n"


def records_from_csv(text: str) -> list[BenchRecord]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    return [BenchRecord.from_row(line) for line in lines[1:]]
