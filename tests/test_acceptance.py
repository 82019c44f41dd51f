"""End-to-end acceptance gate: one test and one printed PASS/FAIL line per
criterion.  Run `pytest -v -s tests/test_acceptance.py` to see the lines
alongside the verdicts."""

import math
import random
from math import comb

import numpy as np

from multisubset import (
    CountingRing,
    OpCounter,
    PipelineStats,
    SetFunction,
    WeightSystem,
    binom_facts_check,
    brute_force_dag_sum,
    build_submatrix,
    cover_size_bound,
    gamma_search,
    greedy_cover,
    GroundSplit,
    make_ring,
    moebius_transform,
    mst_naive,
    optimize_columns,
    optimize_rows_columns,
    run_transform,
    subset_convolution,
    subset_convolution_naive,
    sum_acyclic_digraphs,
    tian_he_sum,
    values_equal,
    verify_cover,
    zeta_transform,
)
from multisubset.analysis import DEFAULT_OMEGA_TABLE
from multisubset.arrays import ArrayFamily
from multisubset.bench import predicted_pair_iterations
from multisubset.mst import COLUMNS_SIGMA, _guarded_floor

from helpers import random_family, random_setfn
from test_dag import ACYCLIC_COUNTS, random_weights


def _report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    return ok


def test_transform_oracle_equivalence(modp):
    ok = True
    for n in range(2, 11):
        for seed in range(20):
            fam = random_family(modp, n, seed=1000 * n + seed)
            expected = mst_naive(fam)
            for algo in ("columns", "rows-columns", "cover"):
                got = run_transform(algo, fam)
                ok = ok and values_equal(modp, got.values, expected.values)
    assert _report(
        "fast transforms equal the naive evaluation exactly "
        "(n=2..10, 20 seeds, all three algorithms)",
        ok,
    )


def test_dag_oracle_chain(modp):
    ok = True
    for n in range(1, 6):
        for seed in range(10):
            wsys = random_weights(modp, n, seed)
            brute = brute_force_dag_sum(wsys)
            table = tian_he_sum(wsys)
            ok = ok and table.total == brute
            for algo in ("naive", "columns", "rows-columns", "cover"):
                ok = ok and sum_acyclic_digraphs(wsys, algo=algo).a == table.a
    for n in range(1, 6):
        unweighted = WeightSystem.unweighted(modp, n)
        ok = ok and brute_force_dag_sum(unweighted) == modp.from_int(
            ACYCLIC_COUNTS[n]
        )
    assert _report(
        "digraph-sum oracle chain: brute force = recurrence = transform "
        "pipeline (n=1..5, 10 seeds); unweighted counts 1,3,25,543,29281",
        ok,
    )


def test_dag_mutual_equality_at_scale(modp):
    ok = True
    for n in range(6, 10):
        for seed in range(5):
            wsys = random_weights(modp, n, 50 + seed)
            table = tian_he_sum(wsys)
            for algo in ("naive", "columns", "rows-columns", "cover"):
                ok = ok and sum_acyclic_digraphs(wsys, algo=algo).a == table.a
    assert _report(
        "digraph sums agree across all transform algorithms and the "
        "recurrence (n=6..9, 5 seeds)",
        ok,
    )


def test_optimizer_constants():
    col = optimize_columns()
    rc = optimize_rows_columns()
    checks = {
        "columns sigma": abs(col.parameters["sigma"] - 0.3642045) <= 1e-4,
        "columns base": abs(col.base - 2.994) <= 1e-3,
        "rows-columns tau": abs(rc.parameters["tau"] - 0.59777) <= 1e-3,
        "rows-columns sigma": abs(rc.parameters["sigma"] - 0.38185) <= 1e-3,
        "rows-columns base": abs(rc.base - 2.985) <= 1e-3,
    }
    ok = all(checks.values())
    assert _report(
        "optimizers reproduce the published constants "
        "(sigma*=0.3642045, base 2.994; tau*=0.59777, sigma*=0.38185, base 2.985)",
        ok,
        f"columns base {col.base:.6f}, rows-columns base {rc.base:.6f}",
    )


def test_cover_exponent_estimate_window():
    report = gamma_search(resolution=1e-3)
    ok = 2.90 <= report.base <= 2.94
    assert _report(
        "cover-pipeline exponent search at resolution 1e-3 lands in "
        "[2.90, 2.94]",
        ok,
        f"measured base {report.base:.5f} (gamma {report.parameters['gamma']:.5f}, "
        f"grid uncertainty {report.uncertainty:.2e}); omega bounded by chords "
        f"through the anchors {DEFAULT_OMEGA_TABLE.anchors} -- see README, "
        "'Acceptance status'",
    )


def test_structural_operation_counts(modp):
    ok = True
    for n in (4, 6, 8, 10):
        fam = random_family(modp, n, seed=n)
        stats = PipelineStats()
        mst_naive(fam, stats)
        ok = ok and stats.pair_iterations == 3**n

        stats = PipelineStats()
        run_transform("columns", fam, stats=stats)
        s0 = _guarded_floor(COLUMNS_SIGMA * n)
        expected = sum(comb(n, d) * 2 ** (n - d) for d in range(s0 + 1, n + 1))
        ok = ok and stats.pair_iterations == expected
        ok = ok and expected == predicted_pair_iterations("columns", n)

        split = GroundSplit.for_n(n)
        e1 = build_submatrix(
            ArrayFamily.of(fam), split, 1, np.arange(1 << split.h1)[None], np.arange(1 << n)[None]
        )
        nonzero = sum(
            1 for row in e1.entries[0] for v in row if v != modp.zero
        )
        ok = ok and nonzero == 6 ** (n // 2)
    assert _report(
        "operation counts: naive pairs 3^n; large-column scan pairs match the "
        "closed form; half-split matrix has 6^(n/2) nonzeros (n=4,6,8,10)",
        ok,
    )


def test_covering_designs():
    ok = True
    for v in range(0, 13):
        for k in range(0, v + 1):
            for s in range(0, k + 1):
                design = greedy_cover(v, k, s)
                ok = ok and verify_cover(design)
                ok = ok and len(design.blocks) <= cover_size_bound(v, k, s)
    ok = ok and len(greedy_cover(4, 3, 2).blocks) == 3
    # exhaustive impossibility of a 2-block cover for (4, 3, 2)
    from multisubset.bitops import subsets_of_size

    triples = [m for m in range(16) if m.bit_count() == 3]
    two_block_possible = any(
        len(set(subsets_of_size(a, 2)) | set(subsets_of_size(b, 2))) == comb(4, 2)
        for a in triples
        for b in triples
    )
    ok = ok and not two_block_possible
    assert _report(
        "greedy covering designs verify and meet the log-factor size bound "
        "for all v<=12; the (4,3,2) design needs exactly 3 blocks",
        ok,
    )


def test_transform_baselines(modp):
    ok = True
    for n in range(0, 13):
        for seed in range(20):
            f = random_setfn(modp, n, seed=31 * n + seed)
            back = moebius_transform(zeta_transform(f))
            ok = ok and values_equal(modp, back.values, f.values)
    for n in range(0, 10):
        f = random_setfn(modp, n, seed=7 * n)
        g = random_setfn(modp, n, seed=7 * n + 1)
        fast = subset_convolution(f, g)
        slow = subset_convolution_naive(f, g)
        ok = ok and values_equal(modp, fast.values, slow.values)
    for n in range(1, 13):
        counter = OpCounter()
        ring = CountingRing(make_ring("modp"), counter)
        zeta_transform(random_setfn(ring, n, seed=n))
        ok = ok and counter.adds == n * 2 ** (n - 1)
    assert _report(
        "transform baselines: zeta/moebius round-trip (n<=12, 20 seeds); "
        "ranked convolution equals naive (n<=9); zeta uses n*2^(n-1) adds",
        ok,
    )


def test_analysis_facts():
    ok = all(binom_facts_check(n).ok for n in range(4, 41))
    rng = random.Random(2024)
    tab = DEFAULT_OMEGA_TABLE
    for _ in range(10_000):
        k = rng.uniform(0.0, 3.0)
        dk = rng.uniform(0.0, 0.5)
        lo, hi = tab.upper(k), tab.upper(k + dk)
        ok = ok and lo <= hi + 1e-12 and hi - lo <= dk + 1e-12
    assert _report(
        "analysis facts: binomial growth checks pass for n=4..40; the "
        "omega bound is nondecreasing with slope <= 1 on 10^4 samples",
        ok,
    )
