"""The benchmark's own tests, at tiny n.  Run: python -m pytest perfbench/tests"""

import json

import pytest

import counts
import run
import tracing
import workloads
from multisubset.ring import PrimeField
from multisubset.rmm import ClassicalBackend

TINY_MST = workloads.MstWorkload("tiny-mst", 6, ("columns", "rows-columns"), "test")
TINY_FINE = workloads.MstWorkload("tiny-fine", 6, ("cover", "naive"), "test")
TINY_DAG = workloads.DagWorkload("tiny-dag", 4, ("columns", "rows-columns"), "test")


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def run_tiny(monkeypatch, capsys, workload, trace: int) -> dict:
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    argv = ["--workload", workload.name, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(argv) == 0
    return last_json(capsys)


def test_checker_catches_a_corrupted_entry_outside_the_sample():
    fam = TINY_MST.make_inputs(PrimeField(), 1)
    checker = TINY_MST.checker(fam, 1)
    good = list(TINY_MST.call("naive", fam).values)
    assert checker.check(good)
    unsampled = next(t for t in range(1 << TINY_MST.n) if t not in checker.sample)
    bad = list(good)
    bad[unsampled] = (bad[unsampled] + 1) % PrimeField().p
    assert not checker.check(bad)
    assert checker.check(TINY_MST.call("rows-columns", fam).values)


@pytest.mark.parametrize("workload", [TINY_MST, TINY_DAG])
def test_corrupted_and_raising_calls_are_counted_and_the_run_goes_on(monkeypatch, capsys, workload):
    original = workload.call
    calls = {"n": 0}

    def broken(algo, inputs, backend=None, stats=None):
        out = original(algo, inputs, backend=backend, stats=stats)
        if algo == workload.algos[0]:
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected")
            table = workload.table(out)
            table[0] = (table[0] + 1) % PrimeField().p
        return out

    monkeypatch.setattr(workload, "call", broken)
    result = run_tiny(monkeypatch, capsys, workload, trace=0)
    assert result["correct"] is False
    assert result["failed"] == calls["n"] >= 2
    assert result["attempted"] > result["failed"]
    assert result["metrics"]["scan_algo_cpu_s"]["value"] > 0


def test_clean_runs_report_every_metric(monkeypatch, capsys):
    result = run_tiny(monkeypatch, capsys, TINY_FINE, trace=0)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    result = run_tiny(monkeypatch, capsys, TINY_DAG, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == tracing.per_layer_names()
    assert all(m["value"] is not None for m in result["metrics"].values())
    assert result["metrics"]["rmm_algo.dag.rounds"]["value"] == TINY_DAG.n


@pytest.mark.parametrize("workload,algo", [
    (TINY_MST, "columns"), (TINY_MST, "rows-columns"), (TINY_FINE, "cover"),
    (TINY_FINE, "naive"), (TINY_DAG, "columns"), (TINY_DAG, "rows-columns"),
])
def test_counts_repeat_and_match_their_closed_forms(workload, algo):
    first, out = counts.exact_counts(workload, algo, seed=1)
    again, _ = counts.exact_counts(workload, algo, seed=2)
    assert first == again
    predicted = counts.predictions(workload, algo)
    assert first["pair_iterations"] == predicted["pair_iterations"]
    assert first["rmm_muls"] == predicted["rmm_muls"]
    assert first["ring.muls"] > 0 and first["ring.adds"] > 0
    inputs = workload.make_inputs(PrimeField(), 1)
    assert workload.checker(inputs, 1).check(workload.table(out))


def test_self_time_plus_child_spans_equals_the_parent_span():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    root = tracer.begin("root")
    tracer.end(tracer.begin("a"))
    b = tracer.begin("b")
    tracer.end(tracer.begin("c"))
    tracer.end(b)
    tracer.end(root)
    assert tracer.self_times() == [4.0, 2.0, 3.0, 1.0]


def test_self_time_plus_child_spans_equals_the_parent_span_on_a_traced_call():
    tracer = tracing.Tracer()
    inputs = TINY_DAG.make_inputs(PrimeField(), 1)
    with tracing.instrument(tracer) as missing:
        root = tracer.begin("dag.sum_acyclic_digraphs")
        TINY_DAG.call("columns", inputs, backend=tracing.TimingBackend(ClassicalBackend(), tracer))
        tracer.end(root)
    assert not missing
    own = tracer.self_times()
    for i in range(len(tracer.names)):
        children = sum(tracer.duration(j) for j, p in enumerate(tracer.parents) if p == i)
        assert own[i] + children == pytest.approx(tracer.duration(i), abs=1e-9)
    assert {"mst.run_transform", "mst.build_submatrix", "rmm.multiply",
            "setfn.zeta_transform"} <= set(tracer.names)


def test_a_missing_seam_is_reported_unmeasured(monkeypatch, capsys):
    seams = tuple(
        ("multisubset.mst", "no_such_function", span) if span == "mst.build_submatrix" else seam
        for seam in tracing.SEAMS for span in [seam[2]]
    )
    monkeypatch.setattr(tracing, "SEAMS", seams)
    result = run_tiny(monkeypatch, capsys, TINY_MST, trace=1)
    assert result["correct"] is True
    metrics = result["metrics"]
    for role in tracing.ROLES:
        for name in ("mst.build_s", "mst.build_entries", "mst.self_s"):
            assert metrics[f"{role}.{name}"]["value"] is None
        assert metrics[f"{role}.rmm.kernel_s"]["value"] > 0


def test_run_loop_alternates_and_stops_within_the_budget():
    now = [0.0]
    order = []

    def step(algo):
        order.append(algo)
        now[0] += 1.0 if algo == "a" else 2.0

    run.run_loop(("a", "b"), step, 10.0, clock=lambda: now[0])
    assert order == ["a", "b", "b", "a", "a", "b"]
    assert now[0] <= 10.0


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_names()
    for m in spec["per_layer"]:
        unit, better, _ = tracing.LAYER_METRICS[m["name"].split(".", 1)[1]]
        assert (m["unit"], m["better"]) == (unit, better)
