import pytest

from multisubset import PipelineStats, run_transform
from multisubset.bench import (
    BenchRecord,
    CSV_HEADER,
    predicted_pair_iterations,
    records_from_csv,
    records_to_csv,
    run_bench,
)

from conftest import random_family
from multisubset import make_ring


@pytest.mark.parametrize("algo", ["naive", "columns", "rows-columns", "cover"])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_prediction_matches_measurement(algo, n):
    fam = random_family(make_ring("modp"), n, seed=n)
    stats = PipelineStats()
    run_transform(algo, fam, stats=stats)
    assert stats.pair_iterations == predicted_pair_iterations(algo, n)


def test_prediction_validation():
    with pytest.raises(ValueError):
        predicted_pair_iterations("magic", 5)
    assert predicted_pair_iterations("naive", 6) == 3**6
    assert predicted_pair_iterations("cover", 6) == 0


def test_run_bench_shape_and_sorting():
    records = run_bench(2, 4, ["columns", "naive"], seeds=2)
    assert len(records) == 2 * 3 * 2
    keys = [(r.algo, r.n, r.seed) for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert r.pair_iterations == r.predicted_pairs
        assert r.ring == "modp"
        assert r.backend == ("" if r.algo == "naive" else "classical")
        assert r.wall_ms >= 0.0
        assert r.muls > 0


def test_run_bench_validation():
    with pytest.raises(ValueError):
        run_bench(0, 3, ["naive"], seeds=1)
    with pytest.raises(ValueError):
        run_bench(2, 17, ["columns"], seeds=1)
    with pytest.raises(ValueError):
        run_bench(2, 15, ["naive"], seeds=1)  # naive capped lower
    with pytest.raises(ValueError):
        run_bench(2, 3, ["quantum"], seeds=1)
    with pytest.raises(ValueError):
        run_bench(2, 3, ["naive"], seeds=0)


def test_csv_roundtrip():
    records = run_bench(2, 3, ["cover"], seeds=1)
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    back = records_from_csv(text)
    assert [r.to_row() for r in back] == [r.to_row() for r in records]
    with pytest.raises(ValueError):
        records_from_csv("algo,n\nx,1\n")
    with pytest.raises(ValueError):
        BenchRecord.from_row("too,few,fields")


def test_sigma_tau_columns_present():
    rec = run_bench(3, 3, ["rows-columns"], seeds=1)[0]
    assert rec.sigma is not None and rec.tau is not None
    row = rec.to_row()
    back = BenchRecord.from_row(row)
    assert back.sigma == pytest.approx(rec.sigma)
    assert back.tau == pytest.approx(rec.tau)
