import pytest

from multisubset import PipelineStats, make_ring, run_transform
from multisubset.bench import predicted_pair_iterations

from helpers import random_family


@pytest.mark.parametrize("algo", ["naive", "columns", "rows-columns", "cover"])
@pytest.mark.parametrize("n", [3, 5, 8, 11])
def test_prediction_matches_measurement(algo, n):
    fam = random_family(make_ring("modp"), n, seed=n)
    stats = PipelineStats()
    run_transform(algo, fam, stats=stats)
    assert stats.pair_iterations == predicted_pair_iterations(algo, n)


def test_prediction_validation():
    with pytest.raises(ValueError):
        predicted_pair_iterations("magic", 5)
    with pytest.raises(ValueError):
        predicted_pair_iterations("naive", 5, sigma=0.4)
    # the same open intervals run_transform enforces
    for algo in ("columns", "rows-columns"):
        for bad_sigma in (0.2, 1 / 3, 0.5, 0.9):
            with pytest.raises(ValueError):
                predicted_pair_iterations(algo, 10, sigma=bad_sigma)
    for bad_tau in (0.4, 0.5, 2 / 3, 0.8):
        with pytest.raises(ValueError):
            predicted_pair_iterations("rows-columns", 10, tau=bad_tau)
    assert predicted_pair_iterations("naive", 6) == 3**6
    assert predicted_pair_iterations("cover", 6) == 0
