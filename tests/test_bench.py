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
    assert predicted_pair_iterations("naive", 6) == 3**6
    assert predicted_pair_iterations("cover", 6) == 0
