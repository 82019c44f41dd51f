import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multisubset import (
    BinomFactsReport,
    DEFAULT_OMEGA_TABLE,
    OmegaTable,
    binom_facts_check,
    entropy,
    entropy_base,
    gamma_search,
    gamma_value,
    omega_line,
    optimize_columns,
    optimize_rows_columns,
)
from multisubset.analysis import (
    COVER_OMEGA_TABLE,
    LINE_OMEGA_INTERCEPT,
    MIN_GRID_RESOLUTION,
    columns_terms,
    gamma_inner_min,
    gamma_terms,
    resolve_omega,
    rows_columns_exponent,
    rows_columns_terms,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_entropy_values():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(0.5) == 1.0
    assert entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)
    with pytest.raises(ValueError):
        entropy(-0.1)
    with pytest.raises(ValueError):
        entropy(1.1)


@given(unit)
def test_entropy_symmetry(x):
    assert entropy(x) == pytest.approx(entropy(1.0 - x), abs=1e-12)
    assert 0.0 <= entropy(x) <= 1.0


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_entropy_base_identity(x):
    # b(x) = 2^H(x) = x^-x (1-x)^(x-1)
    direct = x ** (-x) * (1.0 - x) ** (x - 1.0)
    assert entropy_base(x) == pytest.approx(direct, rel=1e-12)


def test_omega_line():
    assert omega_line(1.75) == pytest.approx(3.021591, abs=1e-12)
    assert omega_line(0.0) == LINE_OMEGA_INTERCEPT
    assert omega_line(2.0) - omega_line(1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        omega_line(-0.5)


def test_omega_table_envelope():
    tab = DEFAULT_OMEGA_TABLE
    assert tab.upper(0.0) == 2.0
    assert tab.upper(1.0) == pytest.approx(2.3728639)
    assert tab.upper(1.75) == pytest.approx(3.021591)
    assert tab.upper(2.0) == pytest.approx(3.252)
    assert tab.upper(2.5) == pytest.approx(3.752)  # slope-one continuation
    assert tab.upper(0.5) == pytest.approx(2.3728639)  # flat until the anchor
    with pytest.raises(ValueError):
        tab.upper(-1.0)


@given(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=0.5))
def test_omega_table_monotone_lipschitz(k, dk):
    tab = DEFAULT_OMEGA_TABLE
    lo, hi = tab.upper(k), tab.upper(k + dk)
    assert lo <= hi + 1e-12  # nondecreasing
    assert hi - lo <= dk + 1e-12  # slope at most one


def test_omega_table_numpy_agrees():
    tab = DEFAULT_OMEGA_TABLE
    ks = np.linspace(0.0, 3.0, 301)
    vec = tab.upper_np(ks)
    assert np.allclose(vec, [tab.upper(float(k)) for k in ks])


def test_omega_table_validation():
    with pytest.raises(ValueError):
        OmegaTable(anchors=())
    with pytest.raises(ValueError):
        OmegaTable(anchors=((1.0, 2.4), (0.5, 2.2)))  # unsorted
    with pytest.raises(ValueError):
        OmegaTable(anchors=((0.0, 1.9),))  # below the trivial bound
    with pytest.raises(ValueError):
        OmegaTable(anchors=((-1.0, 2.5),))


def test_cover_omega_table_is_valid():
    tab = COVER_OMEGA_TABLE
    for k, w in tab.anchors:
        assert tab.upper(k) == pytest.approx(w, abs=1e-12)
    # alpha > 0.31389 (Le Gall and Urrutia 2018)
    for k in np.linspace(0.0, 0.31389, 21):
        assert tab.upper(float(k)) == 2.0
    ks = np.linspace(0.0, 3.0, 3001)
    vals = np.array([tab.upper(float(k)) for k in ks])
    assert np.allclose(tab.upper_np(ks), vals, rtol=0.0, atol=1e-12)
    # no looser than the staircase, no tighter than the floor under every bound
    assert np.all(vals <= DEFAULT_OMEGA_TABLE.upper_np(ks) + 1e-12)
    assert np.all(vals >= np.maximum(2.0, 1.0 + ks) - 1e-12)
    steps = np.diff(vals)
    dk = ks[1] - ks[0]
    assert np.all(steps >= -1e-12)  # nondecreasing
    assert np.all(steps <= dk + 1e-12)  # slope at most one
    assert np.all(np.diff(steps) >= -1e-12)  # convex
    with pytest.raises(ValueError):
        tab.upper(-0.1)


def test_resolve_omega_modes():
    mode, fn = resolve_omega("paper")
    assert mode == "line" and fn is omega_line
    assert resolve_omega("line")[0] == "line"
    mode, fn = resolve_omega("table")
    assert mode == "table"
    assert fn(1.75) == pytest.approx(3.021591)
    with pytest.raises(ValueError):
        resolve_omega("oracle")


def test_columns_optimum():
    report = optimize_columns()
    sigma = report.parameters["sigma"]
    assert sigma == pytest.approx(0.3642045, abs=1e-4)
    assert report.base == pytest.approx(2.994, abs=1e-3)
    rect, scan = columns_terms(sigma)
    assert rect == pytest.approx(scan, abs=1e-6)
    assert report.exponent == pytest.approx(max(rect, scan))
    assert report.mode == "line"
    d = report.to_json_dict()
    assert d["algorithm"] == "columns" and d["base"] == report.base


def test_columns_terms_domain():
    with pytest.raises(ValueError):
        columns_terms(0.3)
    with pytest.raises(ValueError):
        columns_terms(0.5)


def test_columns_terms_monotone():
    # the product term rises with sigma while the scan term falls, which
    # is what makes the balance point the optimum
    grid = np.linspace(1 / 3 + 1e-6, 0.5 - 1e-6, 50)
    rects, scans = zip(*(columns_terms(float(s)) for s in grid))
    assert all(a < b for a, b in zip(rects, rects[1:]))
    assert all(a > b for a, b in zip(scans, scans[1:]))


def test_rows_columns_optimum():
    report = optimize_rows_columns()
    sigma = report.parameters["sigma"]
    tau = report.parameters["tau"]
    assert tau == pytest.approx(0.59777, abs=1e-3)
    assert sigma == pytest.approx(0.38185, abs=1e-3)
    assert report.base == pytest.approx(2.985, abs=1e-3)
    t_scan, t_rect, t_direct = rows_columns_terms(sigma, tau)
    assert t_scan == pytest.approx(t_direct, abs=1e-6)
    assert t_rect == pytest.approx(t_direct, abs=1e-6)  # forced by the slope-one bound


def test_rows_columns_tau_near_upper_end_is_worse():
    # close to tau = 2/3 the trimmed-scan term dominates and overshoots
    optimum = optimize_rows_columns().exponent
    assert rows_columns_exponent(0.3642, 0.666) > optimum
    assert rows_columns_terms(0.3642, 0.666)[0] == pytest.approx(
        rows_columns_exponent(0.3642, 0.666)
    )


def test_rows_columns_table_mode():
    report = optimize_rows_columns(mode="table", resolution=1e-3)
    assert report.mode == "table"
    assert report.resolution == 1e-3
    assert report.uncertainty == pytest.approx(2e-3)
    # staircase bound is weaker than the slope-one line in the used range
    assert report.exponent >= optimize_rows_columns().exponent - 1e-9
    # the finest and the coarsest grids accepted, then steps outside them
    assert optimize_rows_columns(mode="table", resolution=0.16).parameters["tau"] == pytest.approx(0.66)
    for bad in (0.0, -0.01, MIN_GRID_RESOLUTION / 2, 1.0 / 6.0, math.nan):
        with pytest.raises(ValueError):
            optimize_rows_columns(mode="table", resolution=bad)


def test_gamma_terms_special_cases():
    # sigma = kappa: every in-block subset is the block itself
    a1, a2, b1, b2, bmin = gamma_terms(0.4, 0.4, 0.4, 0.4)
    assert a1 == a2 == 0.0
    assert b1 == b2 == pytest.approx(0.6)
    assert bmin == pytest.approx(0.6)
    # sigma = kappa = 0 uses ratio 0 by convention
    a1, _, b1, _, _ = gamma_terms(0.0, 0.0, 0.0, 0.0)
    assert a1 == 0.0 and b1 == 1.0
    with pytest.raises(ValueError):
        gamma_terms(0.5, 0.1, 0.4, 0.5)  # sigma1 > kappa1


def test_gamma_value_symmetry_and_closed_forms():
    assert gamma_value(0.3, 0.45, 0.6, 0.8) == pytest.approx(
        gamma_value(0.45, 0.3, 0.8, 0.6), abs=1e-12
    )
    # whole-half blocks (kappa = 1): rows are everything, product dominates
    tab = DEFAULT_OMEGA_TABLE
    for s in (0.1, 0.25, 0.4, 0.5):
        expected = tab.upper(2.0 * entropy(s))
        assert gamma_value(s, s, 1.0, 1.0, tab) == pytest.approx(expected, abs=1e-12)
    # empty columns contribute a flat exponent of 2 regardless of blocks
    assert gamma_value(0.0, 0.0, 0.3, 0.7) == pytest.approx(2.0)


@settings(max_examples=200, deadline=None)
@given(
    s1=st.floats(min_value=0.0, max_value=1.0),
    s2=st.floats(min_value=0.0, max_value=1.0),
    t1=st.floats(min_value=0.0, max_value=1.0),
    t2=st.floats(min_value=0.0, max_value=1.0),
)
def test_gamma_value_nonnegative(s1, s2, t1, t2):
    k1 = s1 + t1 * (1.0 - s1)
    k2 = s2 + t2 * (1.0 - s2)
    v = gamma_value(s1, s2, k1, k2)
    assert v >= -1e-12
    assert math.isfinite(v)


@settings(max_examples=15, deadline=None)
@given(
    s1=st.floats(min_value=0.0, max_value=1.0),
    s2=st.floats(min_value=0.0, max_value=1.0),
)
def test_gamma_inner_min_dominated(s1, s2):
    value = gamma_inner_min(s1, s2, grid_points=41, tol=1e-6)[0]
    # never worse than the extreme block choices it ranges over
    whole_half = gamma_value(s1, s2, 1.0, 1.0)
    tight = gamma_value(s1, s2, s1, s2)
    assert value <= min(whole_half, tight) + 1e-9
    assert value >= -1e-12
    # tight blocks give H(s1)+H(s2)+(1-s1)+(1-s2), maximized at 2*log2(3)
    assert tight <= 2.0 * math.log2(3.0) + 1e-9


def test_gamma_empty_columns_round():
    # sigma = 0 rounds cost exactly 2 per half-pair whatever the blocks
    assert gamma_inner_min(0.0, 0.0, grid_points=5, refine=False)[0] == pytest.approx(2.0)


def test_gamma_half_density_floor():
    # sigma1 = sigma2 = 1/2 never drops below 2.5 over the whole kappa square
    for k1 in np.linspace(0.5, 1.0, 21):
        for k2 in np.linspace(0.5, 1.0, 21):
            assert gamma_value(0.5, 0.5, float(k1), float(k2)) >= 2.5 - 1e-9


def test_gamma_inner_min_below_samples():
    value, k1, k2 = gamma_inner_min(0.35, 0.42)
    assert 0.35 <= k1 <= 1.0 and 0.42 <= k2 <= 1.0
    assert value == pytest.approx(gamma_value(0.35, 0.42, k1, k2), abs=1e-9)
    for kap1, kap2 in [(0.4, 0.5), (0.6, 0.6), (1.0, 1.0), (0.35, 0.42)]:
        assert value <= gamma_value(0.35, 0.42, kap1, kap2) + 1e-9


def test_gamma_search_trimmed():
    report = gamma_search(
        table=DEFAULT_OMEGA_TABLE, max_candidates=4, candidate_window=0.004
    )
    p = report.parameters
    assert set(p) == {"sigma1", "sigma2", "kappa1", "kappa2", "gamma"}
    assert report.exponent == pytest.approx(p["gamma"] / 2.0)
    assert report.base == pytest.approx(2.0 ** report.exponent)
    # the default staircase table lands here; see the acceptance run for context
    assert p["gamma"] == pytest.approx(3.13353, abs=2e-3)
    assert 2.9 < report.base < 3.0
    with pytest.raises(ValueError):
        gamma_search(resolution=1e-4)


@pytest.mark.parametrize("resolution", [0.02, 0.003])
def test_gamma_search_rejects_a_resolution_that_does_not_divide_coarse(resolution):
    # 0.02 gave no refinement patch at all (base 2.0), 0.003 misplaced them
    with pytest.raises(ValueError):
        gamma_search(resolution=resolution)


def test_binom_facts():
    for n in (1, 3, 4, 10, 17, 25, 40):
        report = binom_facts_check(n)
        assert isinstance(report, BinomFactsReport)
        assert report.ok, report.violations
    with pytest.raises(ValueError):
        binom_facts_check(0)
    with pytest.raises(ValueError):
        binom_facts_check(41)


def test_binom_chain_spot_check():
    # n=20, k=7: recompute the chain that binom_facts_check certifies
    n, k = 20, 7
    b = entropy_base(k / n) ** n
    assert b / math.sqrt(2 * n) <= math.comb(n, k) <= sum(
        math.comb(n, j) for j in range(k + 1)
    ) <= b
