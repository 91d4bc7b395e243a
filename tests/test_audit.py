"""Tests for the Monte Carlo distinguishing game and its analysis."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from privtune.audit import (
    GameConfig,
    clopper_pearson_upper,
    eps_lower_bound,
    run_audit,
    simulate_game,
    sweep_thresholds,
    thread_count,
)
from privtune.accountant import calibrate_sigma_gdp
from privtune.runcount import PointMass
from privtune.runcount import TruncatedNegativeBinomial as TNB
from privtune.tradeoff import (
    DpSgdConfig,
    GaussianCurve,
    gdp_approx_mu,
    gdp_mu_from_eps_delta,
)

# Frozen regression values. The Clopper-Pearson zero-successes case has
# the closed form 1 - (1 - confidence)^(1/n); the epsilon bound for
# rates (0.1, 0.2) at delta 1e-5 is log((1 - 1e-5 - 0.2) / 0.1). The
# game values were frozen from seeded runs after validating the
# simulator against its analytic trade-off curve.
_CP_ZERO_OF_TEN = 0.3084971078187608
_EPS_RATES_EXAMPLE = 2.0794290416017103
_SIGMA_GDP_EPS2 = 63.44900768023062
_GAME_SEED7 = {
    "best_threshold": 5.022118695873438,
    "counts": (554, 32, 1571459, 1573683),
    "fp_upper": 2.8746116090436562e-05,
    "fn_upper": 0.9996767771306432,
    "eps_lower": 2.388412314220744,
}
_SMOKE_MEAN_NULL = 0.617454999269097
_SMOKE_MEAN_ALT = 1.6381889160225713


def test_clopper_pearson_upper_frozen_values():
    assert clopper_pearson_upper(0, 10, 0.975) == pytest.approx(
        _CP_ZERO_OF_TEN, rel=1e-12
    )
    assert clopper_pearson_upper(0, 10, 0.975) == pytest.approx(
        1.0 - 0.025 ** (1.0 / 10.0), rel=1e-12
    )
    assert clopper_pearson_upper(5, 5, 0.975) == 1.0


def test_clopper_pearson_upper_dominates_point_estimate():
    for successes, trials in ((0, 10), (3, 10), (9, 10), (50, 1000)):
        upper = clopper_pearson_upper(successes, trials, 0.975)
        assert upper > successes / trials
        assert upper <= 1.0


def test_clopper_pearson_upper_monotone_in_successes():
    values = [clopper_pearson_upper(s, 20, 0.975) for s in range(21)]
    assert all(a < b + 1e-15 for a, b in zip(values, values[1:]))


def test_clopper_pearson_upper_on_arrays_solves_the_binomial_tail():
    # The upper limit u for s successes in n draws solves
    # P(Binomial(n, u) <= s) = 1 - confidence; the tail is summed here
    # term by term.
    for n in range(1, 61):
        counts = np.arange(n + 1)
        for confidence in (0.6, 0.95, 0.975, 0.999):
            upper = clopper_pearson_upper(counts, n, confidence)
            scalar = [
                clopper_pearson_upper(int(s), n, confidence) for s in counts
            ]
            assert upper.tolist() == scalar
            assert upper[n] == 1.0
            for s in range(n):
                u = float(upper[s])
                tail = math.fsum(
                    math.comb(n, i) * u**i * (1.0 - u) ** (n - i)
                    for i in range(s + 1)
                )
                assert abs(tail - (1.0 - confidence)) <= 1e-10


def test_eps_lower_bound_frozen_values():
    assert eps_lower_bound(0.1, 0.2, 1e-5) == pytest.approx(
        _EPS_RATES_EXAMPLE, rel=1e-12
    )
    assert eps_lower_bound(0.5, 0.5, 0.0) == 0.0
    assert eps_lower_bound(1.0, 1e-12, 1e-5) == 0.0
    assert math.isinf(eps_lower_bound(0.1, 0.0, 1e-5))


def test_eps_lower_bound_symmetric_in_rates():
    assert eps_lower_bound(0.05, 0.3, 1e-5) == eps_lower_bound(
        0.3, 0.05, 1e-5
    )


def test_eps_lower_bound_rejects_bad_rates():
    with pytest.raises(ValueError):
        eps_lower_bound(-0.1, 0.5, 1e-5)
    with pytest.raises(ValueError):
        eps_lower_bound(0.5, 1.5, 1e-5)


def test_calibrate_sigma_gdp_frozen_value_and_round_trip():
    sigma = calibrate_sigma_gdp(2.0, 1e-5, 1.0, 1000)
    assert sigma == pytest.approx(_SIGMA_GDP_EPS2, rel=1e-9)
    config = DpSgdConfig(sigma, 1.0, 1000)
    assert gdp_approx_mu(config) == pytest.approx(
        gdp_mu_from_eps_delta(2.0, 1e-5), abs=1e-8
    )


def test_calibrate_sigma_gdp_returns_the_larger_sigma():
    target = gdp_mu_from_eps_delta(2.0, 1e-5)
    sigma = calibrate_sigma_gdp(2.0, 1e-5, 1.0, 1000)
    below = math.nextafter(sigma, 0.0)
    assert gdp_approx_mu(DpSgdConfig(sigma, 1.0, 1000)) <= target
    assert gdp_approx_mu(DpSgdConfig(below, 1.0, 1000)) > target


def test_calibrate_sigma_gdp_names_an_unreachable_budget():
    with pytest.raises(ValueError, match=r"eps_b=0\.0001 is out of reach"):
        calibrate_sigma_gdp(1e-4, 1e-5, 1.0, 1000)
    # A budget whose mu lies above the [1e-12, 100] bracket of
    # gdp_mu_from_eps_delta is named by its epsilon and delta.
    with pytest.raises(ValueError, match=r"delta=1e-05 at epsilon=10000\.0"):
        calibrate_sigma_gdp(1e4, 1e-5, 1.0, 1000)


def test_game_config_validation():
    config = DpSgdConfig(60.0, 1.0, 1000)
    dist = TNB(1.0, 1e-2)
    with pytest.raises(ValueError):
        GameConfig(config=config, dist=dist, trials=0)
    with pytest.raises(ValueError):
        GameConfig(config=config, dist=dist, trials=100, confidence=1.0)
    with pytest.raises(ValueError):
        GameConfig(config=config, dist=dist, trials=100, delta=1.0)
    with pytest.raises(ValueError):
        GameConfig(config=config, dist=dist, trials=100, seed=-1)


def test_simulate_game_splits_truth_evenly():
    cfg = GameConfig(
        config=DpSgdConfig(5.0, 0.5, 100),
        dist=TNB(0.0, 0.1),
        trials=20_000,
        seed=4,
    )
    truth, scores = simulate_game(cfg)
    assert truth.shape == scores.shape == (20_000,)
    assert int((truth == 0).sum()) == 10_033
    assert int((truth == 1).sum()) == 9_967
    assert float(scores[truth == 0].mean()) == pytest.approx(
        _SMOKE_MEAN_NULL, rel=1e-12
    )
    assert float(scores[truth == 1].mean()) == pytest.approx(
        _SMOKE_MEAN_ALT, rel=1e-12
    )


def test_simulate_game_single_run_scores_are_standard_normal():
    cfg = GameConfig(
        config=DpSgdConfig(50.0, 1.0, 1000),
        dist=PointMass(1),
        trials=10**5,
        seed=8,
    )
    truth, scores = simulate_game(cfg)
    assert stats.kstest(scores[truth == 0], "norm").pvalue > 0.01
    mu = np.sqrt(1000.0) / 50.0
    assert stats.kstest(scores[truth == 1] - mu, "norm").pvalue > 0.01


def test_simulated_roc_tracks_gaussian_tradeoff_curve():
    cfg = GameConfig(
        config=DpSgdConfig(40.0, 1.0, 1000),
        dist=PointMass(1),
        trials=10**6,
        seed=3,
    )
    truth, scores = simulate_game(cfg)
    null = np.sort(scores[truth == 0])
    alt = np.sort(scores[truth == 1])
    levels = np.linspace(0.0005, 0.9995, 2001)
    thresholds = np.quantile(null, 1.0 - levels)
    fn = np.searchsorted(alt, thresholds, side="right") / alt.size
    mu = np.sqrt(1000.0) / 40.0
    assert float(np.max(np.abs(fn - GaussianCurve(mu)(levels)))) < 0.01


def test_run_audit_frozen_game_and_thread_invariance(monkeypatch):
    cfg = GameConfig(
        config=DpSgdConfig(60.0, 1.0, 1000),
        dist=TNB(1.0, 1e-2),
        trials=3 * (1 << 20),
        seed=7,
    )
    monkeypatch.setenv("PRIVTUNE_THREADS", "1")
    serial = run_audit(cfg)
    monkeypatch.setenv("PRIVTUNE_THREADS", "4")
    parallel = run_audit(cfg)
    for sweep in (serial, parallel):
        best = sweep.best
        fp, fn = int(sweep.fp_counts[best]), int(sweep.fn_counts[best])
        counts = (sweep.n_alternative - fn, fp, sweep.n_null - fp, fn)
        assert sweep.thresholds[best] == _GAME_SEED7["best_threshold"]
        assert counts == _GAME_SEED7["counts"]
        assert sweep.fp_upper[best] == _GAME_SEED7["fp_upper"]
        assert sweep.fn_upper[best] == _GAME_SEED7["fn_upper"]
        assert sweep.eps_lower[best] == _GAME_SEED7["eps_lower"]


def test_run_audit_no_signal_concludes_nothing():
    cfg = GameConfig(
        config=DpSgdConfig(1e6, 1.0, 1000),
        dist=TNB(1.0, 1e-2),
        trials=10**6,
        seed=5,
    )
    sweep = run_audit(cfg)
    assert sweep.eps_lower[sweep.best] <= 0.05


def test_sweep_thresholds_matches_scalar_recomputation():
    cfg = GameConfig(
        config=DpSgdConfig(60.0, 1.0, 1000),
        dist=TNB(1.0, 1e-2),
        trials=1 << 18,
        seed=13,
    )
    truth, scores = simulate_game(cfg)
    sweep = sweep_thresholds(truth, scores, cfg.confidence, cfg.delta)
    null = np.sort(scores[truth == 0])
    alt = np.sort(scores[truth == 1])
    assert sweep.n_null == null.size
    assert sweep.n_alternative == alt.size
    assert sweep.n_null + sweep.n_alternative == cfg.trials
    assert np.all(np.diff(sweep.thresholds) > 0)
    side = 1.0 - (1.0 - cfg.confidence) / 2.0
    for i in range(0, sweep.thresholds.size, 37):
        thr = float(sweep.thresholds[i])
        fp = null.size - int(np.searchsorted(null, thr, side="right"))
        fn = int(np.searchsorted(alt, thr, side="right"))
        assert sweep.fp_counts[i] == fp
        assert sweep.fn_counts[i] == fn
        fp_up = clopper_pearson_upper(fp, null.size, side)
        fn_up = clopper_pearson_upper(fn, alt.size, side)
        assert sweep.fp_upper[i] == pytest.approx(fp_up, rel=1e-12)
        assert sweep.fn_upper[i] == pytest.approx(fn_up, rel=1e-12)
        expected_eps = eps_lower_bound(fp_up, fn_up, cfg.delta)
        assert sweep.eps_lower[i] == pytest.approx(expected_eps, rel=1e-12)


def test_sweep_thresholds_peak_memory_and_bool_truth():
    cfg = GameConfig(
        config=DpSgdConfig(60.0, 1.0, 1000),
        dist=TNB(1.0, 1e-2),
        trials=1 << 21,
        seed=13,
    )
    truth, scores = simulate_game(cfg)
    assert truth.dtype == bool
    sweep_thresholds(truth[:1000], scores[:1000], cfg.confidence, cfg.delta)
    tracemalloc.start()
    try:
        sweep_thresholds(truth, scores, cfg.confidence, cfg.delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The two sorted classes plus one class's unsorted copy: 1.5 times
    # the scores (2.0 when the quantiles' copy was still alive).
    assert peak <= 1.6 * scores.nbytes


def test_run_audit_reports_the_best_sweep_row():
    cfg = GameConfig(
        config=DpSgdConfig(60.0, 1.0, 1000),
        dist=TNB(1.0, 1e-2),
        trials=1 << 18,
        seed=13,
    )
    truth, scores = simulate_game(cfg)
    sweep = run_audit(cfg)
    expected = sweep_thresholds(truth, scores, cfg.confidence, cfg.delta)
    np.testing.assert_array_equal(sweep.eps_lower, expected.eps_lower)
    best = sweep.best
    assert isinstance(best, int)
    peak = np.max(sweep.eps_lower)
    assert sweep.eps_lower[best] == peak
    assert np.all(sweep.eps_lower[:best] < peak)
    # A tie goes to the first row.
    tied = dataclasses.replace(sweep, eps_lower=np.array([0.0, 2.0, 1.0, 2.0]))
    assert tied.best == 1


def test_thread_count_env_override(monkeypatch):
    monkeypatch.setenv("PRIVTUNE_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.delenv("PRIVTUNE_THREADS")
    assert thread_count() >= 1
    for bad in ("0", "-2", "abc"):
        monkeypatch.setenv("PRIVTUNE_THREADS", bad)
        with pytest.raises(ValueError):
            thread_count()


@given(
    successes=st.integers(min_value=0, max_value=50),
    trials=st.integers(min_value=1, max_value=50),
    confidence=st.floats(min_value=0.5, max_value=0.999),
)
@settings(max_examples=150, deadline=None)
def test_clopper_pearson_upper_is_a_valid_bound(
    successes, trials, confidence
):
    if successes > trials:
        successes = trials
    upper = clopper_pearson_upper(successes, trials, confidence)
    assert successes / trials <= upper <= 1.0


@given(
    fp=st.floats(min_value=0.0, max_value=1.0),
    fn=st.floats(min_value=0.0, max_value=1.0),
    delta=st.floats(min_value=0.0, max_value=0.1),
)
@settings(max_examples=150, deadline=None)
def test_eps_lower_bound_is_nonnegative(fp, fn, delta):
    value = eps_lower_bound(fp, fn, delta)
    assert value >= 0.0
