"""Tests for the Monte Carlo distinguishing game and its analysis."""

from __future__ import annotations

import dataclasses
import math
import os
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from privtune._numerics import _CP_REL_ERR, _ndtri
from privtune.audit import (
    _BLOCK_SIZE,
    _QUANTILE_TOL,
    GameConfig,
    _mixture_quantile,
    _normal_best,
    _pooled_quantiles,
    _sweep_levels,
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
# the closed form 1 - (1 - confidence)^(1/n), raised by 2^-50 relative;
# the epsilon bound for rates (0.1, 0.2) at delta 1e-5 is
# log((1 - 1e-5 - 0.2) / 0.1). The game values were frozen from seeded
# runs after validating the simulator against its analytic trade-off
# curve (and its scores against scipy's normal quantile, below).
_CP_ZERO_OF_TEN = 0.30849710781876105
_EPS_RATES_EXAMPLE = 2.0794290416017103
_SIGMA_GDP_EPS2 = 63.44900768023062
_GAME_SEED7 = {
    "best_threshold": 4.830276432171211,
    "counts": (1326, 98, 1571393, 1572911),
    "fp_upper": 7.599776005067447e-05,
    "fn_upper": 0.9992024016523168,
    "eps_lower": 2.338284382014647,
}
_SMOKE_MEAN_NULL = 0.6322608549280475
_SMOKE_MEAN_ALT = 1.6309669714378408


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


def test_clopper_pearson_upper_broadcasts_trials_against_counts():
    # Each entry equals the scalar call on its own (count, trials) pair,
    # and only two scalars give a float.
    counts = np.array([[0, 3, 5], [7, 0, 40]])
    trials = np.array([[5], [40]])
    upper = clopper_pearson_upper(counts, trials, 0.975)
    assert upper.shape == (2, 3)
    assert upper.tolist() == [
        [clopper_pearson_upper(int(c), int(n), 0.975) for c in row]
        for row, n in zip(counts, trials[:, 0])
    ]
    assert isinstance(clopper_pearson_upper(3, 10, 0.975), float)
    assert clopper_pearson_upper(3, np.array([10, 20]), 0.975).shape == (2,)
    with pytest.raises(ValueError):
        clopper_pearson_upper(np.array([3, 6]), np.array([10, 5]), 0.975)


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


def _mp_beta_regularized(c: int, n: int, x: float):
    """I_x(c + 1, n - c) = P(Binomial(n, x) > c) at the working precision.

    The binomial terms are summed from c outward on the side away from
    the mean, where they fall, until a term is below 1e-45 of the sum.
    """
    x = mpmath.mpf(x)
    one = mpmath.mpf(1)
    floor = mpmath.mpf(10) ** -45

    def term(i):
        return mpmath.exp(
            mpmath.loggamma(n + 1) - mpmath.loggamma(i + 1)
            - mpmath.loggamma(n - i + 1) + i * mpmath.log(x)
            + (n - i) * mpmath.log1p(-x)
        )

    if c < n * x:  # sum P(K <= c) downward from c
        t = total = term(c)
        for i in range(c, 0, -1):
            t *= i / (n - i + one) * (one - x) / x
            total += t
            if t < floor * total:
                break
        return one - total
    t = total = term(c + 1)  # sum P(K > c) upward from c + 1
    for i in range(c + 1, n):
        t *= (n - i) / (i + one) * x / (one - x)
        total += t
        if t < floor * total:
            break
    return total


_CP_CASES = [
    (n, c)
    for n in (2, 10, 60, 1000, 10**5)
    for c in sorted({0, 1, 2, n // 3, n - 2, n - 1})
    if c < n
] + [(10**7, c) for c in (0, 1, 7, 100, 5000, 123456, 10**7 - 2, 10**7 - 1)]


@pytest.mark.parametrize("confidence", [0.975, 0.6, 0.999, 0.3])
def test_clopper_pearson_upper_brackets_the_40_digit_root(confidence):
    # Never below the exact limit, and within _CP_REL_ERR above it.
    for n, c in _CP_CASES:
        upper = clopper_pearson_upper(c, n, confidence)
        with mpmath.workdps(40):
            at = _mp_beta_regularized(c, n, upper)
            below = _mp_beta_regularized(c, n, upper * (1.0 - 2.0 * _CP_REL_ERR))
        assert at >= confidence, (n, c, upper)
        assert below < confidence, (n, c, upper)


def _sweep_counts(n: int) -> np.ndarray:
    """The 1024 false-positive and false-negative counts of the sweep's
    levels on two classes of n trials, as a 2n-trial audit draws."""
    levels = _sweep_levels()
    return np.round(n * np.concatenate([1.0 - levels, levels])).astype(int)


@pytest.mark.parametrize("n", [5 * 10**6, 5 * 10**8])
def test_clopper_pearson_upper_agrees_with_scipy(n):
    if n == 5 * 10**6:
        counts = _sweep_counts(n)
    else:
        counts = np.unique(
            np.concatenate([
                np.arange(1, 60),
                np.geomspace(60, n - 60, 600).astype(int),
                n - np.arange(1, 60),
            ])
        )
    ours = clopper_pearson_upper(counts, n, 0.975)
    scipy_limit = special.betaincinv(counts + 1, n - counts, 0.975)
    rel = np.abs(ours - scipy_limit) / scipy_limit
    # Each row of the 10^7-trial sweep (two classes of 5 10^6) is within
    # _CP_REL_ERR of scipy. At n = 5 10^8 scipy's limit is off by up to
    # 4e-9 relative below about 40 successes; there 40 digits put ours
    # above the exact limit and within _CP_REL_ERR of it, and scipy's
    # below the exact limit or above ours.
    apart = np.flatnonzero(rel > _CP_REL_ERR)
    assert np.all(counts[apart] < (0 if n == 5 * 10**6 else 60))
    for i in apart:
        c = int(counts[i])
        with mpmath.workdps(40):
            at = _mp_beta_regularized(c, n, ours[i])
            below = _mp_beta_regularized(c, n, ours[i] * (1.0 - 2.0 * _CP_REL_ERR))
            off = _mp_beta_regularized(c, n, scipy_limit[i])
        assert at >= 0.975 > below
        # scipy's limit is on the wrong side, or further out than ours.
        assert off < 0.975 or scipy_limit[i] > ours[i]


def test_exact_game_scores_match_scipys_normal_quantile():
    # The seed-7 game's best scores, recomputed block by block with
    # scipy.special.ndtri in place of the package's AS241: within 1.1e-15
    # relative, and simulate_game's scores are the package's bit for bit,
    # each class in trial order.
    cfg = GameConfig(
        config=DpSgdConfig(60.0, 1.0, 1000),
        dist=TNB(1.0, 1e-2),
        trials=3 * (1 << 20),
        seed=7,
    )
    classes = simulate_game(cfg)
    shift = math.sqrt(1000.0) / 60.0
    worst = 0.0
    filled = [0, 0]
    for block in range(cfg.trials // _BLOCK_SIZE):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, block]))
        bits = rng.integers(0, 2, size=_BLOCK_SIZE)
        level = cfg.dist.log_inverse_pgf(rng.random(_BLOCK_SIZE))
        with np.errstate(divide="ignore"):
            ours = _normal_best(level.copy())
        reference = special.ndtri(np.exp(level))
        at_one = np.isinf(reference) & (reference > 0)
        reference[at_one] = -special.ndtri(-np.expm1(level[at_one]))
        expected = ours + shift * bits
        for bit, scores in enumerate(classes):
            want = expected[bits == bit]
            got = scores[filled[bit] : filled[bit] + want.size]
            assert got.tobytes() == want.tobytes()
            filled[bit] += want.size
        finite = np.isfinite(reference) & (reference != 0.0)
        assert np.array_equal(ours[~finite], reference[~finite])
        gap = np.abs(ours[finite] - reference[finite]) / np.abs(reference[finite])
        worst = max(worst, float(gap.max()))
    assert filled == [scores.size for scores in classes]
    assert worst <= 1.1e-15


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
    # The small-sigma end's mu lies above the Gaussian-DP limit.
    with pytest.raises(
        ValueError,
        match=r"eps_b=1\.0 is out of reach: sigma in \[1, 100000\] at "
        r"n_iters=1000000000000000000 ",
    ):
        calibrate_sigma_gdp(1.0, 1e-5, 1.0, 10**18)


def test_game_config_validation():
    config = DpSgdConfig(60.0, 1.0, 1000)
    dist = TNB(1.0, 1e-2)
    with pytest.raises(ValueError):
        GameConfig(config=config, dist=dist, trials=0)
    with pytest.raises(ValueError):
        GameConfig(config=config, dist=dist, trials=100, confidence=1.0)
    # 1 - (1 - c) / 2 rounds to 1.0 for the largest double below 1.
    with pytest.raises(
        ValueError, match=r"confidence=0\.9999999999999999 is too close to 1"
    ):
        GameConfig(
            config=config, dist=dist, trials=100, confidence=1.0 - 2.0**-53
        )
    GameConfig(config=config, dist=dist, trials=100, confidence=1.0 - 2.0**-52)
    with pytest.raises(ValueError):
        GameConfig(config=config, dist=dist, trials=100, delta=1.0)
    with pytest.raises(ValueError):
        GameConfig(config=config, dist=dist, trials=100, seed=-1)


def _mixture(config: DpSgdConfig) -> tuple[np.ndarray, np.ndarray]:
    """Weights and means of one tau < 1 run's truth-1 score mixture."""
    n = config.n_iters
    b = np.arange(n + 1)
    shift = math.sqrt(n) / config.sigma
    return stats.binom.pmf(b, n, config.tau), shift * b / n


def _max_score_mean(config: DpSgdConfig, dist, alternative: bool) -> float:
    """E[max of K run scores], the integral of s d(S(F(s))), by Simpson."""
    weights, means = _mixture(config) if alternative else ([1.0], [0.0])
    s = np.linspace(-15.0, means[-1] + 15.0, 200_001)
    gap = s[:, None] - np.asarray(means)
    cdf = special.ndtr(gap) @ weights
    pdf = stats.norm.pdf(gap) @ weights
    return float(integrate.simpson(s * dist.omega(cdf) * pdf, x=s))


def test_simulate_game_splits_truth_evenly():
    cfg = GameConfig(
        config=DpSgdConfig(5.0, 0.5, 100),
        dist=TNB(0.0, 0.1),
        trials=20_000,
        seed=4,
    )
    classes = simulate_game(cfg)
    assert [sample.shape for sample in classes] == [(10_033,), (9_967,)]
    # The frozen means lie within 4 standard errors of the analytic ones.
    for bit, frozen in ((0, _SMOKE_MEAN_NULL), (1, _SMOKE_MEAN_ALT)):
        sample = classes[bit]
        exact = _max_score_mean(cfg.config, cfg.dist, bool(bit))
        error = float(np.std(sample, ddof=1)) / math.sqrt(sample.size)
        assert abs(frozen - exact) <= 4.0 * error
        assert float(sample.mean()) == pytest.approx(frozen, rel=1e-12)


def _mp_mixture_root(config: DpSgdConfig, log_level: float, start: float):
    """F^-1(exp(log_level)) by Newton steps on log F or log S in mpmath."""
    n = config.n_iters
    tau = mpmath.mpf(config.tau)
    shift = mpmath.sqrt(n) / mpmath.mpf(config.sigma)
    parts = [
        (mpmath.binomial(n, b) * tau**b * (1 - tau) ** (n - b), shift * b / n)
        for b in range(n + 1)
    ]
    lower = log_level <= -math.log(2.0)
    y = mpmath.mpf(log_level)
    target = y if lower else mpmath.log(-mpmath.expm1(y))
    sign = 1 if lower else -1
    s = mpmath.mpf(start)
    for _ in range(8):
        mass = mpmath.fsum(w * mpmath.ncdf(sign * (s - m)) for w, m in parts)
        density = mpmath.fsum(w * mpmath.npdf(s - m) for w, m in parts)
        s -= (mpmath.log(mass) - target) * mass / (sign * density)
    return s


@pytest.mark.parametrize(
    "config",
    [
        DpSgdConfig(0.5, 0.5, 1),  # two components
        DpSgdConfig(0.05, 0.01, 1),  # two separated, unequal components
        DpSgdConfig(1.0, 0.01, 20),
        DpSgdConfig(2.0, 0.5, 10),
        # Neighbouring means 8 apart: separated components.
        DpSgdConfig(1.0 / (8.0 * math.sqrt(3.0)), 0.5, 3),
    ],
)
def test_mixture_quantile_matches_a_40_digit_root(config):
    quantile = _mixture_quantile(config, PointMass(1000))
    # Levels from 2^-53 to 1 - 2^-53 / k at k = 1000, log-uniform in -log y.
    rng = np.random.default_rng(11)
    spans = np.log([2.0**-53 / 1000, 53.0 * math.log(2.0)])
    log_levels = -np.exp(
        np.concatenate([spans, rng.uniform(*spans, size=208)])
    )
    scores = quantile(log_levels)
    with mpmath.workdps(40):
        for log_level, score in zip(log_levels, scores):
            root = float(_mp_mixture_root(config, float(log_level), score))
            assert abs(score - root) <= _QUANTILE_TOL * max(1.0, abs(root))


def test_mixture_quantile_refuses_levels_outside_its_table():
    quantile = _mixture_quantile(DpSgdConfig(2.0, 0.5, 10), PointMass(1000))
    assert quantile(np.array([-np.inf])).tolist() == [-np.inf]
    with pytest.raises(ValueError, match="outside the quantile table"):
        quantile(np.array([-60.0]))
    with pytest.raises(ValueError, match="outside the quantile table"):
        quantile(np.array([-1e-40]))


def test_mixture_quantile_caps_its_table():
    # The docstring's largest n_iters at sigma = 1, tau = 0.5 and the
    # largest int64 point mass, and one more.
    largest = PointMass(2**63 - 1)
    _mixture_quantile(DpSgdConfig(1.0, 0.5, 206_126), largest)
    with pytest.raises(ValueError, match=r"n_iters=206127 at tau=0\.5"):
        _mixture_quantile(DpSgdConfig(1.0, 0.5, 206_127), largest)


@pytest.mark.parametrize("nu", [1e-40, 1e-150])
def test_mixture_quantile_covers_the_run_counts_top_level(nu):
    # The table's top comes from the run count: at these nu the top level
    # lies far above a table built for every int64 point mass.
    config = DpSgdConfig(2.0, 0.5, 10)
    dist = TNB(1.0, nu)
    (top,) = dist.log_inverse_pgf(np.array([1.0 - 2.0**-53]))
    assert -np.expm1(top) < 1e-50
    (score,) = _mixture_quantile(config, dist)(np.array([top]))
    with mpmath.workdps(40):
        root = float(_mp_mixture_root(config, float(top), score))
    assert abs(score - root) <= _QUANTILE_TOL * max(1.0, abs(root))
    with pytest.raises(ValueError, match="outside the quantile table"):
        _mixture_quantile(config, PointMass(2**63 - 1))(np.array([top]))


def test_subsampled_best_scores_follow_the_exact_cdf():
    cfg = GameConfig(
        config=DpSgdConfig(2.0, 0.3, 20),
        dist=PointMass(4),
        trials=10**5,
        seed=21,
    )
    _, alternative = simulate_game(cfg)
    weights, means = _mixture(cfg.config)

    def best_of_four_cdf(s):
        return (special.ndtr(np.subtract.outer(s, means)) @ weights) ** 4

    assert stats.kstest(alternative, best_of_four_cdf).pvalue > 0.01


def _per_run_scores(cfg: GameConfig) -> np.ndarray:
    """Truth-1 max scores drawn run by run from explicit run counts."""
    rng = np.random.default_rng(cfg.seed)
    counts = cfg.dist.sample(rng, cfg.trials)
    mech = cfg.config
    shift = math.sqrt(mech.n_iters) / mech.sigma
    scores = np.empty(cfg.trials)
    for k in np.unique(counts):
        rows = np.nonzero(counts == k)[0]
        normals = rng.standard_normal((rows.size, int(k)))
        hits = rng.binomial(mech.n_iters, mech.tau, size=(rows.size, int(k)))
        scores[rows] = np.max(normals + hits / mech.n_iters * shift, axis=1)
    return scores


@pytest.mark.parametrize("dist", [PointMass(4), TNB(0.0, 0.1), TNB(1.0, 1e-2)])
def test_subsampled_game_matches_the_per_run_sampler(dist):
    cfg = GameConfig(
        config=DpSgdConfig(5.0, 0.5, 100), dist=dist, trials=10**5, seed=9
    )
    _, alternative = simulate_game(cfg)
    reference = _per_run_scores(cfg)
    assert stats.ks_2samp(alternative, reference).pvalue > 0.01


def test_subsampled_game_is_thread_invariant(monkeypatch):
    cfg = GameConfig(
        config=DpSgdConfig(5.0, 0.5, 100),
        dist=TNB(1.0, 1e-2),
        trials=(1 << 20) + 5,
        seed=6,
    )
    monkeypatch.setenv("PRIVTUNE_THREADS", "1")
    serial = simulate_game(cfg)
    monkeypatch.setenv("PRIVTUNE_THREADS", "4")
    parallel = simulate_game(cfg)
    assert len(serial) == len(parallel) == 2
    for a, b in zip(serial, parallel):
        assert a.tobytes() == b.tobytes()


_EXACT_TNB = [TNB(1.0, 1e-2), TNB(0.0, 1e-5), TNB(-0.5, 1e-3), TNB(8.0, 0.3)]


@pytest.mark.parametrize("dist", _EXACT_TNB)
def test_exact_game_follows_the_best_score_cdf(dist):
    # At tau = 1 the best of K scores has CDF S(Phi(s)), shifted by
    # sqrt(N) / sigma under truth 1.
    cfg = GameConfig(
        config=DpSgdConfig(60.0, 1.0, 1000), dist=dist, trials=10**5, seed=17
    )
    classes = simulate_game(cfg)
    shift = math.sqrt(1000.0) / 60.0

    def best_score_cdf(s):
        return dist.pgf(special.ndtr(s))

    for bit in (0, 1):
        sample = classes[bit] - shift * bit
        assert stats.kstest(sample, best_score_cdf).pvalue > 0.01


@pytest.mark.parametrize("dist", _EXACT_TNB)
def test_exact_game_matches_explicit_run_count_draws(dist):
    # The reference draws K by the run count's sampler and takes the best
    # of K scores as Phi^-1(V^(1/K)) for a second uniform V.
    cfg = GameConfig(
        config=DpSgdConfig(60.0, 1.0, 1000), dist=dist, trials=10**5, seed=18
    )
    classes = simulate_game(cfg)
    rng = np.random.default_rng(19)
    counts = dist.sample(rng, cfg.trials)
    reference = special.ndtri(np.exp(np.log(rng.random(cfg.trials)) / counts))
    shift = math.sqrt(1000.0) / 60.0
    for bit in (0, 1):
        sample = classes[bit] - shift * bit
        assert stats.ks_2samp(sample, reference).pvalue > 0.01


@pytest.mark.parametrize("threads", ["1", "4"])
def test_point_mass_game_is_log_u_over_k_bit_for_bit(monkeypatch, threads):
    # Each block's level is log(U) / k from its keyed stream, as before
    # the inverse pgf, so point-mass audits keep every bit, each class in
    # trial order.
    cfg = GameConfig(
        config=DpSgdConfig(60.0, 1.0, 1000),
        dist=PointMass(10),
        trials=(1 << 20) + 5,
        seed=12,
    )
    monkeypatch.setenv("PRIVTUNE_THREADS", threads)
    classes = simulate_game(cfg)
    shift = math.sqrt(1000.0) / 60.0
    filled = [0, 0]
    for block, lo in enumerate(range(0, cfg.trials, _BLOCK_SIZE)):
        size = min(_BLOCK_SIZE, cfg.trials - lo)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, block]))
        bits = rng.integers(0, 2, size=size)
        with np.errstate(divide="ignore"):
            level = np.log(rng.random(size)) / 10
        expected = _normal_best(level) + shift * bits
        for bit, scores in enumerate(classes):
            want = expected[bits == bit]
            got = scores[filled[bit] : filled[bit] + want.size]
            assert got.tobytes() == want.tobytes()
            filled[bit] += want.size
    assert filled == [scores.size for scores in classes]


def test_simulate_game_single_run_scores_are_standard_normal():
    cfg = GameConfig(
        config=DpSgdConfig(50.0, 1.0, 1000),
        dist=PointMass(1),
        trials=10**5,
        seed=8,
    )
    null, alternative = simulate_game(cfg)
    assert stats.kstest(null, "norm").pvalue > 0.01
    mu = np.sqrt(1000.0) / 50.0
    assert stats.kstest(alternative - mu, "norm").pvalue > 0.01


def test_simulated_roc_tracks_gaussian_tradeoff_curve():
    cfg = GameConfig(
        config=DpSgdConfig(40.0, 1.0, 1000),
        dist=PointMass(1),
        trials=10**6,
        seed=3,
    )
    null, alt = (np.sort(scores) for scores in simulate_game(cfg))
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
    classes = simulate_game(cfg)
    null, alt = (np.sort(scores) for scores in classes)
    sweep = sweep_thresholds(*classes, cfg.confidence, cfg.delta)
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


@pytest.mark.parametrize(
    "config,trials",
    # Neither a multiple of the block nor of the slice of a block.
    [
        (DpSgdConfig(60.0, 1.0, 1000), (1 << 21) + 12345),
        (DpSgdConfig(5.0, 0.5, 100), (1 << 20) + 4097),
    ],
)
def test_multi_block_audit_is_thread_invariant(monkeypatch, config, trials):
    cfg = GameConfig(config=config, dist=TNB(1.0, 1e-2), trials=trials, seed=21)
    runs = []
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("PRIVTUNE_THREADS", threads)
        sweep = run_audit(cfg)
        runs.append(
            [getattr(sweep, f.name) for f in dataclasses.fields(sweep)]
        )
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _copy_sweep(null, alternative, confidence, delta):
    """The sweep by np.sort copies and np.quantile of the pooled scores."""
    s0 = np.sort(null)
    s1 = np.sort(alternative)
    pooled = np.concatenate([null, alternative])
    thresholds = np.unique(np.quantile(pooled, _sweep_levels()))
    fp = s0.size - np.searchsorted(s0, thresholds, side="right")
    fn = np.searchsorted(s1, thresholds, side="right")
    side = 1.0 - (1.0 - confidence) / 2.0
    fp_up = clopper_pearson_upper(fp, s0.size, side)
    fn_up = clopper_pearson_upper(fn, s1.size, side)
    return thresholds, fp, fn, fp_up, fn_up, s0.size, s1.size


def test_sweep_thresholds_equals_the_bool_mask_sweep(monkeypatch):
    # A game of three blocks, its classes sorted on two threads, and the
    # same scores as one class, then the other.
    monkeypatch.setenv("PRIVTUNE_THREADS", "2")
    cfg = GameConfig(
        config=DpSgdConfig(60.0, 1.0, 1000),
        dist=TNB(1.0, 1e-2),
        trials=2 * (1 << 20) + 777,
        seed=22,
    )
    null, alternative = simulate_game(cfg)
    pooled, empty = np.concatenate([null, alternative]), np.empty(0)
    for classes in ((null, alternative), (pooled, empty), (empty, pooled)):
        thresholds, fp, fn, fp_up, fn_up, n0, n1 = _copy_sweep(
            *classes, cfg.confidence, cfg.delta
        )
        copies = [scores.copy() for scores in classes]
        sweep = sweep_thresholds(*copies, cfg.confidence, cfg.delta)
        # Each class was sorted in place.
        for got, scores in zip(copies, classes):
            assert got.tobytes() == np.sort(scores).tobytes()
        assert (sweep.n_null, sweep.n_alternative) == (n0, n1)
        assert sweep.thresholds.tobytes() == thresholds.tobytes()
        np.testing.assert_array_equal(sweep.fp_counts, fp)
        np.testing.assert_array_equal(sweep.fn_counts, fn)
        np.testing.assert_allclose(sweep.fp_upper, fp_up, rtol=1e-12)
        np.testing.assert_allclose(sweep.fn_upper, fn_up, rtol=1e-12)


def test_sweep_thresholds_peak_memory_and_bool_truth():
    cfg = GameConfig(
        config=DpSgdConfig(60.0, 1.0, 1000),
        dist=TNB(1.0, 1e-2),
        trials=1 << 21,
        seed=13,
    )
    null, alternative = simulate_game(cfg)
    # No truth array: the classes are two views of one float buffer, 8
    # bytes a trial.
    assert null.base is alternative.base
    assert null.base.nbytes == 8 * cfg.trials
    sweep_thresholds(
        null[:500].copy(), alternative[:500].copy(), cfg.confidence, cfg.delta
    )
    tracemalloc.start()
    try:
        sweep_thresholds(null, alternative, cfg.confidence, cfg.delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Each class is sorted where it lies, so the sweep adds only its own
    # small arrays: 0.03 times the scores at this size (1.07 when the
    # classes were gathered from the scores into fresh arrays, 1.5 when
    # np.sort left an unsorted copy and np.quantile partitioned a copy of
    # every score).
    assert peak <= 0.05 * (null.nbytes + alternative.nbytes)


@pytest.mark.parametrize("threads", ["1", "2", "4"])
def test_run_audit_peak_memory_is_the_scores_and_each_workers_buffers(
    monkeypatch, threads
):
    # The game's buffer of 8 bytes a trial, and per worker a slice buffer,
    # a slice of truth bits and index arrays: about 6 MiB a worker. A
    # truth array and the sweep's class copies put about 1.1 times the
    # scores on top of that.
    monkeypatch.setenv("PRIVTUNE_THREADS", threads)
    cfg = GameConfig(
        config=DpSgdConfig(60.0, 1.0, 1000),
        dist=TNB(1.0, 1e-2),
        trials=(1 << 22) + 12345,
        seed=23,
    )
    run_audit(dataclasses.replace(cfg, trials=1000))
    tracemalloc.start()
    try:
        run_audit(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - 8 * cfg.trials <= int(threads) * 10 * 2**20


def _class_pairs(rng: np.random.Generator):
    """Seeded (s0, s1) pairs: ties within and across classes, -inf, sizes 0-2."""
    sizes = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (1, 2), (2, 2)]
    sizes += [(0, 50), (1, 50), (2, 50), (50, 0), (50, 1), (50, 2)]
    sizes += [tuple(rng.integers(0, 400, size=2)) for _ in range(300)]
    for n0, n1 in sizes:
        if n0 + n1 == 0:
            continue
        # One decimal (+ 0.0 drops the signed zeros, whose order a sort
        # leaves open) gives a few dozen values shared by the classes.
        s0, s1 = (
            np.round(rng.normal(size=n), 1) + 0.0 for n in (int(n0), int(n1))
        )
        for part in (s0, s1):
            part[rng.random(part.size) < 0.05] = -np.inf
        yield s0, s1


def test_pooled_quantiles_equal_numpy_quantile_bit_for_bit():
    rng = np.random.default_rng(20)
    for s0, s1 in _class_pairs(rng):
        pooled = np.concatenate([s0, s1])
        s0.sort()
        s1.sort()
        # The dyadic levels put some weights at exactly 1/2.
        dyadic = np.arange(1, 64) / 64.0
        for levels in (_sweep_levels(), np.sort(rng.random(64)), dyadic):
            with np.errstate(invalid="ignore"):
                want = np.quantile(pooled, levels)
                got = _pooled_quantiles(s0, s1, levels)
            # Bit for bit, NaN (from -inf neighbours) included.
            assert got.tobytes() == want.tobytes()


def test_normal_best_stays_finite_where_exp_rounds_to_one():
    level = np.array([-np.inf, -0.5, -1e-15, -2.0**-56, -1e-17, -1e-300])
    expected = np.array(
        [-np.inf, _ndtri(np.exp(-0.5)), _ndtri(np.exp(-1e-15))]
        + [-_ndtri(-np.expm1(x)) for x in level[3:]]
    )
    assert np.all(np.exp(level[3:]) == 1.0)
    scores = _normal_best(level.copy())
    assert scores.tobytes() == expected.tobytes()
    assert np.all(np.diff(scores) > 0)


def test_run_audit_reports_the_best_sweep_row():
    cfg = GameConfig(
        config=DpSgdConfig(60.0, 1.0, 1000),
        dist=TNB(1.0, 1e-2),
        trials=1 << 18,
        seed=13,
    )
    classes = simulate_game(cfg)
    sweep = run_audit(cfg)
    expected = sweep_thresholds(*classes, cfg.confidence, cfg.delta)
    np.testing.assert_array_equal(sweep.eps_lower, expected.eps_lower)
    best = sweep.best
    assert isinstance(best, int)
    peak = np.max(sweep.eps_lower)
    assert sweep.eps_lower[best] == peak
    assert np.all(sweep.eps_lower[:best] < peak)
    # A tie goes to the first row.
    tied = dataclasses.replace(sweep, eps_lower=np.array([0.0, 2.0, 1.0, 2.0]))
    assert tied.best == 1


def test_thread_count_uses_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("PRIVTUNE_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert thread_count() == 3
    monkeypatch.setenv("PRIVTUNE_THREADS", "2")
    assert thread_count() == 2
    monkeypatch.delenv("PRIVTUNE_THREADS")
    # Without an affinity call, every logical core.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert thread_count() == 64


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
