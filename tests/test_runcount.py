"""Tests for run-count distributions and their generating functions."""

from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from privtune.runcount import PointMass, TruncatedNegativeBinomial
from privtune.runcount import TruncatedNegativeBinomial as TNB

# Frozen regression values. The eta=0 cases follow the logarithmic
# series pmf k -> (1-nu)^k / (k ln(1/nu)); the eta=2 mean is
# 2(1-nu)/(nu(1-nu^2)); omega for the geometric case (eta=1) is
# nu / (1 - (1-nu) x)^2.
_PMF_LOG_SERIES_2 = 0.10641300542834427
_MEAN_LOG_SERIES = 21.497576854210966
_MEAN_ETA2 = 1998.0019980019981
_OMEGA_GEOMETRIC_HALF = 0.3305785123966942


def test_tnb_alias():
    assert TNB is TruncatedNegativeBinomial


def test_log_series_pmf_frozen_value():
    dist = TNB(0.0, 1e-2)
    assert dist.pmf(2) == pytest.approx(_PMF_LOG_SERIES_2, rel=1e-12)
    closed = (1.0 - 1e-2) ** 2 / (2.0 * np.log(1.0 / 1e-2))
    assert dist.pmf(2) == pytest.approx(closed, rel=1e-12)


def test_means_frozen_values():
    assert TNB(0.0, 1e-2).mean == pytest.approx(_MEAN_LOG_SERIES, rel=1e-12)
    assert TNB(2.0, 1e-3).mean == pytest.approx(_MEAN_ETA2, rel=1e-12)
    # eta=1 is the geometric distribution with success rate nu.
    assert TNB(1.0, 1e-2).mean == pytest.approx(100.0, rel=1e-12)


def test_omega_frozen_value_and_closed_form():
    dist = TNB(1.0, 0.1)
    assert dist.omega(0.5) == pytest.approx(_OMEGA_GEOMETRIC_HALF, rel=1e-12)
    assert dist.omega(0.5) == pytest.approx(
        0.1 / (1.0 - 0.9 * 0.5) ** 2, rel=1e-12
    )


def test_omega_at_one_is_the_mean():
    for dist in (TNB(0.0, 1e-2), TNB(1.0, 0.1), TNB(2.0, 1e-3), PointMass(7)):
        assert dist.omega(1.0) == pytest.approx(dist.mean, rel=1e-9)


def test_pgf_at_one_is_one():
    for dist in (TNB(0.0, 1e-2), TNB(1.0, 0.1), TNB(-0.5, 0.3), PointMass(4)):
        assert dist.pgf(1.0) == pytest.approx(1.0, rel=1e-12)


def test_point_mass_is_deterministic():
    dist = PointMass(3)
    assert dist.mean == 3.0
    assert dist.pmf(3) == 1.0
    assert dist.pmf(2) == 0.0
    assert dist.pgf(0.5) == pytest.approx(0.125, rel=1e-12)
    assert dist.omega(0.5) == pytest.approx(0.75, rel=1e-12)
    assert PointMass(1).omega(0.3) == pytest.approx(1.0, rel=1e-12)


def _tail_horizon(dist: TNB) -> int:
    """First k whose geometric tail bound, (1 - nu)^k (k + mean) / nu, is
    below 1e-12: the masses up to it carry all but 1e-12 of the total."""
    ks = np.arange(1, 10**6)
    log_tail = ks * math.log1p(-dist.nu) + np.log((ks + dist.mean) / dist.nu)
    below = log_tail < math.log(1e-12)
    assert below[-1]
    return int(ks[np.argmax(below)])


def test_pmf_sums_to_one():
    for dist in (TNB(0.0, 1e-2), TNB(1.0, 1e-3), TNB(2.0, 1e-3)):
        total = float(np.sum(dist.pmf(np.arange(1, _tail_horizon(dist) + 1))))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_pgf_matches_series_expansion():
    dist = TNB(0.5, 0.2)
    ks = np.arange(1, _tail_horizon(dist) + 1)
    pmf = dist.pmf(ks)
    for y in (0.25, 0.6, 0.95):
        assert dist.pgf(y) == pytest.approx(
            float(np.sum(pmf * y**ks)), rel=1e-9
        )


def test_omega_matches_series_expansion():
    dist = TNB(0.5, 0.2)
    ks = np.arange(1, _tail_horizon(dist) + 1)
    pmf = dist.pmf(ks)
    for x in (0.0, 0.3, 0.8):
        series = float(np.sum(ks * pmf * x ** (ks - 1)))
        assert dist.omega(x) == pytest.approx(series, rel=1e-9)


# The 40-digit oracle grid: masses at _ORACLE_KS (where they do not
# underflow), the pgf at _ORACLE_YS and omega at _ORACLE_XS.
_ORACLE_KS = (1, 2, 5, 50, 500)
_ORACLE_YS = (0.0, 0.3, 0.9, 0.999)
_ORACLE_XS = (0.0, 0.5, 0.99)
# Worst relative errors on this grid of the implementation with separate
# eta = 0 formulas that the single-normalizer one replaced, rounded up.
# The pgf and omega errors come from rounding base = 1 - (1 - nu) y near
# y = 1. The pmf bound is that of the Stirling-form mass, whose worst
# error comes from rounding k log(1 - nu) near -600 at k = 500 (the
# difference of log-gammas it replaced reached 8.0e-13 there).
_ORACLE_BOUNDS = {
    "mean": 1.6e-15,
    "pmf": 1.4e-13,
    "pgf": 8.5e-13,
    "omega": 8.5e-14,
}


def _oracle_params() -> list[tuple[float, float]]:
    """400 seeded (eta, nu): 100 each of eta = 0, eta in [1e-14, 1e-3],
    eta in [-1e-3, -1e-14] and eta in (-1, 12]; nu in [1e-8, 0.98]."""
    rng = np.random.default_rng(0)
    nus = 10.0 ** rng.uniform(-8.0, math.log10(0.98), 400)
    small = 10.0 ** rng.uniform(-14.0, -3.0, 200)
    wide = 12.0 - rng.uniform(0.0, 13.0, 100)
    etas = np.concatenate([np.zeros(100), small[:100], -small[100:], wide])
    return list(zip(etas.tolist(), nus.tolist()))


def _oracle_worst_errors() -> dict[str, float]:
    """Worst relative error of each TNB quantity against 40 digits."""
    worst = dict.fromkeys(_ORACLE_BOUNDS, 0.0)
    with mpmath.workdps(40):
        for eta, nu in _oracle_params():
            e, v = mpmath.mpf(eta), mpmath.mpf(nu)

            def expm1_over_eta(t):
                return t if eta == 0.0 else mpmath.expm1(e * t) / e

            norm = expm1_over_eta(-mpmath.log(v))

            def omega_at(base):
                return (1 - v) * base ** (-e - 1) / norm

            exact = {
                "mean": [(1 - v) / (v * -expm1_over_eta(mpmath.log(v)))],
                "pmf": [
                    (1 - v) ** k
                    * mpmath.gamma(k + e)
                    / (mpmath.gamma(1 + e) * mpmath.factorial(k) * norm)
                    for k in _ORACLE_KS
                ],
                "pgf": [
                    expm1_over_eta(-mpmath.log(1 - (1 - v) * y)) / norm
                    for y in _ORACLE_YS
                ],
                "omega": [omega_at(1 - (1 - v) * x) for x in _ORACLE_XS],
            }
            dist = TNB(eta, nu)
            got = {
                "mean": [dist.mean],
                "pmf": dist.pmf(np.array(_ORACLE_KS)),
                "pgf": dist.pgf(np.array(_ORACLE_YS)),
                "omega": dist.omega(np.array(_ORACLE_XS)),
            }
            for name, values in exact.items():
                for value, want in zip(got[name], values):
                    if want < 1e-280:
                        continue  # the float mass underflows
                    err = float(abs(mpmath.mpf(float(value)) - want) / want)
                    worst[name] = max(worst[name], err)
    return worst


def test_tnb_matches_a_40_digit_oracle():
    worst = _oracle_worst_errors()
    for name, bound in _ORACLE_BOUNDS.items():
        assert worst[name] <= bound, (name, worst[name])


# (eta, nu, k) at which a difference of log-gammas lost 2.7e-8, 3.2e-9
# and 8.1e-10 of the mass, and the Stirling form keeps 1.8e-15, 3.4e-15
# and 9.3e-16.
_LARGE_K = ((0.5, 1e-7, 9_000_000), (8.0, 1e-6, 5_000_000), (0.0, 1e-6, 10**6))


def test_tnb_pmf_keeps_its_digits_at_large_k():
    with mpmath.workdps(40):
        for eta, nu, k in _LARGE_K:
            e, v = mpmath.mpf(eta), mpmath.mpf(nu)
            t = -mpmath.log(v)
            norm = t if eta == 0.0 else mpmath.expm1(e * t) / e
            want = mpmath.exp(
                k * mpmath.log1p(-v)
                + mpmath.loggamma(k + e)
                - mpmath.loggamma(k + 1)
                - mpmath.loggamma(1 + e)
            ) / norm
            got = TNB(eta, nu).pmf(k)
            assert float(abs(got - want) / want) <= 5e-15, (eta, nu, k)
    # Gamma(k + 18) / k! is near 1.7e322 at the largest int64 k, past the
    # largest double; the mass stays finite, and is 0 as the exact one
    # underflows.
    assert TNB(18.0, 0.5).pmf(np.iinfo(np.int64).max) == 0.0


# Uniforms from 2^-53 to 1 - 2^-53: both tails, log-spaced, and the bulk.
_INVERSE_US = sorted(
    {2.0**-53, 0.5, 1.0 - 2.0**-53}
    | {float(t) for t in np.geomspace(2.0**-52, 0.25, 12)}
    | {float(1.0 - t) for t in np.geomspace(2.0**-52, 0.25, 12)}
    | {0.3, 0.7, 0.9}
)


def _mp_pgf_error(eta: float, nu: float, u: float, level: float) -> float:
    """|S(exp(level)) - u| relative to min(u, 1 - u), in 40 digits.

    S(y) = expm1(-eta log b) / expm1(-eta log nu) with b = 1 - (1 - nu) y,
    and 1 - S(y) = expm1(-eta M) / expm1(eta log nu) with M = log(b / nu);
    at eta = 0 they are log(b) / log(nu) and M / log(1 / nu). y and 1 - y
    come from the level by exp and -expm1, so neither tail cancels.
    """
    e, v, x = mpmath.mpf(eta), mpmath.mpf(nu), mpmath.mpf(level)
    y, w = mpmath.exp(x), -mpmath.expm1(x)
    log_b = mpmath.log1p(-(1 - v) * y) if y < 0.5 else mpmath.log(v + (1 - v) * w)
    m = mpmath.log1p((1 - v) * w / v)
    if eta == 0.0:
        pgf, tail = log_b / mpmath.log(v), m / -mpmath.log(v)
    else:
        pgf = mpmath.expm1(-e * log_b) / mpmath.expm1(-e * mpmath.log(v))
        tail = mpmath.expm1(-e * m) / mpmath.expm1(e * mpmath.log(v))
    if u <= 0.5:
        return float(abs(pgf - u) / u)
    return float(abs(tail - (1 - mpmath.mpf(u))) / (1 - mpmath.mpf(u)))


@pytest.mark.parametrize("eta", [-0.9, -0.3, 0.0, 1e-6, 0.5, 1.0, 8.0])
def test_log_inverse_pgf_matches_a_40_digit_oracle(eta):
    us = np.array(_INVERSE_US)
    with mpmath.workdps(40):
        for nu in (0.5, 1e-2, 1e-5, 1e-8, 1e-12, 1e-17):
            levels = TNB(eta, nu).log_inverse_pgf(us.copy())
            for u, level in zip(us.tolist(), levels.tolist()):
                error = _mp_pgf_error(eta, nu, u, level)
                assert error <= 1e-13, (nu, u, level, error)


def test_log_inverse_pgf_ends():
    u = np.array([0.0, 1.0 - 2.0**-53])
    for dist in (TNB(1.0, 1e-2), TNB(0.0, 1e-150), TNB(-0.5, 5e-324)):
        low, top = dist.log_inverse_pgf(u.copy())
        assert low == -np.inf and -1e-15 < top < 0.0
    # Point masses keep log(u) / k bit for bit.
    rng = np.random.default_rng(3)
    u = np.concatenate([[0.0, 1.0 - 2.0**-53], rng.random(1000)])
    with np.errstate(divide="ignore"):
        expected = np.log(u) / 7
    assert PointMass(7).log_inverse_pgf(u.copy()).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "dist", [TNB(1.0, 1e-2), TNB(2.0, 0.2), TNB(8.0, 0.3), TNB(-0.5, 1e-2)]
)
def test_log_inverse_pgf_is_nondecreasing_between_adjacent_doubles(dist):
    # Rounding can reverse a formula that adds an increasing term to a
    # decreasing one; neighbouring doubles show it where random pairs
    # rarely do. Each scale stresses a different branch.
    rng = np.random.default_rng(8)
    for scale in (1.0, 1e-3, 1e-8):
        u = rng.random(1 << 16) * scale
        level = dist.log_inverse_pgf(u.copy())
        above = dist.log_inverse_pgf(np.nextafter(u, 1.0))
        assert np.all(above >= level)


@given(
    eta=st.floats(min_value=-0.99, max_value=8.0),
    log_nu=st.floats(min_value=-17.0, max_value=-0.01),
    us=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=300, deadline=None)
def test_log_inverse_pgf_is_a_nondecreasing_level(eta, log_nu, us):
    u = np.sort(np.array(us))
    level = TNB(eta, 10.0**log_nu).log_inverse_pgf(u.copy())
    assert not np.any(np.isnan(level))
    assert np.all(level < 0.0)
    assert np.all(level[1:] >= level[:-1])
    assert np.all(level[u == 0.0] == -np.inf)
    # rng.random returns 0 or a multiple of 2^-53; a tinier u can round
    # eta Z u to 0.
    assert np.all(np.isfinite(level[u >= 2.0**-53]))


@pytest.mark.parametrize("nu", [0.5, 1e-2, 1e-6])
def test_tnb_tends_to_the_logarithmic_series_as_eta_vanishes(nu):
    log_series = TNB(0.0, nu)
    ks = np.array(_ORACLE_KS)
    grid = np.array([0.0, 1e-9, 1e-3, 0.5, 1.0])
    for eta in (1e-12, -1e-12):
        dist = TNB(eta, nu)
        assert dist.mean == pytest.approx(log_series.mean, rel=1e-10)
        for name, arg in (
            ("pmf", ks),
            ("pgf", grid),
            ("omega", grid),
        ):
            np.testing.assert_allclose(
                getattr(dist, name)(arg),
                getattr(log_series, name)(arg),
                rtol=1e-10,
                err_msg=name,
            )


@pytest.mark.parametrize("nu", [0.5, 1e-2, 1e-3, 6e-6])
@pytest.mark.parametrize("eta", [-0.5, 0.0, 1.0, 8.0])
def test_sampling_matches_the_mean_and_pgf(eta, nu):
    # The sample means of K and of y^K, within four standard errors of
    # mean and pgf(y). Var K = mean (eta + 1)(1 - nu) / nu + mean - mean^2
    # (from S''(1)), and Var y^K = pgf(y^2) - pgf(y)^2. The levels y put
    # y^mean at e^-0.1, e^-1 and e^-10.
    dist = TNB(eta, nu)
    n = 1 << 17
    draws = dist.sample(np.random.default_rng(0), size=n)
    assert draws.min() >= 1
    mean = dist.mean
    var = mean * (eta + 1.0) * (1.0 - nu) / nu + mean - mean**2
    assert abs(draws.mean() - mean) < 4.0 * math.sqrt(var / n)
    for t in (0.1, 1.0, 10.0):
        y = math.exp(-t / mean)
        pgf = dist.pgf(y)
        se = math.sqrt((dist.pgf(y * y) - pgf**2) / n)
        assert abs(np.mean(y**draws) - pgf) < 4.0 * se, t


def _binned_chi_square_pvalue(dist: TNB, draws: np.ndarray) -> float:
    """Chi-square p-value of draws against pmf, one bin for each k whose
    expected count is at least 5, plus one bin below and one above."""
    n = draws.size
    expected = dist.pmf(np.arange(1, 10**5)) * n
    lo, hi = np.flatnonzero(expected >= 5.0)[[0, -1]] + 1
    observed = np.bincount(np.clip(draws, lo - 1, hi + 1) - (lo - 1))
    edges = [expected[: lo - 1].sum(), n - expected[:hi].sum()]
    want = np.concatenate([edges[:1], expected[lo - 1 : hi], edges[1:]])
    keep = want > 0.0
    assert np.all(observed[~keep] == 0)
    return stats.chisquare(observed[keep], want[keep]).pvalue


@pytest.mark.parametrize(
    "dist", [TNB(-0.9, 0.1), TNB(0.0, 0.1), TNB(1e-6, 0.1), TNB(8.0, 0.3)]
)
def test_sampling_matches_the_pmf(dist):
    # 10^6 draws; four tests, so each is held at p > 0.001.
    draws = dist.sample(np.random.default_rng(1), size=10**6)
    assert _binned_chi_square_pvalue(dist, draws) > 1e-3


def test_omega_forms():
    assert PointMass(4).omega_form == (4.0, 0.0, 1.0, 1.0, 3.0)
    # The geometric omega is nu / (1 - (1 - nu) x)^2, and its base at
    # x = 1 is nu itself, not 1 - (1 - nu).
    c, alpha, beta, total, p = TNB(1.0, 1e-2).omega_form
    assert (alpha, beta, total, p) == (1.0, -(1.0 - 1e-2), 1e-2, -2.0)
    assert c == pytest.approx(1e-2, rel=1e-15)


def test_sampling_reaches_a_mean_of_1e8():
    # The geometric run count's standard deviation is sqrt(1 - nu) / nu.
    # Memory grows with the number of draws only, not with the mean.
    draws = TNB(1.0, 1e-8).sample(np.random.default_rng(0), size=1000)
    assert draws.min() >= 1
    se = math.sqrt(1.0 - 1e-8) / 1e-8 / math.sqrt(draws.size)
    assert abs(draws.mean() - 1e8) < 4.0 * se
    tracemalloc.start()
    try:
        TNB(1.0, 1e-5).sample(np.random.default_rng(0), size=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sampling_refuses_nu_below_2_to_the_minus_53():
    # Below it a draw's Poisson rate, up to 1/nu - 1 times a gamma, can
    # pass numpy's limit of about 2^63: on every call at TNB(1, 1e-150),
    # on rare draws at TNB(-0.9, 1e-300).
    for eta, nu in ((1.0, 1e-150), (0.0, 1e-300), (-0.9, 1e-300)):
        with pytest.raises(ValueError, match=rf"eta={eta}, nu={nu} .*2\^-53"):
            TNB(eta, nu).sample(np.random.default_rng(0), size=10)
    with pytest.raises(ValueError):
        TNB(1.0, math.nextafter(2.0**-53, 0.0)).sample(np.random.default_rng(0))
    draws = TNB(1.0, 2.0**-53).sample(np.random.default_rng(0), size=1000)
    assert draws.min() >= 1
    assert abs(draws.mean() - 2.0**53) < 4.0 * 2.0**53 / math.sqrt(draws.size)


def test_sampling_matches_distribution():
    dist = TNB(1.0, 0.1)
    rng = np.random.default_rng(6)
    draws = dist.sample(rng, size=100_000)
    assert draws.min() >= 1
    # Mean within four standard errors of 10.
    se = np.sqrt(0.9) / 0.1 / np.sqrt(draws.size)
    assert abs(draws.mean() - 10.0) < 4.0 * se
    # First-symbol frequency within four standard errors of pmf(1).
    p1 = dist.pmf(1)
    se1 = np.sqrt(p1 * (1.0 - p1) / draws.size)
    assert abs(np.mean(draws == 1) - p1) < 4.0 * se1


def test_sampling_is_deterministic_given_seed():
    dist = TNB(0.0, 1e-2)
    a = dist.sample(np.random.default_rng(42), size=1000)
    b = dist.sample(np.random.default_rng(42), size=1000)
    assert np.array_equal(a, b)
    scalar = dist.sample(np.random.default_rng(42))
    assert np.isscalar(scalar) or np.ndim(scalar) == 0


def test_point_mass_sampling_is_constant():
    draws = PointMass(5).sample(np.random.default_rng(0), size=64)
    assert np.all(draws == 5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TNB(-1.5, 0.5),
        lambda: TNB(1.0, 0.0),
        lambda: TNB(1.0, 1.0),
        lambda: PointMass(0),
    ],
)
def test_invalid_parameters_raise(build):
    with pytest.raises(ValueError):
        build()


@given(
    eta=st.floats(min_value=-0.9, max_value=3.0),
    nu=st.floats(min_value=0.01, max_value=0.9),
    x=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_generating_functions_are_monotone_and_nonnegative(eta, nu, x):
    dist = TNB(eta, nu)
    assert float(dist.pmf(1)) >= 0.0
    assert dist.mean >= 1.0
    omega = float(dist.omega(x))
    assert omega >= 0.0
    assert omega <= float(dist.omega(min(1.0, x + 0.05))) + 1e-12
    pgf = float(dist.pgf(x))
    assert 0.0 <= pgf <= 1.0 + 1e-12
