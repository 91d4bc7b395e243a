"""Tests for run-count distributions and their generating functions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # omega(1 - a) from the closed form in a, base nu + (1-nu) a: forming
    # 1 - a first would cost a relative error of about 1e-16 / (nu + a).
    nu = 1e-6
    for a in (0.0, 5e-9, 0.3, 1.0):
        base = nu + (1.0 - nu) * a
        assert TNB(1.0, nu).omega_complement(a) == pytest.approx(
            nu / base**2, rel=1e-14
        )
        assert TNB(0.0, nu).omega_complement(a) == pytest.approx(
            (1.0 - nu) / (base * np.log(1.0 / nu)), rel=1e-14
        )
    for d in (TNB(0.5, 1e-3), PointMass(3)):
        xs = np.array([0.0, 0.25, 0.9])
        assert np.allclose(
            d.omega_complement(xs), d.omega(1.0 - xs), rtol=1e-12
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


def test_pmf_series_matches_pointwise_pmf():
    dist = TNB(1.7, 0.03)
    series = dist.pmf_series(200)
    assert series.shape == (200,)
    assert np.allclose(series, dist.pmf(np.arange(1, 201)), rtol=1e-10)


def test_pmf_sums_to_one_within_cap():
    for dist in (TNB(0.0, 1e-2), TNB(1.0, 1e-3), TNB(2.0, 1e-3)):
        total = float(np.sum(dist.pmf_series(dist.k_max)))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_pgf_matches_series_expansion():
    dist = TNB(0.5, 0.2)
    ks = np.arange(1, dist.k_max + 1)
    pmf = dist.pmf_series(dist.k_max)
    for y in (0.25, 0.6, 0.95):
        assert dist.pgf(y) == pytest.approx(
            float(np.sum(pmf * y**ks)), rel=1e-9
        )


def test_omega_matches_series_expansion():
    dist = TNB(0.5, 0.2)
    ks = np.arange(1, dist.k_max + 1)
    pmf = dist.pmf_series(dist.k_max)
    for x in (0.0, 0.3, 0.8):
        series = float(np.sum(ks * pmf * x ** (ks - 1)))
        assert dist.omega(x) == pytest.approx(series, rel=1e-9)


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
