"""Tests for trade-off curve primitives and conversions."""

from __future__ import annotations

import functools
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privtune._numerics import (
    _AS241,
    _NDTR_REL_ERR,
    _ROUNDOFF,
    _bisect,
    _log_ndtr,
    _log_ndtr_float,
    _ndtr,
    _ndtr_float,
    _ndtri,
)
from privtune.tradeoff import (
    COMPLEMENT_REL_ERR,
    _GDP_MU_MAX,
    DpSgdConfig,
    EpsDeltaCurve,
    GaussianCurve,
    TradeoffCurve,
    _gdp_eps_rounding,
    fdp_to_eps_delta,
    gdp_approx_mu,
    gdp_delta_of_eps,
    gdp_mu_from_eps_delta,
)

# Frozen regression values, computed once from closed forms: the
# Gaussian curve at mu=1 is the standard normal CDF at -1, the
# (1, 0.1) curve at 0.2 is 0.9 - e * 0.2, eps of G_1 at 1e-5 is the
# root of the Dong-Roth-Su delta(eps) = 1e-5 by bisection on math.erfc
# (acceptance criterion 3), and the rest were cross-checked against
# independent root-finding on the defining equations.
_GDP_1_AT_HALF = 0.15865525393145707
_EPSDELTA_1_01_AT_02 = 0.35634363430819094
_EPS_OF_G1_AT_1E5 = 4.377178095681225
# What fdp_to_eps_delta returns there: the bisection's safe end rounded
# up by the stated float error of delta(eps), 6.4e-15 above the 40-digit
# root 4.37717809568122460861.
_EPS_OF_G1_AT_1E5_ROUNDED_UP = 4.377178095681231
_DELTA_OF_MU_HALF_EPS_1 = 0.006829594983114584
_MU_OF_EPS1_DELTA_1E5 = 0.26805112321147506
_APPROX_MU_UNIT = 1.7101424755953307


def test_gdp_curve_frozen_value():
    assert GaussianCurve(1.0)(0.5) == pytest.approx(_GDP_1_AT_HALF, rel=1e-12)


def test_gdp_curve_endpoints():
    assert GaussianCurve(1.0)(0.0) == pytest.approx(1.0, abs=1e-12)
    assert GaussianCurve(1.0)(1.0) == pytest.approx(0.0, abs=1e-12)
    assert GaussianCurve(0.0)(0.3) == pytest.approx(0.7, abs=1e-12)


def test_eps_delta_curve_frozen_value():
    assert EpsDeltaCurve(1.0, 0.1)(0.2) == pytest.approx(
        _EPSDELTA_1_01_AT_02, rel=1e-12
    )
    assert 0.9 - np.exp(1.0) * 0.2 == pytest.approx(
        _EPSDELTA_1_01_AT_02, rel=1e-12
    )


def test_eps_delta_curve_regions():
    assert EpsDeltaCurve(1.0, 0.1)(0.0) == pytest.approx(0.9)
    assert EpsDeltaCurve(1.0, 0.1)(0.9) == 0.0
    assert EpsDeltaCurve(0.0, 0.0)(0.25) == pytest.approx(0.75)


def test_curves_are_callable_and_vectorized():
    x = np.linspace(0.0, 1.0, 11)
    gauss = GaussianCurve(1.0)(x)
    eps_delta = EpsDeltaCurve(1.0, 0.1)(x)
    assert gauss.shape == x.shape
    assert eps_delta.shape == x.shape
    assert gauss[5] == pytest.approx(_GDP_1_AT_HALF, rel=1e-12)


def test_curve_complements_keep_their_digits_where_f_is_near_one():
    x = np.linspace(0.0, 1.0, 101)
    for curve in (
        GaussianCurve(0.0), GaussianCurve(1.0), EpsDeltaCurve(1.0, 0.1),
        EpsDeltaCurve(0.0, 0.0), EpsDeltaCurve(700.0, 1e-5),
    ):
        np.testing.assert_allclose(curve.complement(x), 1.0 - curve(x), atol=2e-16)
        assert curve.complement(1.0) == 1.0
    assert GaussianCurve(1.0).complement(0.0) == 0.0
    assert EpsDeltaCurve(1.0, 1e-9).complement(0.0) == 1e-9
    # 1 - f(1e-20) rounds to 0 from f; the complements keep 15 digits.
    assert EpsDeltaCurve(1.0, 0.0).complement(1e-20) == pytest.approx(
        math.e * 1e-20, rel=1e-15
    )
    with mpmath.workdps(50):
        z = -mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(1e-20))
        want = float(mpmath.ncdf(z + 1))
    assert GaussianCurve(1.0).complement(1e-20) == pytest.approx(want, rel=1e-13)


def test_eps_delta_complement_keeps_its_stated_bound_at_tiny_x():
    # e^eps x formed as exp(eps + log x) was up to 2.4e-14 relative off.
    curve = EpsDeltaCurve(1.0, 0.0)
    with mpmath.workdps(40):
        for x in (1e-300, 1e-200, 1e-100):
            want = mpmath.e * mpmath.mpf(x)
            assert abs(curve.complement(x) - want) <= COMPLEMENT_REL_ERR * want


@functools.cache
def _normal_oracle() -> tuple[np.ndarray, ...]:
    """(p, z = _ndtri(p), and at 40 digits Phi^-1(p), Phi(z), log Phi(z)).

    1e4 probabilities across [1e-300, 1 - 1e-16]: 4000 log-uniform in
    each tail, 2000 uniform, and the ends. The exact quantile is one
    Newton step from z in mpmath, which squares z's relative error.
    """
    rng = np.random.default_rng(20261018)
    p = np.concatenate([
        [1e-300, 0.5, 1.0 - 1e-16],
        10.0 ** rng.uniform(-300.0, math.log10(0.5), 4000),
        1.0 - 10.0 ** rng.uniform(-16.0, math.log10(0.5), 4000),
        rng.uniform(0.0, 1.0, 1997),
    ])
    z = _ndtri(p)
    quantiles, cdfs, log_cdfs = [], [], []
    with mpmath.workdps(40):
        for p_i, z_i in zip(p.tolist(), z.tolist()):
            z_mp = mpmath.mpf(z_i)
            cdf = mpmath.ncdf(z_mp)
            quantiles.append(z_mp + (mpmath.mpf(p_i) - cdf) / mpmath.npdf(z_mp))
            cdfs.append(cdf)
            log_cdfs.append(mpmath.log(cdf))
    return p, z, quantiles, cdfs, log_cdfs


def test_ndtri_matches_a_40_digit_oracle():
    _, z, quantiles, _, _ = _normal_oracle()
    with mpmath.workdps(40):
        worst = max(
            float(abs(mpmath.mpf(got) - want) / max(1, abs(want)))
            for got, want in zip(z.tolist(), quantiles)
        )
    assert worst <= 7e-16, worst
    assert z[0] < -37.0 and z[-1] > 0.0
    np.testing.assert_array_equal(
        _ndtri(np.array([0.0, 1.0])), [-math.inf, math.inf]
    )


def _all_branch_ndtri(p: np.ndarray) -> np.ndarray:
    """AS241 with all six polynomials evaluated on every point."""
    coeffs = _AS241
    q = p - 0.5
    r = 0.180625 - q * q
    with np.errstate(divide="ignore", invalid="ignore"):
        z = q * np.polyval(coeffs[0], r) / np.polyval(coeffs[1], r)
        t = np.sqrt(-np.log(np.where(q <= 0.0, p, 1.0 - p)))
        tail = np.where(
            t <= 5.0,
            np.polyval(coeffs[2], t - 1.6) / np.polyval(coeffs[3], t - 1.6),
            np.polyval(coeffs[4], t - 5.0) / np.polyval(coeffs[5], t - 5.0),
        )
    z = np.where(np.abs(q) <= 0.425, z, np.where(q < 0.0, -tail, tail))
    return np.where(p <= 0.0, -np.inf, np.where(p >= 1.0, np.inf, z))


def test_ndtri_evaluates_only_its_branch_bit_for_bit():
    rng = np.random.default_rng(20)
    # Each branch boundary: |p - 1/2| = 0.425, t = 5 (p = e^-25 and
    # 1 - e^-25), 0, 1, the least subnormal and 1 - 2^-53, with the
    # neighbouring doubles of each, and NaN.
    edges = np.array([0.075, 0.925, math.exp(-25.0), -math.expm1(-25.0)])
    edges = np.concatenate([edges, [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.5]])
    edges = np.concatenate(
        [edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0), [np.nan]]
    )
    points = np.concatenate([
        rng.random(10**6),
        10.0 ** rng.uniform(-320.0, 0.0, 10**5),
        -np.expm1(-(10.0 ** rng.uniform(-17.0, 1.6, 10**5))),
        edges,
    ])
    rng.shuffle(points)
    assert _ndtri(points).tobytes() == _all_branch_ndtri(points).tobytes()
    # In place, and on a scalar.
    copy = points.copy()
    assert _ndtri(copy, out=copy) is copy
    assert copy.tobytes() == _all_branch_ndtri(points).tobytes()
    assert _ndtri(0.3).tobytes() == _all_branch_ndtri(np.array(0.3)).tobytes()


def test_ndtr_matches_a_40_digit_oracle():
    # The array path and the scalar one, which gives the same bits.
    _, z, _, cdfs, _ = _normal_oracle()
    array = _ndtr(z)
    scalar = np.array([_ndtr_float(x) for x in z.tolist()])
    assert scalar.tobytes() == array.tobytes()
    for got in (array, scalar):
        with mpmath.workdps(40):
            worst = max(
                float(abs(mpmath.mpf(g) - want) / want)
                for g, want in zip(got.tolist(), cdfs)
            )
        assert worst <= _NDTR_REL_ERR, worst
    np.testing.assert_array_equal(_ndtr(np.array([-math.inf, math.inf])), [0, 1])
    assert [_ndtr_float(-math.inf), _ndtr_float(math.inf)] == [0.0, 1.0]


def test_log_ndtr_matches_a_40_digit_oracle():
    # The oracle grid plus 2000 points of [-1e5, -37], where Phi(x)
    # leaves the normal range and the continued fraction takes over.
    _, z, _, _, log_cdfs = _normal_oracle()
    tail = -(10.0 ** np.random.default_rng(5).uniform(math.log10(37.0), 5.0, 2000))
    with mpmath.workdps(40):
        log_cdfs = log_cdfs + [mpmath.log(mpmath.ncdf(x)) for x in tail.tolist()]
        x = np.concatenate([z, tail])
        array = _log_ndtr(x)
        scalar = np.array([_log_ndtr_float(v) for v in x.tolist()])
        assert scalar.tobytes() == array.tobytes()
        for got in (array, scalar):
            excess = max(
                float(abs(mpmath.mpf(g) - want))
                - (_NDTR_REL_ERR + _ROUNDOFF * abs(g))
                for g, want in zip(got.tolist(), log_cdfs)
            )
            assert excess <= 0.0, excess
    assert np.all(np.isfinite(array))


def test_gaussian_curve_matches_a_40_digit_oracle():
    # 1 - G_mu(x) = Phi(Phi^-1(x) + mu) and G_mu(x) on 3000 pairs, x
    # across [1e-300, 1 - 1e-16] as in _normal_oracle, mu in [0.01, 20].
    p, _, quantiles, _, _ = _normal_oracle()
    rng = np.random.default_rng(11)
    pick = rng.choice(p.size, 3000, replace=False)
    mus = 10.0 ** rng.uniform(-2.0, math.log10(20.0), pick.size)
    def rel_err(got: float, want: mpmath.mpf) -> float:
        # Below 1e-300 the float value leaves the normal range.
        return float(abs(got - want) / want) if want >= 1e-300 else 0.0

    worst_complement = worst_f = 0.0
    with mpmath.workdps(40):
        for i, mu in zip(pick.tolist(), mus.tolist()):
            curve = GaussianCurve(mu)
            shifted = quantiles[i] + mpmath.mpf(mu)
            worst_complement = max(
                worst_complement, rel_err(curve.complement(p[i]), mpmath.ncdf(shifted))
            )
            worst_f = max(worst_f, rel_err(curve(p[i]), mpmath.ncdf(-shifted)))
    assert worst_complement <= COMPLEMENT_REL_ERR, worst_complement
    assert worst_f <= 3e-15, worst_f


def test_fdp_to_eps_delta_frozen_value():
    assert fdp_to_eps_delta(GaussianCurve(1.0), 1e-5) == pytest.approx(
        _EPS_OF_G1_AT_1E5, rel=1e-10
    )


def _gdp_delta_closed_form(mu: float, eps: float) -> float:
    """Dong-Roth-Su delta(eps) of mu-GDP, from math.erfc alone."""

    def phi(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    return phi(-eps / mu + mu / 2.0) - math.exp(eps) * phi(-eps / mu - mu / 2.0)


def test_fdp_to_eps_delta_gaussian_is_no_lower_than_root():
    # The root of delta(eps) = target by bisection on the closed form down
    # to adjacent floats. The returned eps must not lie below it, so that
    # it is an upper bound, nor above it by more than float error. The two
    # double evaluations of delta disagree by a few ulps in the root
    # (1.4e-14 over 3000 inputs), hence the 1e-13 float slack each side.
    rng = random.Random(20240601)
    for _ in range(300):
        mu = rng.uniform(0.2, 8.0)
        delta = 10.0 ** rng.uniform(-10.0, -3.0)
        lo, hi = 0.0, 100.0
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if _gdp_delta_closed_form(mu, mid) > delta:
                lo = mid
            else:
                hi = mid
        eps = fdp_to_eps_delta(GaussianCurve(mu), delta)
        assert hi - 1e-13 <= eps <= hi + 1e-13, (mu, delta, eps, hi)
    eps = fdp_to_eps_delta(GaussianCurve(1.0), 1e-5)
    assert _EPS_OF_G1_AT_1E5 <= eps == _EPS_OF_G1_AT_1E5_ROUNDED_UP


def _mp_gdp_eps_root(mu: float, delta: float) -> mpmath.mpf:
    """Root of the Dong-Roth-Su delta(eps) = delta, bisected at 40 digits.

    delta(eps) < Phi(-eps/mu + mu/2), which is below delta at the top end
    mu (mu/2 + sqrt(2 log(1/delta))).
    """
    with mpmath.workdps(40):
        m, target = mpmath.mpf(mu), mpmath.mpf(delta)
        lo = mpmath.mpf(0)
        hi = m * (m / 2 + mpmath.sqrt(2 * mpmath.log(1 / target)))
        for _ in range(200):
            mid = (lo + hi) / 2
            gap = (
                mpmath.ncdf(-mid / m + m / 2)
                - mpmath.exp(mid) * mpmath.ncdf(-mid / m - m / 2)
                - target
            )
            lo, hi = (mid, hi) if gap > 0 else (lo, mid)
        return hi


def test_fdp_to_eps_delta_gaussian_is_above_the_40_digit_root():
    # Rounded up by its stated float error m, the conversion never lies
    # below the exact root, and above it by at most 2 m plus 2 ulps: the
    # bisection's end is within m below and an ulp above.
    rng = random.Random(20261018)
    cases = [(1.0, 1e-5), (14.0, 1e-5), (0.18674739187735792, 1e-10)]
    cases += [
        (10.0 ** rng.uniform(-1.0, 1.3), 10.0 ** rng.uniform(-12.0, -2.0))
        for _ in range(60)
    ]
    # Up to the mu limit, over delta in [1e-300, 0.5). 3,000 more such
    # inputs passed; at mu = 2e8 the conversion fell below the root at
    # each of the first four fixed deltas.
    fixed = (1e-300, 1e-30, 1e-7, 0.3, 0.49)
    cases += [(mu, delta) for mu in (100.0, _GDP_MU_MAX) for delta in fixed]
    wide = random.Random(20261019)
    cases += [
        (
            10.0 ** wide.uniform(2.0, 6.0),
            10.0 ** wide.uniform(-300.0, math.log10(0.5)),
        )
        for _ in range(30)
    ]
    for mu, delta in cases:
        eps = fdp_to_eps_delta(GaussianCurve(mu), delta)
        root = _mp_gdp_eps_root(mu, delta)
        excess = float(mpmath.mpf(eps) - root)
        allowed = 2.0 * _gdp_eps_rounding(mu, eps) + 2.0 * math.ulp(eps)
        assert 0.0 <= excess <= allowed, (mu, delta, eps, excess)


def test_gdp_delta_of_eps_is_zero_where_it_underflows():
    # Past eps/mu of 1.3e154 the terms overflow; delta < Phi(-39) rounds
    # to 0 there, and is returned without forming them.
    with np.errstate(all="raise"):
        for mu, eps in (
            (1e-300, 1.0),
            (1.0, 1e300),
            (1e-12, 1e150),
            (5e-324, 1e-320),
            (1.0, math.inf),
            (_GDP_MU_MAX, 1e15),
        ):
            assert gdp_delta_of_eps(mu, eps) == 0.0
    assert 0.0 < gdp_delta_of_eps(1.0, 38.0) < 1e-300


def test_fdp_to_eps_delta_round_trip_on_eps_delta_curve():
    assert fdp_to_eps_delta(EpsDeltaCurve(1.3, 1e-3), 1e-3) == pytest.approx(
        1.3, abs=1e-9
    )


def _eps_delta_conversion_closed_form(
    eps: float, delta: float, target: float
) -> float:
    """Vertex formula for converting the (eps, delta) curve at target.

    The gap between the line 1 - target - e^a x and the convex
    piecewise-linear curve is concave, so it peaks at a vertex. With
    target >= delta the vertices x = 0 and x = 1 - delta are slack, and
    the corner x* = (1 - delta) / (1 + e^eps), where f(x*) = x*, gives
    a = log((1 - target - x*) / x*).
    """
    corner = (1.0 - delta) / (1.0 + math.exp(eps))
    return max(0.0, math.log((1.0 - target - corner) / corner))


def _eps_delta_inputs() -> list[tuple[float, float, float]]:
    rng = random.Random(20241018)
    inputs = []
    for _ in range(300):
        delta = 10.0 ** rng.uniform(-10.0, -3.0)
        inputs.append(
            (rng.uniform(0.05, 25.0), delta, delta * rng.uniform(1.0, 100.0))
        )
    for eps in (30.0, 40.0, 100.0, 700.0):
        inputs += [(eps, 1e-5, 1e-5), (eps, 1e-8, 1e-6)]
    return inputs


def test_fdp_to_eps_delta_eps_delta_curve_matches_vertex_formula():
    # Agreement to float rounding, so no value is below the closed form;
    # a bisection on the slope came out low by up to 2.4e-5 here, and at
    # 29.0099 for every eps >= 30.
    for eps, delta, target in _eps_delta_inputs():
        got = fdp_to_eps_delta(EpsDeltaCurve(eps, delta), target)
        want = _eps_delta_conversion_closed_form(eps, delta, target)
        assert abs(got - want) <= 1e-12, (eps, delta, target, got, want)
    assert fdp_to_eps_delta(EpsDeltaCurve(2.0, 1e-6), 1e-6) == 2.0
    assert fdp_to_eps_delta(EpsDeltaCurve(2.0, 1e-6), 0.9) == 0.0
    assert math.isinf(fdp_to_eps_delta(EpsDeltaCurve(2.0, 1e-6), 5e-7))
    assert fdp_to_eps_delta(EpsDeltaCurve(2.0, 1.0), 1.0) == 0.0
    assert math.isinf(fdp_to_eps_delta(EpsDeltaCurve(2.0, 1.0), 0.5))
    assert fdp_to_eps_delta(EpsDeltaCurve(1000.0, 1e-5), 1e-5) == 1000.0


def test_fdp_to_eps_delta_line_stays_below_eps_delta_curve():
    # On a dense log-spaced grid plus the corner, the line of the
    # returned epsilon never rises above the curve by more than float
    # rounding, and the line of a value 1e-9 lower does at the corner.
    # Rounding a to a float moves e^a by up to a ulps, hence the slack.
    grid = np.logspace(-320.0, 0.0, 20001)
    inputs = _eps_delta_inputs()
    for eps, delta, target in inputs[:300:10] + inputs[300:]:
        got = fdp_to_eps_delta(EpsDeltaCurve(eps, delta), target)
        corner = (1.0 - delta) / (1.0 + math.exp(eps))
        x = np.append(grid, corner)
        curve = np.maximum(
            0.0,
            np.maximum(
                1.0 - delta - math.exp(eps) * x,
                math.exp(-eps) * (1.0 - delta - x),
            ),
        )
        rise = np.max((1.0 - target - math.exp(got) * x) - curve)
        assert rise <= 1e-15 * (1.0 + got), (eps, delta, target, rise)
        if got > 1e-9:
            lower = 1.0 - target - math.exp(got - 1e-9) * corner
            assert lower > max(corner, 0.0), (eps, delta, target)


def test_evaluate_eps_delta_curve_at_large_epsilon():
    x = np.array([0.0, 1e-300, 0.5, 1.0 - 1e-5, 1.0])
    with np.errstate(all="raise"):
        values = EpsDeltaCurve(1000.0, 1e-5)(x)
    assert values.tolist() == [1.0 - 1e-5, 0.0, 0.0, 0.0, 0.0]


def test_fdp_to_eps_delta_rejects_other_curve_classes():
    class Diagonal(TradeoffCurve):
        def _evaluate(self, x):
            return 1.0 - x

    with pytest.raises(TypeError):
        fdp_to_eps_delta(Diagonal(), 1e-5)


def test_gdp_delta_of_eps_frozen_value():
    assert gdp_delta_of_eps(0.5, 1.0) == pytest.approx(
        _DELTA_OF_MU_HALF_EPS_1, rel=1e-12
    )


def test_gdp_mu_from_eps_delta_frozen_value():
    assert gdp_mu_from_eps_delta(1.0, 1e-5) == pytest.approx(
        _MU_OF_EPS1_DELTA_1E5, rel=1e-10
    )


def test_gdp_conversions_are_mutually_inverse():
    for mu in (0.3, 1.0, 2.5):
        eps = fdp_to_eps_delta(GaussianCurve(mu), 1e-4)
        assert gdp_delta_of_eps(mu, eps) == pytest.approx(1e-4, rel=1e-6)
    for eps, delta in ((0.5, 1e-3), (2.0, 1e-6), (4.0, 1e-5)):
        mu = gdp_mu_from_eps_delta(eps, delta)
        assert gdp_delta_of_eps(mu, eps) == pytest.approx(delta, rel=1e-6)


def test_bisect_keeps_each_end_on_its_side_down_to_adjacent_floats():
    lo, hi = _bisect(lambda x: x * x - 2.0, 0.0, 2.0)
    assert hi == math.nextafter(lo, math.inf)
    assert lo * lo - 2.0 <= 0.0 < hi * hi - 2.0
    lo, hi = _bisect(lambda x: 2.0 - x * x, 0.0, 2.0)
    assert hi == math.nextafter(lo, math.inf)
    assert 2.0 - lo * lo > 0.0 >= 2.0 - hi * hi
    for f in (lambda x: x + 1.0, lambda x: math.nan):
        with pytest.raises(ValueError, match="no sign change"):
            _bisect(f, 0.0, 2.0)


def test_gaussian_solves_return_their_safe_end():
    # fdp_to_eps_delta returns the larger eps and gdp_mu_from_eps_delta the
    # smaller mu of an adjacent pair: delta is met there, and one float
    # further toward the root it is not.
    # fdp_to_eps_delta then rounds its end up by the stated float error
    # of delta(eps), so delta is missed twice that bound below it.
    for mu, delta in ((0.3, 1e-3), (1.0, 1e-5), (14.0, 1e-5), (6.0, 1e-10)):
        eps = fdp_to_eps_delta(GaussianCurve(mu), delta)
        assert gdp_delta_of_eps(mu, eps) <= delta
        below = eps - 2.0 * _gdp_eps_rounding(mu, eps)
        assert gdp_delta_of_eps(mu, math.nextafter(below, 0.0)) > delta
    for eps, delta in ((0.5, 1e-3), (1.0, 1e-5), (4.0, 1e-5)):
        mu = gdp_mu_from_eps_delta(eps, delta)
        assert gdp_delta_of_eps(mu, eps) <= delta
        assert gdp_delta_of_eps(math.nextafter(mu, math.inf), eps) > delta


def test_eps_delta_curve_rejects_infinite_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        EpsDeltaCurve(math.inf, 0.0)


def test_curves_reject_nan_arguments():
    for curve in (GaussianCurve(1.0), EpsDeltaCurve(1.0, 0.1)):
        with pytest.raises(ValueError, match="x must lie in"):
            curve(math.nan)
        with pytest.raises(ValueError, match="x must lie in"):
            curve(np.array([0.5, math.nan]))


def test_gdp_approx_mu_frozen_value():
    assert gdp_approx_mu(DpSgdConfig(1.0, 1.0, 1)) == pytest.approx(
        _APPROX_MU_UNIT, rel=1e-12
    )


def test_gdp_approx_mu_large_sigma_limit():
    # In the large-noise regime the moment formula reduces to the
    # composed Gaussian value tau * sqrt(n) / sigma.
    config = DpSgdConfig(200.0, 1.0, 1)
    assert gdp_approx_mu(config) == pytest.approx(1.0 / 200.0, rel=1e-2)


def test_gdp_approx_mu_scales_with_iterations():
    one = gdp_approx_mu(DpSgdConfig(50.0, 0.5, 100))
    four = gdp_approx_mu(DpSgdConfig(50.0, 0.5, 400))
    assert four == pytest.approx(2.0 * one, rel=1e-12)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianCurve(-0.1),
        lambda: EpsDeltaCurve(-1.0, 0.0),
        lambda: EpsDeltaCurve(1.0, 1.5),
        lambda: DpSgdConfig(0.0, 1.0, 1),
        lambda: DpSgdConfig(1.0, 0.0, 1),
        lambda: DpSgdConfig(1.0, 1.5, 1),
        lambda: DpSgdConfig(1.0, 1.0, 0),
        # sqrt(1000) / sigma overflows.
        lambda: DpSgdConfig(1e-310, 1.0, 1000),
        lambda: GaussianCurve(math.nextafter(_GDP_MU_MAX, math.inf)),
        lambda: GaussianCurve(math.inf),
        lambda: gdp_delta_of_eps(math.nextafter(_GDP_MU_MAX, math.inf), 1.0),
    ],
)
def test_invalid_parameters_raise(build):
    with pytest.raises(ValueError):
        build()


@given(
    mu=st.floats(min_value=0.05, max_value=5.0),
    x=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_gdp_curve_is_a_valid_tradeoff_function(mu, x):
    value = float(GaussianCurve(mu)(x))
    assert 0.0 <= value <= 1.0
    assert value <= float(GaussianCurve(mu)(x / 2.0)) + 1e-12


@given(
    mu=st.floats(min_value=0.05, max_value=5.0),
    x=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
@settings(max_examples=200, deadline=None)
def test_gdp_curve_is_self_symmetric(mu, x):
    # Reflecting a Gaussian trade-off curve across the diagonal gives
    # the same curve back.
    assert float(GaussianCurve(mu)(float(GaussianCurve(mu)(x)))) == (
        pytest.approx(x, abs=1e-9)
    )


@given(
    eps=st.floats(min_value=0.0, max_value=5.0),
    delta=st.floats(min_value=0.0, max_value=0.5),
    x=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_eps_delta_curve_bounds(eps, delta, x):
    value = float(EpsDeltaCurve(eps, delta)(x))
    assert 0.0 <= value <= 1.0 - delta + 1e-12
    assert float(EpsDeltaCurve(eps, delta)(0.0)) == pytest.approx(
        1.0 - delta, abs=1e-12
    )


@given(
    mu=st.floats(min_value=0.1, max_value=3.0),
    log_delta=st.floats(min_value=-8.0, max_value=-2.0),
)
@settings(max_examples=100, deadline=None)
def test_fdp_eps_monotone_in_delta(mu, log_delta):
    curve = GaussianCurve(mu)
    delta = 10.0**log_delta
    assert fdp_to_eps_delta(curve, delta) <= (
        fdp_to_eps_delta(curve, delta / 10.0) + 1e-9
    )
