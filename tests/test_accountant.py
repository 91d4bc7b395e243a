"""Tests for the selection accountant and the prior Renyi bound."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from privtune import accountant
from privtune._numerics import _bisect, _log_factorials, _logsumexp_rows
from privtune.accountant import (
    _ALPHA_DENSE,
    _INT_ALPHAS,
    _ORDER_CHUNK,
    _PURE_ALPHA_CAP,
    SPEC_ALPHAS,
    _tnb_hat_epsilon,
    base_curve_for,
    calibrate_sigma_rdp,
    log_ratio_max,
    rdp_to_eps,
    select_epsilon_fdp,
    select_epsilon_rdp,
    select_epsilon_rdp_pure,
    subsampled_rdp_curve,
)
from privtune.runcount import PointMass
from privtune.runcount import TruncatedNegativeBinomial as TNB
from privtune.tradeoff import (
    DpSgdConfig,
    EpsDeltaCurve,
    GaussianCurve,
    fdp_to_eps_delta,
)

# Frozen regression values. The Gaussian log-ratio agrees with a
# 30-digit maximization of the objective to 2e-15; the others were
# cross-checked against the analytic Gaussian Renyi curve
# alpha * mu^2 / 2.
_LOG_RATIO_G1_GEOMETRIC = 3.306291051262737
# The (4.36, 1e-5) curve under TNB(1, 1e-2), from the closed form: with
# omega(x) = nu / (1 - (1-nu) x)^2 the objective is
# 2 ln((1 - (1-nu) f(a)) / (nu + (1-nu) a)); it rises on the curve's
# first piece and falls on the second, so the maximum is at the kink
# a* = (1 - delta) / (1 + e^eps), where f(a*) = a*, and equals
# 2 ln((nu + (1-nu)(delta + e^eps a*)) / (nu + (1-nu) a*)).
_LOG_RATIO_EPSDELTA_GEOMETRIC = 7.564153117347493
_EPS_H_EXAMPLE = 7.683469146944933
_EPS_BASE_EXAMPLE = 4.377178095682196
_PURE_PREDICTION = 3.114716467679132
_RDP_SUBSAMPLED = 0.06859872438165837
_SIGMA_STARS = {
    1.0: 127.9182540201893,
    2.0: 67.96077300156608,
    4.0: 36.60553690330341,
}


def _tnb_gaussian_objective(
    mu: float, eta: float, nu: float, a: np.ndarray | float
) -> np.ndarray:
    """log(omega(1 - a) / omega(G_mu(a))) under TNB(eta, nu), in closed form.

    omega(x) is proportional to (1 - (1-nu) x)^-(eta+1) for every eta,
    including the logarithmic series at eta = 0. 1 - (1-nu) G_mu(a) is
    formed as nu + (1-nu)(1 - G_mu(a)) with 1 - G_mu(a) =
    Phi(Phi^-1(a) + mu), which keeps its digits when G_mu(a) is near 1.
    """
    complement = special.ndtr(special.ndtri(a) + mu)
    return (eta + 1.0) * np.log(
        (nu + (1.0 - nu) * complement) / (nu + (1.0 - nu) * np.asarray(a))
    )


def _mp_golden_max(fn, lo: float, hi: float) -> mpmath.mpf:
    """Maximum of a unimodal fn on [lo, hi] by golden section in mpmath.

    Runs at the working precision of mpmath.mp until the bracket is
    1e-36 wide, relative to its upper end when that exceeds 1.
    """
    ratio = (mpmath.sqrt(5) - 1) / 2
    a, b = mpmath.mpf(lo), mpmath.mpf(hi)
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > mpmath.mpf(10) ** -36 * max(1, abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    return max(fc, fd)


def _mp_tnb_log_ratio_sup(curve, eta: float, nu: float) -> mpmath.mpf:
    """Supremum of the log-ratio objective under TNB(eta, nu), 40 digits.

    The objective is (eta + 1) log((nu + (1-nu)(1 - f(a))) / (nu + (1-nu) a)).
    A Gaussian curve is searched over z = Phi^-1(a) in [-40, 40], with
    a = Phi(z) and 1 - f(a) = Phi(z + mu); an (eps, delta) curve over a in
    [0, 1], with 1 - f(a) = min(1, delta + e^eps a, 1 - e^-eps (1 - delta - a)).
    """
    with mpmath.workdps(40):
        nu_mp = mpmath.mpf(nu)

        def log_ratio(a, complement):
            return (eta + 1) * mpmath.log(
                (nu_mp + (1 - nu_mp) * complement) / (nu_mp + (1 - nu_mp) * a)
            )

        if isinstance(curve, GaussianCurve):
            mu = mpmath.mpf(curve.mu)
            return _mp_golden_max(
                lambda z: log_ratio(mpmath.ncdf(z), mpmath.ncdf(z + mu)), -40, 40
            )
        e, delta = mpmath.exp(mpmath.mpf(curve.epsilon)), mpmath.mpf(curve.delta)
        return _mp_golden_max(
            lambda a: log_ratio(
                a, min(1, delta + e * a, 1 - (1 - delta - a) / e)
            ),
            0,
            1,
        )


def test_log_ratio_max_frozen_values():
    value, argmax = log_ratio_max(GaussianCurve(1.0), TNB(1.0, 1e-2))
    assert value == pytest.approx(_LOG_RATIO_G1_GEOMETRIC, rel=1e-9)
    assert 0.0 < argmax < 1.0
    value2, _ = log_ratio_max(EpsDeltaCurve(4.36, 1e-5), TNB(1.0, 1e-2))
    assert value2 == pytest.approx(_LOG_RATIO_EPSDELTA_GEOMETRIC, rel=1e-9)
    # The maximizers of these lie far below the uniform grid's first cell
    # (near 5e-9 and 4e-7). The value may not fall below a log-spaced
    # reference grid, and the objective at the maximizer is within 1e-9.
    grid = np.logspace(-16.0, 0.0, 400_001)
    for mu in (4.0, 8.0):
        value, argmax = log_ratio_max(GaussianCurve(mu), TNB(5.0, 1e-6))
        assert value >= np.max(_tnb_gaussian_objective(mu, 5.0, 1e-6, grid))
        at_argmax = _tnb_gaussian_objective(mu, 5.0, 1e-6, argmax)
        assert 0.0 <= value - at_argmax <= 1e-9


def test_log_ratio_max_is_exact_on_a_flat_maximum():
    # On the second piece of the (1, 0) curve, f(a) = (1 - a) / e, so the
    # objective 3 log((1 - a) / f(a)) is exactly 3 over a long stretch.
    value, argmax = log_ratio_max(EpsDeltaCurve(1.0, 0.0), PointMass(4))
    assert value == pytest.approx(3.0, abs=1e-12)
    assert 0.5 < argmax < 1.0


_SOUNDNESS_TNBS = ((0.0, 0.6), (1.0, 1e-2), (0.5, 1e-4), (5.0, 1e-6), (2.0, 1e-8))
_SOUNDNESS_CURVES = [
    GaussianCurve(mu) for mu in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)
] + [
    EpsDeltaCurve(eps, delta)
    for eps, delta in (
        (0.1, 1e-3), (0.5, 1e-9), (1.0, 1e-5), (2.0, 0.0), (4.36, 1e-5), (8.0, 1e-6)
    )
]


def test_log_ratio_max_is_a_tight_upper_value():
    # 64 inputs against a 40-digit maximization: never below the supremum
    # by more than float rounding, and at most 1e-12 above it. The last
    # input forms 1 - (1-nu) f(a) from an f(a) near 1 with nu tiny, where
    # 1 - f(a) must be computed directly (the supremum is 5.684623090596002).
    cases = [
        (curve, TNB(eta, nu))
        for curve in _SOUNDNESS_CURVES
        for eta, nu in _SOUNDNESS_TNBS
    ]
    cases.append(
        (GaussianCurve(0.21483661487412484), TNB(4.606021011330059, 4.671336689674573e-08))
    )
    # Float rounding in the Gaussian complement and in omega once put
    # these 1.1e-15 to 1.7e-15 relative below the supremum; the value is
    # now rounded up by its stated error.
    cases += [
        (GaussianCurve(0.18674739187735792), TNB(0.0, 3.2977531545025466e-08)),
        (GaussianCurve(0.1792246545310207), TNB(-0.8766564763169384, 0.0018753189009016293)),
    ]
    # With the objective formed as log(c u^p) - log(c v^p), its rounding
    # led the search beside the corner of these small-eps curves, 1.2e-13
    # and 1.0e-13 relative below; the third is 4.9e-15 below when the
    # round-up leaves out the rounding of each log.
    cases += [
        (EpsDeltaCurve(0.012591969254720167, 0.0), TNB(3.162640483789076, 5.628865777706559e-07)),
        (EpsDeltaCurve(0.013201971882499509, 0.0), TNB(8.945656280207647, 4.965158987705035e-08)),
        (GaussianCurve(0.036678993603073105), TNB(1.0, 3.2889302024772854e-09)),
    ]
    for curve, dist in cases:
        value, _ = log_ratio_max(curve, dist)
        sup = _mp_tnb_log_ratio_sup(curve, dist.eta, dist.nu)
        rel = float((mpmath.mpf(value) - sup) / abs(sup))
        assert 0.0 <= rel <= 1e-12, (curve, dist, value, rel)


def test_log_ratio_max_is_zero_for_single_run():
    value, _ = log_ratio_max(GaussianCurve(1.0), PointMass(1))
    assert value == 0.0


def test_log_ratio_max_infinite_when_curve_hits_zero():
    # A curve that reaches zero forces a vanishing denominator for run
    # counts that never draw a single run.
    value, _ = log_ratio_max(EpsDeltaCurve(1.0, 0.5), PointMass(2))
    assert math.isinf(value)


def test_select_epsilon_fdp_frozen_example():
    report = select_epsilon_fdp(GaussianCurve(1.0), TNB(1.0, 1e-2), 1e-3)
    assert report.eps_h == pytest.approx(_EPS_H_EXAMPLE, rel=1e-9)
    assert report.eps_base == pytest.approx(_EPS_BASE_EXAMPLE, rel=1e-9)
    assert report.delta_h == 1e-3
    assert report.method == "FDP_OURS"


def test_select_epsilon_fdp_composes_base_and_ratio():
    curve = GaussianCurve(1.0)
    dist = TNB(1.0, 1e-2)
    report = select_epsilon_fdp(curve, dist, 1e-3)
    ratio, _ = log_ratio_max(curve, dist)
    rescaled_delta = 1e-3 / dist.mean
    assert report.eps_base == pytest.approx(
        fdp_to_eps_delta(curve, rescaled_delta), rel=1e-12
    )
    assert report.eps_h == pytest.approx(
        report.eps_base + ratio, rel=1e-12
    )
    assert report.log_ratio == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("nu", [1e-8, 1e-10, 1e-15, 1e-17])
def test_select_epsilon_fdp_deflates_by_the_mean(nu):
    # TNB(1, nu) is geometric with mean 1/nu, so eps_base is the epsilon
    # of 1-GDP at delta_h * nu: no lower than the root of the Dong-Roth-Su
    # delta(eps) = delta_h nu / (1 - nu), found by bisection on math.erfc.
    # Deflating by omega(1) instead forms 1 - (1 - nu), which cancels.
    def phi(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    target = 1e-5 * nu / (1.0 - nu)
    lo, hi = 0.0, 100.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if phi(0.5 - mid) - math.exp(mid) * phi(-mid - 0.5) > target:
            lo = mid
        else:
            hi = mid
    report = select_epsilon_fdp(GaussianCurve(1.0), TNB(1.0, nu), 1e-5)
    assert hi <= report.eps_base < math.inf


def test_select_epsilon_fdp_point_mass_identity():
    for curve in (GaussianCurve(0.7), EpsDeltaCurve(2.0, 1e-6)):
        report = select_epsilon_fdp(curve, PointMass(1), 1e-5)
        assert report.eps_h == fdp_to_eps_delta(curve, 1e-5)
        assert report.log_ratio == 0.0


def test_select_epsilon_fdp_monotone_in_slack_and_run_count():
    curve = GaussianCurve(1.0)
    loose = select_epsilon_fdp(curve, TNB(1.0, 1e-2), 1e-3).eps_h
    tight = select_epsilon_fdp(curve, TNB(1.0, 1e-2), 1e-5).eps_h
    assert tight > loose
    few = select_epsilon_fdp(curve, TNB(1.0, 1e-2), 1e-3).eps_h
    many = select_epsilon_fdp(curve, TNB(1.0, 1e-3), 1e-3).eps_h
    assert many > few


def test_select_epsilon_fdp_infinite_result():
    report = select_epsilon_fdp(EpsDeltaCurve(1.0, 0.5), PointMass(2), 1e-5)
    assert math.isinf(report.eps_h)


def test_subsampled_rdp_curve_frozen_value():
    gamma = float(subsampled_rdp_curve(0.5, np.array([2.0]))(2.0, 1)[0])
    assert gamma == pytest.approx(_RDP_SUBSAMPLED, rel=1e-10)
    # Subsampling can only shrink the divergence bound below the full-batch
    # value alpha / (2 sigma^2) = 0.25.
    assert gamma < 2.0 / (2.0 * 2.0**2)


# calibrate_sigma_rdp(eps_b, 1e-5, 0.1, 1000) before the Renyi orders
# were summed in one array pass.
_SIGMA_TAU_01 = {1.0: 12.868245390069886, 2.0: 6.887044137244694}
# log k! for k = 0..512.
_LGAMMA = [math.lgamma(k + 1.0) for k in range(513)]


def _subsampled_rdp_oracle(sigma: float, tau: float, n: int, a: int) -> float:
    """Order-a subsampled Gaussian bound, term by term with math.fsum.

    N / (a - 1) * log sum_j C(a, j) (1-tau)^(a-j) tau^j e^(j(j-1)/(2 sigma^2)),
    with the largest term taken out of the sum and added back by log1p.
    """
    logs = [
        _LGAMMA[a] - _LGAMMA[j] - _LGAMMA[a - j]
        + (a - j) * math.log1p(-tau)
        + j * math.log(tau)
        + j * (j - 1) / (2.0 * sigma**2)
        for j in range(a + 1)
    ]
    top = max(range(a + 1), key=logs.__getitem__)
    rest = math.fsum(
        math.exp(t - logs[top]) for j, t in enumerate(logs) if j != top
    )
    return n * (logs[top] + math.log1p(rest)) / (a - 1)


def _rdp_eps_oracle(sigma: float, tau: float, n: int, delta: float) -> float:
    """Tight-rule epsilon of the oracle bound, minimized over orders 2..512."""
    return min(
        _subsampled_rdp_oracle(sigma, tau, n, a)
        + math.log1p(-1.0 / a)
        - (math.log(delta) + math.log(a)) / (a - 1)
        for a in range(2, 513)
    )


def test_subsampled_rdp_curve_matches_term_by_term_oracle():
    orders = np.arange(2.0, 513.0)
    for sigma, tau in ((1.0, 0.1), (0.8, 0.01), (5.0, 0.5)):
        gammas = subsampled_rdp_curve(tau, orders)(sigma, 1000)
        for a, gamma in zip(range(2, 513), gammas):
            want = _subsampled_rdp_oracle(sigma, tau, 1000, a)
            assert gamma == pytest.approx(want, rel=1e-12), (sigma, tau, a)
    for eps_b, sigma_star in _SIGMA_TAU_01.items():
        sigma = calibrate_sigma_rdp(eps_b, 1e-5, 0.1, 1000)
        assert sigma == pytest.approx(sigma_star, rel=1e-12)
        assert _rdp_eps_oracle(sigma, 0.1, 1000, 1e-5) == pytest.approx(
            eps_b, abs=1e-9
        )


def test_log_factorials_match_a_40_digit_oracle():
    table = _log_factorials(2048)
    assert table[0] == table[1] == 0.0
    with mpmath.workdps(40):
        worst = max(
            float(abs(got - mpmath.loggamma(k + 1)) / max(1, got))
            for k, got in enumerate(table.tolist())
        )
    assert worst <= 4e-16, worst


def test_logsumexp_rows_matches_a_40_digit_oracle():
    # The subsampled bound's rows (orders 2..129, -inf past the order) at
    # 16 (sigma, tau), and 2000 random rows with a fifth of entries -inf.
    table = _log_factorials(129)
    a, js = np.arange(2, 130)[:, None], np.arange(130)
    inside = js <= a
    rows = []
    for tau in (0.5, 0.1, 0.01, 0.001):
        for sigma in (0.5, 1.0, 3.0, 20.0):
            terms = (
                table[a] - table[js] - table[np.where(inside, a - js, 0)]
                + (a - js) * math.log1p(-tau) + js * math.log(tau)
                + js * (js - 1.0) / (2.0 * sigma**2)
            )
            rows.append(np.where(inside, terms, -np.inf))
    rng = np.random.default_rng(3)
    noise = rng.normal(0.0, 300.0, (2000, 20))
    noise[rng.random(noise.shape) < 0.2] = -np.inf
    noise[:, 0] = rng.normal(0.0, 300.0, 2000)
    rows.append(np.pad(noise, ((0, 0), (0, 110)), constant_values=-np.inf))
    x = np.concatenate(rows)
    got = _logsumexp_rows(x)
    with mpmath.workdps(40):
        worst = 0.0
        for row, value in zip(x.tolist(), got.tolist()):
            want = mpmath.log(
                mpmath.fsum(mpmath.exp(v) for v in row if v != -math.inf)
            )
            worst = max(worst, float(abs(value - want) / max(1, abs(want))))
    assert worst <= 4e-16, worst


# calibrate_sigma_rdp(eps_b, 1e-5, tau, 1000) as float.hex, when every
# bisection step at tau < 1 evaluated all 511 orders and each tau = 1
# step converted the dense orders through rdp_to_eps.
_SIGMA_HEX = {
    (1.0, 1.0): "0x1.ffac4ac82888ap+6",
    (2.0, 1.0): "0x1.0fd7d4e0b26cap+6",
    (1.0, 0.01): "0x1.835bf95b403cdp+0",
    (1.0, 0.1): "0x1.9bc8aa8e6847fp+3",
    (1.0, 0.5): "0x1.fffa916e79b3dp+5",
    (2.0, 0.01): "0x1.05dc1a37eeaf8p+0",
    (2.0, 0.1): "0x1.b8c554c5e3b2fp+2",
    (2.0, 0.5): "0x1.1031cc24b19dap+5",
}


def test_calibrate_sigma_rdp_frozen_bits():
    for (eps_b, tau), want in _SIGMA_HEX.items():
        assert calibrate_sigma_rdp(eps_b, 1e-5, tau, 1000).hex() == want


def _full_order_sigma(
    eps_b: float, delta: float, tau: float, n_iters: int
) -> float:
    """calibrate_sigma_rdp at tau < 1 with every order at every step."""
    curve = subsampled_rdp_curve(tau, _INT_ALPHAS)

    def gap(sigma: float) -> float:
        eps = rdp_to_eps(curve(sigma, n_iters), _INT_ALPHAS, delta)
        return float(np.min(eps)) - eps_b

    return _bisect(gap, 0.3, 1e4)[1]


def test_calibrate_sigma_rdp_on_chunks_is_the_full_bisection_bit_for_bit(
    monkeypatch,
):
    # 15 seeded inputs, 5 at each tau, and three whose minimizing orders
    # at the ends of the last full-order bracket lie in different chunks
    # (1 and 2, 0 and 1, 2 and 4), so that the chunk bisection spans
    # those, the chunks between and a neighbour on each side.
    rng = np.random.default_rng(25)
    cases = [
        (10.0 ** rng.uniform(-0.3, 0.9), (0.01, 0.1, 0.5)[k % 3],
         int(10.0 ** rng.uniform(2.0, 5.0)))
        for k in range(15)
    ]
    crossing = {(0.1, 0.01, 100): (0, 4), (0.2, 0.01, 1000): (0, 3),
                (0.05, 0.5, 1000): (1, 6)}
    bisections, spans = [], set()
    log_sums = accountant._SubsampledRdp.log_sums

    def counted(f, lo, hi):
        bisections.append(f)
        return _bisect(f, lo, hi)

    def spanned(self, sigma, first=0, stop=None):
        spans.add((first, stop))
        return log_sums(self, sigma, first, stop)

    monkeypatch.setattr(accountant, "_bisect", counted)
    monkeypatch.setattr(accountant._SubsampledRdp, "log_sums", spanned)
    for eps_b, tau, n_iters in cases + list(crossing):
        want = _full_order_sigma(eps_b, 1e-5, tau, n_iters)
        bisections.clear()
        spans.clear()
        assert calibrate_sigma_rdp(eps_b, 1e-5, tau, n_iters) == want
        # The chunk bisection passed its check: no second bisection.
        assert len(bisections) == 1, (eps_b, tau, n_iters)
        if (eps_b, tau, n_iters) in crossing:
            assert spans - {(0, None)} == {crossing[eps_b, tau, n_iters]}
    # A slack as large as the log-sum fails every check, and the
    # bisection on every order gives the same sigma.
    monkeypatch.setattr(accountant, "_CHUNK_SLACK", 1.0)
    bisections.clear()
    sigma = calibrate_sigma_rdp(1.0, 1e-5, 0.01, 1000)
    assert sigma.hex() == _SIGMA_HEX[1.0, 0.01]
    assert len(bisections) == 2


def test_calibrate_sigma_rdp_returns_the_larger_sigma():
    # The bisection runs on sigma: the budget is met at the returned sigma
    # and missed one float below it.
    orders = np.arange(2.0, 513.0)
    curve = subsampled_rdp_curve(0.1, orders)

    def eps_subsampled(sigma: float) -> float:
        return float(np.min(rdp_to_eps(curve(sigma, 1000), orders, 1e-5)))

    def eps_full_batch(sigma: float) -> float:
        rho = 1000 / (2.0 * sigma**2)
        return float(np.min(rdp_to_eps(rho * _ALPHA_DENSE, _ALPHA_DENSE, 1e-5)))

    for tau, eps_at in ((0.1, eps_subsampled), (1.0, eps_full_batch)):
        for eps_b in (1.0, 2.0):
            sigma = calibrate_sigma_rdp(eps_b, 1e-5, tau, 1000)
            below = math.nextafter(sigma, 0.0)
            assert eps_at(sigma) <= eps_b < eps_at(below), (tau, eps_b)


def test_rdp_to_eps_classic_rule_closed_form():
    assert rdp_to_eps(1.0, 10.0, 1e-5, rule="classic") == pytest.approx(
        1.0 + np.log(1e5) / 9.0, rel=1e-12
    )


def test_rdp_to_eps_tight_not_worse_than_classic():
    for gamma, alpha in ((0.5, 4.0), (1.0, 16.0), (2.0, 64.0)):
        tight = float(rdp_to_eps(gamma, alpha, 1e-5, rule="tight"))
        classic = float(rdp_to_eps(gamma, alpha, 1e-5, rule="classic"))
        assert tight <= classic + 1e-12


def test_calibrate_sigma_rdp_frozen_values():
    for eps_b, sigma_star in _SIGMA_STARS.items():
        sigma = calibrate_sigma_rdp(eps_b, 1e-5, 1.0, 1000)
        assert sigma == pytest.approx(sigma_star, rel=1e-9)
    assert _SIGMA_STARS[1.0] > _SIGMA_STARS[2.0] > _SIGMA_STARS[4.0]


def test_base_curve_for_full_batch_is_exact_gaussian():
    config = DpSgdConfig(40.0, 1.0, 1000)
    curve = base_curve_for(config)
    assert isinstance(curve, GaussianCurve)
    assert curve.mu == pytest.approx(np.sqrt(1000.0) / 40.0, rel=1e-12)


def test_select_epsilon_rdp_pure_frozen_prediction():
    assert select_epsilon_rdp_pure(1.0, TNB(1.0, 1e-3), 1e-5) == pytest.approx(
        _PURE_PREDICTION, rel=1e-9
    )


def test_select_epsilon_rdp_pure_is_finite_at_large_epsilon():
    # For eps >= 710 the pure-DP Renyi curve equals eps to double
    # precision at every order. The lifted bound then separates: the
    # order-a terms eps + (log E + log(1/delta)) / (a - 1) are smallest at
    # the largest order, 256, and the order-a' terms
    # (1 + eta)(eps - (eps - log(1/nu)) / a') at the smallest, 1.1.
    eta, nu, delta = 1.0, 1e-3, 1e-5
    dist = TNB(eta, nu)
    for eps in (710.0, 1000.0):
        want = (
            eps
            + (1.0 + eta) * (eps - (eps - math.log(1.0 / nu)) / 1.1)
            + (math.log(dist.mean) + math.log(1.0 / delta)) / 255.0
        )
        assert select_epsilon_rdp_pure(eps, dist, delta) == pytest.approx(
            want, rel=1e-12
        )


def _pair_grid_epsilon(
    gammas: np.ndarray,
    alphas: np.ndarray,
    eta: float,
    nu: float,
    mean: float,
    delta_h: float,
    rule: str,
) -> float:
    """The lifted Renyi bound's converted epsilon, least over every pair.

    The |alpha| x |alpha'| broadcast of the bound
    gamma(alpha) + (1+eta)(1 - 1/alpha') gamma(alpha')
    + (1+eta) log(1/nu) / alpha' + log(mean) / (alpha - 1), with the float
    operations in the order _tnb_hat_epsilon takes them.
    """
    term_ap = (1.0 + eta) * (1.0 - 1.0 / alphas) * gammas + (
        1.0 + eta
    ) * math.log(1.0 / nu) / alphas
    hat = (
        gammas[:, None]
        + term_ap[None, :]
        + math.log(mean) / (alphas[:, None] - 1.0)
    )
    return float(np.min(rdp_to_eps(hat, alphas[:, None], delta_h, rule)))


def test_tnb_hat_epsilon_is_the_pair_grid_minimum_bit_for_bit():
    # 300 seeded inputs, 30 for each rule on each of five curves: the
    # Gaussian at tau = 1 on SPEC_ALPHAS, the subsampled Gaussian at tau
    # 0.5, 0.1 and 0.01 on the integer orders, and the pure-DP curve on
    # the orders up to the pure bound's cap.
    rng = np.random.default_rng(22)
    pure_alphas = SPEC_ALPHAS[SPEC_ALPHAS <= _PURE_ALPHA_CAP]
    taus = (0.5, 0.1, 0.01)
    curves = [subsampled_rdp_curve(tau, _INT_ALPHAS) for tau in taus]
    for case in range(300):
        kind, rule = case % 5, ("tight", "classic")[case // 5 % 2]
        sigma = 10.0 ** rng.uniform(-0.3, 2.0)
        n_iters = int(10.0 ** rng.uniform(0.0, 5.0))
        if kind == 0:
            alphas = SPEC_ALPHAS
            gammas = n_iters * alphas / (2.0 * sigma**2)
        elif kind <= len(taus):
            alphas = _INT_ALPHAS
            gammas = curves[kind - 1](sigma, n_iters)
        else:
            alphas, eps = pure_alphas, 10.0 ** rng.uniform(-2.0, 3.0)
            log_p = -math.log1p(math.exp(-eps))
            gammas = np.logaddexp(
                log_p + (alphas - 1.0) * eps, log_p - alphas * eps
            ) / (alphas - 1.0)
        dist = TNB(rng.uniform(-0.9, 4.0), 10.0 ** rng.uniform(-10.0, -0.3))
        delta_h = 10.0 ** rng.uniform(-12.0, -1.0)
        args = (gammas, alphas, dist.eta, dist.nu, dist.mean, delta_h, rule)
        assert _tnb_hat_epsilon(*args) == _pair_grid_epsilon(*args), case


def test_select_epsilon_rdp_reports_geometric_example():
    config = DpSgdConfig(_SIGMA_STARS[2.0], 1.0, 1000)
    eps = select_epsilon_rdp(config, TNB(1.0, 1e-2), 1e-5)
    assert isinstance(eps, float)
    assert 0.0 < eps < math.inf


def test_ours_is_below_prior_for_tnb_run_counts():
    config = DpSgdConfig(_SIGMA_STARS[2.0], 1.0, 1000)
    curve = base_curve_for(config)
    for dist in (TNB(0.0, 1e-2), TNB(1.0, 1e-2), TNB(2.0, 1e-3)):
        ours = select_epsilon_fdp(curve, dist, 1e-5).eps_h
        assert fdp_to_eps_delta(curve, 1e-5) < ours
        assert ours < select_epsilon_rdp(config, dist, 1e-5)


def test_prior_bound_requires_tnb():
    config = DpSgdConfig(60.0, 1.0, 1000)
    with pytest.raises(ValueError, match="TruncatedNegativeBinomial"):
        select_epsilon_rdp(config, PointMass(5), 1e-5)
    curve = base_curve_for(config)
    assert select_epsilon_fdp(curve, PointMass(5), 1e-5).eps_h > 0.0


@given(
    mu=st.floats(min_value=0.2, max_value=2.0),
    eta=st.floats(min_value=0.0, max_value=2.0),
    nu=st.floats(min_value=0.01, max_value=0.5),
)
@settings(max_examples=40, deadline=None)
def test_log_ratio_max_is_nonnegative_with_interior_argmax(mu, eta, nu):
    value, argmax = log_ratio_max(GaussianCurve(mu), TNB(eta, nu))
    assert value >= 0.0
    assert 0.0 <= argmax <= 1.0
    # An upper bound: never below an independent grid, up to rounding.
    grid = np.concatenate(
        [np.logspace(-12.0, 0.0, 10_001), np.linspace(0.0, 1.0, 10_001)]
    )
    reference = np.max(_tnb_gaussian_objective(mu, eta, nu, grid))
    assert value >= reference - 1e-12
    assert value - _tnb_gaussian_objective(mu, eta, nu, argmax) <= 1e-9
