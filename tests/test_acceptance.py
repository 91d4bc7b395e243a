"""Acceptance suite: one printed PASS/FAIL line per numbered criterion.

Each test evaluates one acceptance criterion at its stated tolerance,
prints a single ``CRITERION n: PASS/FAIL`` line with the measured
values, and then asserts. All nine criteria pass, and no band is wider
than the criterion states.

Criteria 2 and 3 compare against closed forms computed here without
calling privtune, each derived next to its assertion:

- criterion 2: the tuned epsilon is ln((q2 - delta) / q2'), to 1e-12
  relative; the paper's 2.92 is that value truncated, not rounded, and
  is checked as floor(100 eps) / 100 == 2.92;
- criterion 3: the base epsilon is the root of the Dong-Roth-Su closed
  form for mu = 1, checked one-sidedly; the paper's 4.36 is not a valid
  (eps, 1e-5) level for mu = 1;
- criterion 3: the (4.36, 1e-5) correction under TNB(1, 1e-2) is the
  objective at the curve's kink, checked one-sidedly; the paper's 16.5
  exceeds the cap 2 ln(1/nu) = 9.21 of every correction under this run
  count.

Nothing in the repository settles where the paper's 4.36 and 16.5 come
from.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from privtune.accountant import (
    base_curve_for,
    calibrate_sigma_gdp,
    calibrate_sigma_rdp,
    log_ratio_max,
    select_epsilon_fdp,
    select_epsilon_rdp,
    select_epsilon_rdp_pure,
)
from privtune.audit import (
    GameConfig,
    run_audit,
    simulate_game,
)
from privtune.discrete import (
    approx_dp_epsilon,
    near_worst_case_pair,
    pure_dp_epsilon,
    selection_distribution,
    simulate_selection,
    theorem4_campaign,
)
from privtune.runcount import PointMass
from privtune.runcount import TruncatedNegativeBinomial as TNB
from privtune.tradeoff import (
    DpSgdConfig,
    EpsDeltaCurve,
    GaussianCurve,
    fdp_to_eps_delta,
)

_DELTA = 1e-5
_N_ITERS = 1000
_XI_COLUMNS = (
    (0.0, 1e-2),
    (1.0, 1e-2),
    (1.0, 1e-3),
    (2.0, 1e-3),
)
_OURS_EXPECTED = {
    1.0: (1.55, 2.06, 2.54, 3.18),
    2.0: (2.92, 3.84, 4.69, 5.85),
    4.0: (5.70, 7.40, 8.95, 11.07),
}
_PRIOR_EXPECTED = {
    1.0: (1.86, 2.65, 3.09, 3.99),
    2.0: (3.61, 5.06, 5.89, 7.57),
    4.0: (6.80, 9.30, 10.83, 13.77),
}
# The near-worst-case base pair with spread b = 1e-3, ratio d = 100 and
# epsilon 1, symbols in score order: (1 - b e - d b, b e, d b) and
# (1 - b - d b e, b, d b e), with e = e^1.
_NEAR_WORST_P = np.array([1.0 - 1e-3 * math.e - 0.1, 1e-3 * math.e, 0.1])
_NEAR_WORST_P_PRIME = np.array([1.0 - 1e-3 - 0.1 * math.e, 1e-3, 0.1 * math.e])
_AUDIT_CASES = {
    2.0: {"dist": TNB(1.0, 1e-2), "seed": 1, "expected": 2.21},
    1.0: {"dist": TNB(0.0, 1e-2), "seed": 2, "expected": 1.17},
}


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _three_sig_figs(value: float) -> float:
    return float(f"{value:.3g}")


def _geometric_selection_oracle(p: np.ndarray, nu: float) -> np.ndarray:
    """Best-of-k output distribution of symbols scored in index order.

    q_j = S(c_j) - S(c_{j-1}), with c_j the cumulative mass and
    S(y) = nu y / (1 - (1 - nu) y) the pgf of the geometric run count
    TNB(1, nu).
    """
    cum = np.cumsum(p)
    return np.diff(nu * cum / (1.0 - (1.0 - nu) * cum), prepend=0.0)


def _gdp_eps_root(mu: float, delta: float) -> float:
    """Smallest eps with delta(eps) <= delta for Gaussian-DP parameter mu.

    delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2), the
    Dong-Roth-Su closed form; bisection, with Phi from math.erfc.
    """

    def phi(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    low, high = 0.0, 100.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        gap = phi(-mid / mu + mu / 2.0) - math.exp(mid) * phi(
            -mid / mu - mu / 2.0
        )
        if gap > delta:
            low = mid
        else:
            high = mid
    return high


def _tuned_worst_case_pair():
    pair = near_worst_case_pair(1e-3, 100.0, 1.0)
    dist = TNB(1.0, 1e-3)
    q = selection_distribution(pair.p, pair.score_partition, dist)
    q_prime = selection_distribution(pair.p_prime, pair.score_partition, dist)
    return q, q_prime


@pytest.fixture(scope="module")
def table3_results():
    start = time.perf_counter()
    cells = {}
    for eps_b in _OURS_EXPECTED:
        sigma = calibrate_sigma_rdp(eps_b, _DELTA, 1.0, _N_ITERS)
        config = DpSgdConfig(sigma, 1.0, _N_ITERS)
        curve = base_curve_for(config)
        for column, (eta, nu) in enumerate(_XI_COLUMNS):
            dist = TNB(eta, nu)
            cells[(eps_b, column)] = (
                select_epsilon_fdp(curve, dist, _DELTA).eps_h,
                select_epsilon_rdp(config, dist, _DELTA),
            )
    return {"cells": cells, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def audit_results():
    start = time.perf_counter()
    cells = {}
    for eps_b, case in _AUDIT_CASES.items():
        sigma = calibrate_sigma_gdp(eps_b, _DELTA, 1.0, _N_ITERS)
        config = DpSgdConfig(sigma, 1.0, _N_ITERS)
        game = GameConfig(
            config=config,
            dist=case["dist"],
            trials=10**7,
            seed=case["seed"],
            delta=_DELTA,
        )
        sweep = run_audit(game)
        curve = base_curve_for(config)
        cells[eps_b] = {
            "eps_l": float(sweep.eps_lower[sweep.best]),
            "eps_ours": select_epsilon_fdp(curve, case["dist"], _DELTA).eps_h,
            "eps_prior": select_epsilon_rdp(config, case["dist"], _DELTA),
            "expected": case["expected"],
        }
    return {"cells": cells, "elapsed": time.perf_counter() - start}


def test_criterion_1_pure_dp_tightness():
    start = time.perf_counter()
    q, q_prime = _tuned_worst_case_pair()
    eps = pure_dp_epsilon(q, q_prime)
    elapsed = time.perf_counter() - start
    targets = (8.66e-3, 2.60e-4, 9.91e-1, 2.66e-3, 1.34e-5, 9.97e-1)
    rounded = tuple(
        _three_sig_figs(v) for v in (*q.q, *q_prime.q)
    )
    probs_ok = rounded == targets
    eps_ok = abs(eps - 2.96) <= 0.005
    ok = probs_ok and eps_ok and elapsed < 1.0
    _report(
        1,
        ok,
        f"tuned probabilities {rounded} vs {targets}, "
        f"eps {eps:.6f} vs 2.96 +/- 0.005, {elapsed:.2f}s",
    )


def test_criterion_2_approx_dp_tightness():
    start = time.perf_counter()
    q, q_prime = _tuned_worst_case_pair()
    eps_tuned = approx_dp_epsilon(q, q_prime, _DELTA)
    predicted = select_epsilon_rdp_pure(1.0, TNB(1.0, 1e-3), _DELTA)
    elapsed = time.perf_counter() - start
    # Oracle: delta(eps) = sum_j max(0, q_j - e^eps q'_j) over both
    # directions. Only the middle symbol has a log-ratio above 1.19 in
    # either direction, so near the root delta(eps) = q_2 - e^eps q'_2 and
    # eps = ln((q_2 - delta) / q'_2) = 2.9253116656657028. The paper's
    # "2.92" is this value truncated, not rounded, to two decimals: the
    # rounded probabilities 2.60e-4 and 1.34e-5 of criterion 1 give 2.9262.
    q_ref = _geometric_selection_oracle(_NEAR_WORST_P, 1e-3)
    q_prime_ref = _geometric_selection_oracle(_NEAR_WORST_P_PRIME, 1e-3)
    other_log_ratios = np.abs(np.log(q_ref / q_prime_ref))[[0, 2]]
    exact = math.log((q_ref[1] - _DELTA) / q_prime_ref[1])
    tuned_ok = (
        np.max(other_log_ratios) < 1.19 < exact
        and abs(eps_tuned - exact) <= 1e-12 * exact
        and math.floor(100.0 * eps_tuned) / 100.0 == 2.92
    )
    predicted_ok = abs(predicted - 3.11) <= 0.01
    ok = tuned_ok and predicted_ok and elapsed < 1.0
    _report(
        2,
        ok,
        f"tuned eps {eps_tuned!r} vs ln((q2 - delta)/q2') {exact!r} "
        f"(rel 1e-12), truncated to 2.92 "
        f"[{'ok' if tuned_ok else 'out of band'}], "
        f"prediction {predicted:.6f} vs 3.11 +/- 0.01 "
        f"[{'ok' if predicted_ok else 'out of band'}], {elapsed:.2f}s",
    )


def test_criterion_3_base_example_components():
    start = time.perf_counter()
    eps_base = fdp_to_eps_delta(GaussianCurve(1.0), _DELTA)
    ratio_gauss, _ = log_ratio_max(GaussianCurve(1.0), TNB(1.0, 1e-2))
    ratio_eps_delta, _ = log_ratio_max(
        EpsDeltaCurve(4.36, _DELTA), TNB(1.0, 1e-2)
    )
    elapsed = time.perf_counter() - start
    # Oracle for the base epsilon: the root of the Dong-Roth-Su closed form
    # delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2) at
    # mu = 1, 4.377178095681225. The paper's 4.36 is not a valid
    # (eps, 1e-5) level for mu = 1: delta(4.36) = 1.0762e-5. An upper
    # bound may exceed the root by the solver tolerance, never fall below.
    root = _gdp_eps_root(1.0, _DELTA)
    base_ok = root <= eps_base <= root + 1e-9
    gauss_ok = abs(ratio_gauss - 3.3) <= 0.05
    # Oracle for the (4.36, 1e-5) correction under TNB(1, nu), where
    # omega(x) = nu / (1 - (1-nu) x)^2: the objective
    # 2 ln((1 - (1-nu) f(a)) / (nu + (1-nu) a)) rises on the first piece
    # of the curve and falls on the second, so its maximum sits at the
    # kink a* = (1 - delta) / (1 + e^eps), where f(a*) = a*. Every
    # correction under this run count is below ln(omega(1) / omega(0))
    # = 2 ln(1/nu) = 9.21, so the paper's 16.5 cannot be reached.
    eps, nu = 4.36, 1e-2
    kink = (1.0 - _DELTA) / (1.0 + math.exp(eps))
    kink_value = 2.0 * math.log(
        (nu + (1.0 - nu) * (_DELTA + math.exp(eps) * kink))
        / (nu + (1.0 - nu) * kink)
    )
    cap = 2.0 * math.log(1.0 / nu)
    eps_delta_ok = (
        kink_value - 1e-12 <= ratio_eps_delta <= kink_value + 1e-9
        and ratio_gauss < ratio_eps_delta < cap
    )
    ok = base_ok and gauss_ok and eps_delta_ok and elapsed < 1.0
    _report(
        3,
        ok,
        f"base eps {eps_base!r} vs closed-form root {root!r} (+1e-9) "
        f"[{'ok' if base_ok else 'out of band'}], "
        f"gaussian ratio {ratio_gauss:.6f} vs 3.3 +/- 0.05 "
        f"[{'ok' if gauss_ok else 'out of band'}], "
        f"eps-delta ratio {ratio_eps_delta!r} vs kink value "
        f"{kink_value!r} (-1e-12, +1e-9), above the gaussian ratio and "
        f"below {cap:.4f} [{'ok' if eps_delta_ok else 'out of band'}], "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_table_upper_bounds(table3_results):
    cells = table3_results["cells"]
    worst_ours = worst_prior = 0.0
    for eps_b, expected_row in _OURS_EXPECTED.items():
        for column, expected in enumerate(expected_row):
            ours, _ = cells[(eps_b, column)]
            worst_ours = max(worst_ours, abs(ours - expected))
    for eps_b, expected_row in _PRIOR_EXPECTED.items():
        for column, expected in enumerate(expected_row):
            _, prior = cells[(eps_b, column)]
            worst_prior = max(worst_prior, abs(prior - expected))
    elapsed = table3_results["elapsed"]
    ok = worst_ours <= 0.1 and worst_prior <= 0.15 and elapsed < 10.0
    _report(
        4,
        ok,
        f"max |ours - expected| {worst_ours:.4f} (tol 0.1), "
        f"max |prior - expected| {worst_prior:.4f} (tol 0.15), "
        f"{elapsed:.2f}s over 24 cells",
    )


def test_criterion_5_audit_reproduction(audit_results):
    cells = audit_results["cells"]
    clauses = []
    details = []
    for eps_b, cell in sorted(cells.items()):
        in_band = abs(cell["eps_l"] - cell["expected"]) <= 0.15
        above_base = cell["eps_l"] > eps_b
        below_ours = cell["eps_l"] < cell["eps_ours"]
        clauses.append(in_band and above_base and below_ours)
        details.append(
            f"eps_b={eps_b:g}: eps_l {cell['eps_l']:.4f} vs "
            f"{cell['expected']} +/- 0.15, base {eps_b:g}, "
            f"upper {cell['eps_ours']:.4f}"
        )
    elapsed = audit_results["elapsed"]
    ok = all(clauses) and elapsed <= 600.0
    _report(5, ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_6_soundness_ordering(table3_results, audit_results):
    slack = 1e-9
    violations = []
    for (eps_b, column), (ours, prior) in table3_results["cells"].items():
        if not eps_b <= ours + slack:
            violations.append(f"table eps_b {eps_b:g} col {column}: base>ours")
        if not ours <= prior + slack:
            violations.append(f"table eps_b {eps_b:g} col {column}: ours>prior")
    for eps_b, cell in audit_results["cells"].items():
        if not eps_b <= cell["eps_ours"] + slack:
            violations.append(f"audit eps_b {eps_b:g}: base>ours")
        if not cell["eps_l"] <= cell["eps_ours"] + slack:
            violations.append(f"audit eps_b {eps_b:g}: lower>ours")
        if not cell["eps_ours"] <= cell["eps_prior"] + slack:
            violations.append(f"audit eps_b {eps_b:g}: ours>prior")
    ok = not violations
    _report(
        6,
        ok,
        "all 12 table cells and 2 audited cells ordered"
        if ok
        else "; ".join(violations),
    )


def test_criterion_7_theorem4_campaign():
    start = time.perf_counter()
    passes, worst = theorem4_campaign(1000, 7)
    elapsed = time.perf_counter() - start
    ok = passes == 1000 and elapsed < 60.0
    _report(
        7,
        ok,
        f"{passes}/1000 pass, worst margin {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_8_point_mass_identity():
    rng = np.random.default_rng(0)
    mismatches = 0
    for index in range(20):
        if index % 2 == 0:
            curve = GaussianCurve(float(rng.uniform(0.05, 3.0)))
        else:
            curve = EpsDeltaCurve(
                float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.0, 5e-6))
            )
        report = select_epsilon_fdp(curve, PointMass(1), _DELTA)
        if report.eps_h != fdp_to_eps_delta(curve, _DELTA):
            mismatches += 1
        elif report.log_ratio != 0.0:
            mismatches += 1
    ok = mismatches == 0
    _report(8, ok, f"{20 - mismatches}/20 curves reduce exactly")


def test_criterion_9_simulator_calibration():
    cfg = GameConfig(
        config=DpSgdConfig(40.0, 1.0, _N_ITERS),
        dist=PointMass(1),
        trials=10**7,
        seed=3,
    )
    truth, scores = simulate_game(cfg)
    null = np.sort(scores[truth == 0])
    alt = np.sort(scores[truth == 1])
    levels = np.linspace(0.0005, 0.9995, 2001)
    thresholds = np.quantile(null, 1.0 - levels)
    fn = np.searchsorted(alt, thresholds, side="right") / alt.size
    mu = np.sqrt(_N_ITERS) / 40.0
    roc_dev = float(np.max(np.abs(fn - GaussianCurve(mu)(levels))))
    roc_ok = roc_dev < 0.005

    pair = near_worst_case_pair(1e-3, 100.0, 1.0)
    dist = TNB(1.0, 1e-3)
    exact = selection_distribution(pair.p, pair.score_partition, dist).q
    emp = simulate_selection(
        pair.p, pair.score_partition, dist, 200_000, np.random.default_rng(11)
    )
    errors = np.abs(emp - exact) / np.sqrt(exact * (1.0 - exact) / 200_000)
    selection_ok = bool(np.all(errors <= 4.0))
    ok = roc_ok and selection_ok
    _report(
        9,
        ok,
        f"ROC sup deviation {roc_dev:.5f} (tol 0.005), "
        f"selection max error {float(np.max(errors)):.2f} standard errors "
        f"(tol 4)",
    )
