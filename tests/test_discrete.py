"""Tests for exact finite-alphabet selection computations."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from privtune import discrete
from privtune.discrete import (
    FiniteMechanismPair,
    SelectionOutput,
    _random_instance,
    approx_dp_delta,
    approx_dp_epsilon,
    near_worst_case_pair,
    pure_dp_epsilon,
    renyi_divergence,
    selection_distribution,
    simulate_selection,
    theorem4_campaign,
    theorem4_check,
)
from privtune.accountant import select_epsilon_rdp_pure
from privtune.runcount import PointMass
from privtune.runcount import TruncatedNegativeBinomial as TNB

# Frozen regression values for the near-worst-case three-symbol pair
# with spread 1e-3, ratio 100, epsilon 1, tuned through TNB(1, 1e-3).
# The tuned distributions follow from the generating-function closed
# form; epsilon values were cross-checked against direct enumeration
# of the log-ratio over the three symbols.
_TUNED_Q = (0.008659719519526949, 0.00026000297799535013, 0.9910802775024768)
_TUNED_Q_PRIME = (
    0.0026582254916916606,
    1.3412152032628213e-05,
    0.9973283623562749,
)
_TUNED_PURE_EPS = 2.964531920671199
_TUNED_RENYI_2 = 0.017960229728341517
_THEOREM4_GROUPED = 0.17054448960293486
_THEOREM4_REFINED = 0.1708947258087111
_CAMPAIGN_50_MARGIN = 7.946914605261313e-07


def _worst_case_tuned():
    pair = near_worst_case_pair(1e-3, 100.0, 1.0)
    dist = TNB(1.0, 1e-3)
    q = selection_distribution(pair.p, pair.score_partition, dist)
    q_prime = selection_distribution(pair.p_prime, pair.score_partition, dist)
    return q, q_prime


def test_selection_distribution_one_run_is_identity():
    p = np.array([0.3, 0.2, 0.5])
    out = selection_distribution(p, ((0,), (1,), (2,)), PointMass(1))
    assert np.array_equal(out.q, p)


def test_selection_distribution_two_runs_closed_form():
    # With two runs over a strict fifty-fifty pair, the better symbol
    # wins unless both runs land on the worse one.
    out = selection_distribution(
        np.array([0.5, 0.5]), ((0,), (1,)), PointMass(2)
    )
    assert np.allclose(out.q, [0.25, 0.75], atol=1e-15)


def test_selection_distribution_tied_group_closed_form():
    # The tied group's total mass is the generating-function increment
    # and is split evenly among its symbols.
    out = selection_distribution(
        np.array([0.2, 0.3, 0.5]), ((0, 1), (2,)), PointMass(3)
    )
    assert np.allclose(out.q, [0.0625, 0.0625, 0.875], atol=1e-15)
    one_run = selection_distribution(
        np.array([0.2, 0.3, 0.5]), ((0, 1), (2,)), PointMass(1)
    )
    assert np.allclose(one_run.q, [0.25, 0.25, 0.5], atol=1e-15)


def test_near_worst_case_pair_frozen_probabilities():
    pair = near_worst_case_pair(1e-3, 100.0, 1.0)
    assert np.allclose(
        pair.p, [0.897281718171541, 0.002718281828459045, 0.1], rtol=1e-12
    )
    assert np.allclose(
        pair.p_prime,
        [0.7271718171540955, 0.001, 0.27182818284590454],
        rtol=1e-12,
    )
    assert pair.score_partition == ((0,), (1,), (2,))


def test_tuned_pair_frozen_distributions():
    q, q_prime = _worst_case_tuned()
    assert np.allclose(q.q, _TUNED_Q, rtol=1e-10)
    assert np.allclose(q_prime.q, _TUNED_Q_PRIME, rtol=1e-10)


def test_pure_dp_epsilon_frozen_value():
    q, q_prime = _worst_case_tuned()
    assert pure_dp_epsilon(q, q_prime) == pytest.approx(
        _TUNED_PURE_EPS, rel=1e-10
    )


def test_pure_dp_epsilon_edge_cases():
    q = SelectionOutput(np.array([0.5, 0.5]))
    assert pure_dp_epsilon(q, q) == 0.0
    mismatched = SelectionOutput(np.array([1.0, 0.0]))
    assert math.isinf(pure_dp_epsilon(mismatched, q))


def test_approx_dp_delta_interpolates_to_pure_epsilon():
    q, q_prime = _worst_case_tuned()
    tv = 0.5 * float(np.sum(np.abs(q.q - q_prime.q)))
    assert approx_dp_delta(q, q_prime, 0.0) == pytest.approx(tv, rel=1e-12)
    assert approx_dp_delta(q, q_prime, _TUNED_PURE_EPS) <= 1e-15
    # The tuned pair satisfies the documented approximate guarantee:
    # delta crosses 1e-5 just below epsilon 2.92532.
    assert approx_dp_delta(q, q_prime, 2.92532) <= 1e-5
    assert approx_dp_delta(q, q_prime, 2.9240) > 1e-5


def test_approx_dp_delta_monotone_in_epsilon():
    q, q_prime = _worst_case_tuned()
    grid = np.linspace(0.0, 3.0, 31)
    deltas = [approx_dp_delta(q, q_prime, float(e)) for e in grid]
    assert all(a >= b - 1e-15 for a, b in zip(deltas, deltas[1:]))


def _hockey_stick(a, b, eps):
    """max over both orderings of sum_y max(0, a(y) - e^eps b(y))."""
    scale = math.exp(eps)
    return max(
        math.fsum(max(0.0, x - scale * y) for x, y in zip(a, b)),
        math.fsum(max(0.0, y - scale * x) for x, y in zip(a, b)),
    )


def test_approx_dp_epsilon_frozen_value():
    # Only the middle symbol's log-ratio exceeds the answer, so it is
    # ln((q_2 - delta) / q_2'), the value a 200-step bisection returned.
    q, q_prime = _worst_case_tuned()
    eps = approx_dp_epsilon(q, q_prime, 1e-5)
    assert eps == 2.9253116656657028
    assert eps == pytest.approx(
        math.log((_TUNED_Q[1] - 1e-5) / _TUNED_Q_PRIME[1]), rel=1e-12
    )
    assert approx_dp_epsilon(q, q_prime, 0.0) == pytest.approx(
        _TUNED_PURE_EPS, rel=1e-12
    )
    assert approx_dp_epsilon(q, q_prime, 1.0) == 0.0
    mismatched = SelectionOutput(np.array([0.5, 0.5]))
    point = SelectionOutput(np.array([1.0, 0.0]))
    assert math.isinf(approx_dp_epsilon(mismatched, point, 0.4))
    assert approx_dp_epsilon(mismatched, point, 0.5) == 0.0
    with pytest.raises(ValueError):
        approx_dp_epsilon(q, q_prime, math.nan)


@given(
    weights=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=0, max_value=1000),
        ),
        min_size=2,
        max_size=6,
    ),
    log_delta=st.floats(min_value=-12.0, max_value=-0.3),
)
@settings(max_examples=200, deadline=None)
def test_approx_dp_epsilon_inverts_the_hockey_stick(weights, log_delta):
    total_a = sum(w for w, _ in weights)
    total_b = sum(w for _, w in weights)
    assume(total_a > 0 and total_b > 0)
    a = [w / total_a for w, _ in weights]
    b = [w / total_b for _, w in weights]
    delta = 10.0**log_delta
    eps = approx_dp_epsilon(
        SelectionOutput(np.array(a)), SelectionOutput(np.array(b)), delta
    )
    # Oracle: the hockey-stick sum falls in eps to its limit, the mass
    # one side puts where the other has none; below delta the smallest
    # eps comes from bisection down to adjacent floats.
    limit = max(
        math.fsum(x for x, y in zip(a, b) if y == 0.0),
        math.fsum(y for x, y in zip(a, b) if x == 0.0),
    )
    if limit > delta:
        assert math.isinf(eps)
        return
    lo, hi = 0.0, 50.0
    if _hockey_stick(a, b, 0.0) <= delta:
        hi = 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _hockey_stick(a, b, mid) > delta:
            lo = mid
        else:
            hi = mid
    assert eps == pytest.approx(hi, rel=1e-9, abs=1e-12)
    # Both hockey-stick sums round each term, hence the few-ulp slack.
    assert approx_dp_delta(
        SelectionOutput(np.array(a)), SelectionOutput(np.array(b)), eps
    ) <= delta + 1e-14


def test_renyi_divergence_frozen_value():
    q, q_prime = _worst_case_tuned()
    assert renyi_divergence(q, q_prime, 2.0) == pytest.approx(
        _TUNED_RENYI_2, rel=1e-10
    )
    assert renyi_divergence(q, q, 2.0) == 0.0
    assert math.isinf(
        renyi_divergence(
            SelectionOutput(np.array([0.5, 0.5])),
            SelectionOutput(np.array([1.0, 0.0])),
            2.0,
        )
    )


def test_theorem4_check_frozen_example():
    pair = FiniteMechanismPair(
        ("a", "b", "c"),
        np.array([0.2, 0.3, 0.5]),
        np.array([0.4, 0.4, 0.2]),
        ((0, 1), (2,)),
    )
    grouped, refined, ok = theorem4_check(pair, TNB(1.0, 0.1), 2.0)
    assert grouped == pytest.approx(_THEOREM4_GROUPED, rel=1e-10)
    assert refined == pytest.approx(_THEOREM4_REFINED, rel=1e-10)
    assert ok
    assert grouped <= refined + 1e-12


def _exact_pgf(dist, c):
    """The pgf at a rational point: c^k, or the geometric nu c / (1 - (1 - nu) c)."""
    if isinstance(dist, PointMass):
        return c**dist.k
    assert dist.eta == 1.0
    nu = Fraction(dist.nu)
    return nu * c / (1 - (1 - nu) * c)


def _exact_selection(probs, partition, dist):
    """Exact rational selection output of the normalized float inputs."""
    p = [Fraction(float(x)) for x in probs]
    total = sum(p)
    q = [Fraction(0)] * len(p)
    cumulative, pgf_prev = Fraction(0), Fraction(0)
    for group in partition:
        cumulative += sum(p[i] for i in group) / total
        pgf_here = _exact_pgf(dist, cumulative)
        for i in group:
            q[i] = (pgf_here - pgf_prev) / len(group)
        pgf_prev = pgf_here
    return q


def _exact_power_sum(pair, partition, dist, order):
    """sum_y q(y)^order / q'(y)^(order - 1) of the exact selection outputs."""
    q = _exact_selection(pair.p, partition, dist)
    q_prime = _exact_selection(pair.p_prime, partition, dist)
    return sum(a**order / b ** (order - 1) for a, b in zip(q, q_prime))


def test_theorem4_check_passes_a_tie_that_float_error_reverses():
    # Instance 628 of seed 836464178: its grouped and refined order-8
    # divergences differ only by float error, 1.7e-11 the wrong way.
    pair, dist, alpha = _random_instance(
        np.random.SeedSequence([836464178, 628])
    )
    assert (dist, alpha) == (TNB(1.0, 0.1), 8.0)
    grouped, refined, ok = theorem4_check(pair, dist, alpha)
    assert ok
    assert grouped > refined + 1e-12

    # Oracle: exact rational selection outputs of the normalized inputs.
    # The order-8 divergence is increasing in sum_y q(y)^8 / q'(y)^7, so
    # comparing the sums orders the divergences.
    exact_grouped = _exact_power_sum(pair, pair.score_partition, dist, 8)
    exact_refined = _exact_power_sum(
        pair, tuple((i,) for group in pair.score_partition for i in group),
        dist, 8,
    )
    assert exact_grouped < exact_refined
    assert (exact_refined - exact_grouped) / exact_grouped < 1e-20


def test_theorem4_campaign_frozen_and_keyed_per_instance():
    campaign = theorem4_campaign(50, 7)
    assert campaign[0] == 50
    assert campaign[1] == pytest.approx(_CAMPAIGN_50_MARGIN, rel=1e-9)
    # Instance i is drawn from SeedSequence([seed, i]) alone.
    checks = [
        theorem4_check(*_random_instance(np.random.SeedSequence([7, i])))
        for i in range(50)
    ]
    assert campaign == (
        sum(ok for _, _, ok in checks),
        min(refined - grouped for grouped, refined, _ in checks),
    )


def _instances(seed, count):
    return [
        _random_instance(np.random.SeedSequence([seed, i])) for i in range(count)
    ]


def _rows(pairs):
    return [(pair.p, pair.p_prime, pair.score_partition) for pair in pairs]


@pytest.mark.parametrize("chunk", [1, 7, 16, discrete._CAMPAIGN_CHUNK])
def test_theorem4_campaign_is_independent_of_the_batch_size(monkeypatch, chunk):
    # 300 instances fill all nine (run count, order) buckets with 28 to 42
    # each, so every chunk size but the module's splits them across calls.
    instances = _instances(7, 300)
    buckets = {}
    for index, (_, dist, alpha) in enumerate(instances):
        buckets.setdefault((dist, alpha), []).append(index)
    assert len(buckets) == 9
    checks = [theorem4_check(*instance) for instance in instances]
    monkeypatch.setattr(discrete, "_CAMPAIGN_CHUNK", chunk)
    assert theorem4_campaign(300, 7) == (
        sum(ok for _, _, ok in checks),
        min(refined - grouped for grouped, refined, _ in checks),
    )
    # theorem4_check is a batch of one; a whole bucket gives the same floats.
    for (dist, alpha), members in buckets.items():
        grouped, refined, ok = discrete._theorem4_rows(
            _rows(instances[i][0] for i in members), dist, alpha
        )
        assert [checks[i] for i in members] == list(
            zip(grouped.tolist(), refined.tolist(), ok.tolist())
        )


def test_theorem4_rows_match_exact_rational_divergences():
    # Oracle: the order-2 divergence is log sum_y q(y)^2 / q'(y) over
    # exact rational selection outputs. Float error, mostly the
    # cancellation in pgf differences, stays far inside 1e-8 relative.
    instances = [
        instance for instance in _instances(7, 700) if instance[2] == 2.0
    ]
    dists = {dist for _, dist, _ in instances}
    assert len(instances) >= 200 and len(dists) == 3
    for dist in dists:
        pairs = [pair for pair, d, _ in instances if d == dist]
        grouped, refined, _ = discrete._theorem4_rows(_rows(pairs), dist, 2.0)
        for pair, got_grouped, got_refined in zip(pairs, grouped, refined):
            singletons = tuple((i,) for g in pair.score_partition for i in g)
            exact_grouped = _exact_power_sum(pair, pair.score_partition, dist, 2)
            exact_refined = _exact_power_sum(pair, singletons, dist, 2)
            assert exact_grouped <= exact_refined
            for got, exact in (
                (got_grouped, exact_grouped),
                (got_refined, exact_refined),
            ):
                want = math.log1p(float(exact - 1))
                assert got == pytest.approx(want, rel=1e-8, abs=1e-14)


def test_simulate_selection_matches_exact_distribution():
    pair = near_worst_case_pair(1e-3, 100.0, 1.0)
    dist = TNB(1.0, 1e-3)
    exact = selection_distribution(pair.p, pair.score_partition, dist).q
    emp = simulate_selection(
        pair.p, pair.score_partition, dist, 200_000, np.random.default_rng(11)
    )
    se = np.sqrt(exact * (1.0 - exact) / 200_000)
    assert np.all(np.abs(emp - exact) <= 4.0 * se)


def test_simulate_selection_matches_exact_on_tied_groups():
    p = np.array([0.2, 0.3, 0.5])
    partition = ((0, 1), (2,))
    exact = selection_distribution(p, partition, PointMass(3)).q
    emp = simulate_selection(
        p, partition, PointMass(3), 200_000, np.random.default_rng(12)
    )
    se = np.sqrt(exact * (1.0 - exact) / 200_000)
    assert np.all(np.abs(emp - exact) <= 4.0 * se)


def _selection_in_one_draw(p, partition, dist, trials, rng) -> np.ndarray:
    """simulate_selection with one rng.random((block, k)) per run count k."""
    group_of = np.empty(len(p), dtype=np.int64)
    for rank, group in enumerate(partition):
        group_of[list(group)] = rank
    ks = np.asarray(dist.sample(rng, trials))
    counts = np.zeros(len(p), dtype=np.int64)
    for k in np.unique(ks):
        block = int(np.sum(ks == k))
        symbols = np.searchsorted(
            np.cumsum(p), rng.random((block, int(k))), side="left"
        )
        top_group = np.max(group_of[symbols], axis=1)
        for rank, group in enumerate(partition):
            hits = int(np.sum(top_group == rank))
            if hits:
                chosen = rng.integers(0, len(group), size=hits)
                counts += np.bincount(
                    np.asarray(group)[chosen], minlength=len(p)
                )
    return counts / float(trials)


@pytest.mark.parametrize("dist", [PointMass(2500), TNB(1.0, 1e-3)])
def test_simulate_selection_splits_draws_on_the_same_stream(monkeypatch, dist):
    # With at most 1000 uniforms at a time, PointMass(2500) splits each
    # row's columns and TNB(1, 1e-3) both rows and columns; the stream and
    # the estimate stay those of one draw per run count.
    monkeypatch.setattr(discrete, "_SELECTION_DRAWS", 1000)
    p = np.array([0.999, 0.0006, 0.0004])
    partition = ((0,), (1, 2))
    got = simulate_selection(p, partition, dist, 500, np.random.default_rng(3))
    want = _selection_in_one_draw(
        p, partition, dist, 500, np.random.default_rng(3)
    )
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize(
    ("dist", "trials"), [(TNB(1.0, 1e-5), 100), (PointMass(3 * 2**20 + 5), 1)]
)
def test_simulate_selection_memory_is_bounded_in_the_run_count(dist, trials):
    # 2^20 uniforms and their indices at a time, 16 MB, where one row of a
    # (block, k) draw took 24 bytes a symbol (75 MB for the point mass).
    p = np.array([0.5, 0.3, 0.2])
    partition = ((0,), (1,), (2,))
    rng = np.random.default_rng(4)
    tracemalloc.start()
    try:
        simulate_selection(p, partition, dist, trials, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 18 * 2**20


def test_mechanism_pair_validation():
    good_p = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        FiniteMechanismPair(
            ("a", "b"), np.array([0.5, 0.6]), good_p, ((0,), (1,))
        )
    with pytest.raises(ValueError):
        FiniteMechanismPair(("a", "b"), good_p, good_p, ((0,),))
    with pytest.raises(ValueError):
        FiniteMechanismPair(("a", "b"), good_p, good_p, ((0, 0), (1,)))
    with pytest.raises(ValueError):
        SelectionOutput(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        SelectionOutput(np.array([1.5, -0.5]))


def test_near_worst_case_pair_rejects_impossible_shapes():
    with pytest.raises(ValueError):
        near_worst_case_pair(spread=0.9, ratio=100.0, epsilon=1.0)


_HALVES = np.array([0.5, 0.5])
_OUT = SelectionOutput(_HALVES)


@pytest.mark.parametrize(
    "call",
    [
        lambda: approx_dp_delta(_OUT, _OUT, math.nan),
        lambda: approx_dp_delta(_OUT, _OUT, math.inf),
        lambda: renyi_divergence(_OUT, _OUT, math.nan),
        lambda: renyi_divergence(_OUT, _OUT, math.inf),
        lambda: select_epsilon_rdp_pure(math.nan, TNB(1.0, 1e-3), 1e-5),
        lambda: select_epsilon_rdp_pure(math.inf, TNB(1.0, 1e-3), 1e-5),
        lambda: near_worst_case_pair(math.nan),
        lambda: near_worst_case_pair(1e-3, math.nan),
        lambda: near_worst_case_pair(1e-3, 100.0, math.nan),
        lambda: SelectionOutput(np.array([math.nan, 1.0])),
        lambda: SelectionOutput(np.array([math.inf, 0.0])),
        lambda: FiniteMechanismPair(
            ("a", "b"), np.array([math.nan, 1.0]), _HALVES, ((0,), (1,))
        ),
        lambda: FiniteMechanismPair(
            ("a", "b"), _HALVES, np.array([math.inf, 0.0]), ((0,), (1,))
        ),
    ],
    ids=[
        "delta-nan-eps",
        "delta-inf-eps",
        "renyi-nan-alpha",
        "renyi-inf-alpha",
        "rdp-pure-nan-eps",
        "rdp-pure-inf-eps",
        "pair-nan-spread",
        "pair-nan-ratio",
        "pair-nan-eps",
        "output-nan",
        "output-inf",
        "mechanism-nan-p",
        "mechanism-inf-p-prime",
    ],
)
def test_nan_and_infinite_arguments_are_rejected(call):
    with pytest.raises(ValueError):
        call()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_selection_distribution_is_a_distribution(seed, k):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 7))
    p = rng.dirichlet(np.ones(size))
    order = list(rng.permutation(size))
    split = sorted(rng.choice(size - 1, size=rng.integers(0, size - 1),
                              replace=False) + 1)
    bounds = [0, *split, size]
    partition = tuple(
        tuple(order[a:b]) for a, b in zip(bounds, bounds[1:])
    )
    out = selection_distribution(p, partition, PointMass(k))
    assert np.all(out.q >= 0.0)
    assert float(np.sum(out.q)) == pytest.approx(1.0, abs=1e-10)
