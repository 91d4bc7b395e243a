"""Exact selection computations over finite-alphabet mechanism pairs.

Given two probability vectors on a shared finite alphabet and a score
ordering (a partition into score-tied groups, listed in increasing
score), this module computes the exact distribution of the best-of-k
selected symbol, pure and approximate DP levels of discrete pairs, Renyi
divergences, a near-worst-case construction showing the selection
privacy cost is almost attained, and the check that merging score-tied
symbols never increases the selection Renyi divergence.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .runcount import PointMass, RunCountDist, TruncatedNegativeBinomial

__all__ = [
    "FiniteMechanismPair",
    "SelectionOutput",
    "selection_distribution",
    "pure_dp_epsilon",
    "approx_dp_delta",
    "approx_dp_epsilon",
    "renyi_divergence",
    "theorem4_check",
    "theorem4_campaign",
    "near_worst_case_pair",
    "simulate_selection",
]

_SUM_TOL = 1e-12
_OUTPUT_SUM_TOL = 1e-10
# Float error in a divergence grows with its size (a small selection
# probability is a difference of pgf values near 1). Against exact
# rational sums on 9e4 random order-8 instances, the float margin
# d_refined - d_grouped fell short of the exact one by <= 8.8e-8 d_refined.
_THEOREM_SLACK = 1e-12
_THEOREM_REL_SLACK = 1e-6


def _validate_probability_vector(p: np.ndarray, name: str, size: int) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {arr.shape}")
    # NaN fails both checks; an infinite entry fails the sum.
    if not np.all(arr >= 0.0):
        raise ValueError(f"{name} must be nonnegative")
    if not abs(float(arr.sum()) - 1.0) <= _SUM_TOL:
        raise ValueError(f"{name} must sum to 1 within {_SUM_TOL}, got {arr.sum()}")
    return arr


def _validate_partition(
    partition: tuple[tuple[int, ...], ...], size: int
) -> tuple[tuple[int, ...], ...]:
    groups = tuple(tuple(int(i) for i in g) for g in partition)
    seen = [i for g in groups for i in g]
    if sorted(seen) != list(range(size)):
        raise ValueError(
            f"score_partition must cover symbol indices 0..{size - 1} exactly "
            f"once, got {partition!r}"
        )
    if any(len(g) == 0 for g in groups):
        raise ValueError("score_partition groups must be nonempty")
    return groups


@dataclasses.dataclass(frozen=True)
class FiniteMechanismPair:
    """Two mechanisms on a shared finite alphabet with a score ordering.

    Attributes:
      alphabet: symbol labels, one per outcome.
      p: outcome probabilities of the first mechanism.
      p_prime: outcome probabilities of the second mechanism.
      score_partition: disjoint groups of alphabet indices; symbols in a
        group share a score, groups are listed in increasing score.
    """

    alphabet: tuple[str, ...]
    p: np.ndarray
    p_prime: np.ndarray
    score_partition: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        alphabet = tuple(self.alphabet)
        object.__setattr__(self, "alphabet", alphabet)
        size = len(alphabet)
        object.__setattr__(
            self, "p", _validate_probability_vector(self.p, "p", size)
        )
        object.__setattr__(
            self,
            "p_prime",
            _validate_probability_vector(self.p_prime, "p_prime", size),
        )
        object.__setattr__(
            self,
            "score_partition",
            _validate_partition(self.score_partition, size),
        )


@dataclasses.dataclass(frozen=True)
class SelectionOutput:
    """Distribution of the selected symbol under best-of-k selection.

    Attributes:
      q: probability vector over the alphabet; sums to 1 within 1e-10.
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.q, dtype=float)
        if not abs(float(arr.sum()) - 1.0) <= _OUTPUT_SUM_TOL:
            raise ValueError(
                f"selection output must sum to 1 within {_OUTPUT_SUM_TOL}, "
                f"got {arr.sum()}"
            )
        object.__setattr__(self, "q", arr)


def selection_distribution(
    p: np.ndarray,
    partition: tuple[tuple[int, ...], ...],
    dist: RunCountDist,
) -> SelectionOutput:
    """Exact distribution of the highest-scoring symbol over k runs.

    The probability that the top score group is j over k draws is
    c_j^k - c_{j-1}^k, where c_j is the cumulative mass of groups up to
    j; averaging over the run count turns the powers into the pgf S.
    Each group's probability is shared uniformly by the symbols tied at
    that score, so q(y) = (S(c_j) - S(c_{j-1})) / |group j|.

    Args:
      p: outcome probabilities of one mechanism side.
      partition: score groups of alphabet indices in increasing score.
      dist: run-count distribution.

    Returns:
      A SelectionOutput over the same alphabet indexing.
    """
    arr = _validate_probability_vector(p, "p", int(np.asarray(p).shape[0]))
    groups = _validate_partition(tuple(partition), arr.shape[0])
    q = np.zeros_like(arr)
    cumulative = 0.0
    pgf_prev = 0.0
    for group in groups:
        cumulative += float(arr[list(group)].sum())
        pgf_here = float(dist.pgf(min(cumulative, 1.0)))
        q[list(group)] = (pgf_here - pgf_prev) / len(group)
        pgf_prev = pgf_here
    return SelectionOutput(q=q)


def pure_dp_epsilon(q: SelectionOutput, q_prime: SelectionOutput) -> float:
    """Largest absolute log probability ratio between two selection outputs.

    Returns infinity when exactly one side puts mass on some symbol.
    """
    a, b = q.q, q_prime.q
    support_a, support_b = a > 0.0, b > 0.0
    if np.any(support_a != support_b):
        return math.inf
    if not np.any(support_a):
        return 0.0
    ratios = np.log(a[support_a]) - np.log(b[support_a])
    return float(np.max(np.abs(ratios)))


def approx_dp_delta(
    q: SelectionOutput, q_prime: SelectionOutput, epsilon: float
) -> float:
    """Smallest delta making two outputs (epsilon, delta)-indistinguishable.

    Evaluates the hockey-stick divergence sum_y max(0, q(y) - e^eps q'(y))
    in both orderings and returns the larger value.

    Args:
      q: first selection output.
      q_prime: second selection output.
      epsilon: privacy parameter, nonnegative.

    Returns:
      The required delta, a value in [0, 1].
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    a, b = q.q, q_prime.q
    scale = math.exp(epsilon)
    forward = float(np.sum(np.maximum(0.0, a - scale * b)))
    backward = float(np.sum(np.maximum(0.0, b - scale * a)))
    return max(forward, backward)


def approx_dp_epsilon(
    q: SelectionOutput, q_prime: SelectionOutput, delta: float
) -> float:
    """Smallest epsilon making two outputs (epsilon, delta)-indistinguishable.

    The exact inverse of approx_dp_delta in epsilon. For each epsilon the
    hockey-stick sum of one ordering is largest over the symbols whose
    likelihood ratio q/q' exceeds e^epsilon, a prefix S of the symbols
    sorted by decreasing ratio, so that ordering needs
    max(0, max over prefixes S of log((q(S) - delta) / q'(S))). The result
    is the larger of the two orderings' values.

    Args:
      q: first selection output.
      q_prime: second selection output.
      delta: additive slack in [0, 1].

    Returns:
      The epsilon value; infinite when, in either ordering, some prefix
      has q'(S) = 0 but q(S) > delta.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    eps = 0.0
    for a, b in ((q.q, q_prime.q), (q_prime.q, q.q)):
        with np.errstate(divide="ignore", invalid="ignore"):
            order = np.argsort(-(a / b))  # ratio +inf first, 0/0 (nan) last
            excess = np.cumsum(a[order]) - delta
            mass = np.cumsum(b[order])
            if np.any((mass == 0.0) & (excess > 0.0)):
                return math.inf
            logs = np.log(excess[excess > 0.0] / mass[excess > 0.0])
        eps = max(eps, float(np.max(logs, initial=0.0)))
    return eps


def renyi_divergence(
    q: SelectionOutput, q_prime: SelectionOutput, alpha: float
) -> float:
    """Order-alpha Renyi divergence between two selection outputs.

    Args:
      q: first selection output.
      q_prime: second selection output.
      alpha: Renyi order, greater than 1.

    Returns:
      A nonnegative value; infinity when q puts mass where q_prime has
      none.
    """
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 1, got {alpha}")
    a, b = q.q, q_prime.q
    mask = a > 0.0
    if np.any(mask & (b <= 0.0)):
        return math.inf
    log_terms = alpha * np.log(a[mask]) - (alpha - 1.0) * np.log(b[mask])
    peak = float(np.max(log_terms))
    total = peak + math.log(float(np.sum(np.exp(log_terms - peak))))
    return max(0.0, total / (alpha - 1.0))


def theorem4_check(
    pair: FiniteMechanismPair, dist: RunCountDist, alpha: float
) -> tuple[float, float, bool]:
    """Compares selection divergence under tied scores and their refinement.

    Computes the Renyi divergence of the selection outputs under the
    pair's score partition, and again under the strict refinement that
    breaks every group into singletons in listed order. Merging symbols
    into score ties must not increase the divergence; the comparison
    allows float error of 1e-6 relative to the refined divergence plus
    1e-12.

    Args:
      pair: mechanism pair with a score partition.
      dist: run-count distribution.
      alpha: Renyi order, greater than 1.

    Returns:
      (grouped divergence, refined divergence, grouped <= refined).
    """
    refined = tuple((i,) for g in pair.score_partition for i in g)
    grouped_q = selection_distribution(pair.p, pair.score_partition, dist)
    grouped_qp = selection_distribution(pair.p_prime, pair.score_partition, dist)
    refined_q = selection_distribution(pair.p, refined, dist)
    refined_qp = selection_distribution(pair.p_prime, refined, dist)
    d_grouped = renyi_divergence(grouped_q, grouped_qp, alpha)
    d_refined = renyi_divergence(refined_q, refined_qp, alpha)
    slack = _THEOREM_SLACK + _THEOREM_REL_SLACK * d_refined
    return d_grouped, d_refined, d_grouped <= d_refined + slack


def _random_instance(
    seed_seq: np.random.SeedSequence,
) -> tuple[FiniteMechanismPair, RunCountDist, float]:
    """Draws one randomized check instance with at least one tied group."""
    rng = np.random.default_rng(seed_seq)
    size = int(rng.integers(3, 9))
    p = rng.dirichlet(np.full(size, rng.uniform(0.3, 3.0)))
    p_prime = rng.dirichlet(np.full(size, rng.uniform(0.3, 3.0)))
    order = [int(i) for i in rng.permutation(size)]
    groups: list[tuple[int, ...]] = []
    at = 0
    while at < size:
        width = int(rng.integers(1, size - at + 1))
        groups.append(tuple(order[at : at + width]))
        at += width
    if all(len(g) == 1 for g in groups):
        merged = tuple(groups[0] + groups[1])
        groups = [merged] + groups[2:]
    pair = FiniteMechanismPair(
        alphabet=tuple(f"s{i}" for i in range(size)),
        p=p,
        p_prime=p_prime,
        score_partition=tuple(groups),
    )
    dists: list[RunCountDist] = [
        PointMass(2),
        PointMass(5),
        TruncatedNegativeBinomial(1.0, 0.1),
    ]
    dist = dists[int(rng.integers(len(dists)))]
    alpha = [1.5, 2.0, 8.0][int(rng.integers(3))]
    return pair, dist, alpha


def theorem4_campaign(instances: int, seed: int) -> tuple[int, float]:
    """Runs the tied-vs-refined divergence check on random instances.

    Each instance draws random probability vectors, a random score
    partition containing at least one tied group, a random run-count
    distribution, and a random Renyi order, from its own seed
    SeedSequence([seed, index]).

    Args:
      instances: number of randomized instances.
      seed: base seed for the instance stream.

    Returns:
      (number of instances passing the inequality, worst signed margin
      refined - grouped over all instances).
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    checks = [
        theorem4_check(*_random_instance(np.random.SeedSequence([seed, i])))
        for i in range(instances)
    ]
    passes = sum(1 for _, _, ok in checks if ok)
    worst = min(refined - grouped for grouped, refined, _ in checks)
    return passes, float(worst)


def near_worst_case_pair(
    spread: float = 1e-3, ratio: float = 100.0, epsilon: float = 1.0
) -> FiniteMechanismPair:
    """Three-symbol pure-DP pair whose selection nearly attains the bound.

    The two mechanisms are (epsilon, 0)-DP by construction:
    P  = (1 - b e - d b,  b e,  d b) and
    P' = (1 - b - d b e,  b,    d b e) with b = spread, d = ratio,
    e = e^epsilon, scored in increasing order A < B < C. Selecting the
    best of a long random run sequence amplifies the log ratio at the
    middle symbol close to the generic selection limit.

    Args:
      spread: small base mass b.
      ratio: mass multiplier d for the top symbol.
      epsilon: pure-DP parameter of the base pair.

    Returns:
      The mechanism pair, scored with strict ordering A < B < C.
    """
    if not (spread > 0.0 and ratio > 0.0 and epsilon > 0.0):
        raise ValueError(
            "spread, ratio, and epsilon must be positive, got "
            f"({spread}, {ratio}, {epsilon})"
        )
    scale = math.exp(epsilon)
    p = np.array(
        [1.0 - spread * scale - ratio * spread, spread * scale, ratio * spread]
    )
    p_prime = np.array(
        [1.0 - spread - ratio * spread * scale, spread, ratio * spread * scale]
    )
    if np.any(p < 0.0) or np.any(p_prime < 0.0):
        raise ValueError(
            "parameters leave no mass for the bottom symbol: "
            f"({spread}, {ratio}, {epsilon})"
        )
    return FiniteMechanismPair(
        alphabet=("A", "B", "C"),
        p=p,
        p_prime=p_prime,
        score_partition=((0,), (1,), (2,)),
    )


def simulate_selection(
    p: np.ndarray,
    partition: tuple[tuple[int, ...], ...],
    dist: RunCountDist,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo estimate of the selection distribution.

    Simulates the protocol directly: draw a run count, draw that many
    symbols, keep the highest-scoring group among the draws, and pick
    uniformly among the group's symbols. On strict partitions the tie
    break is vacuous and this is exactly the best-of-k protocol.

    Args:
      p: outcome probabilities of one mechanism side.
      partition: score groups of alphabet indices in increasing score.
      dist: run-count distribution.
      trials: number of simulated protocol executions.
      rng: source of randomness.

    Returns:
      Empirical selection frequencies over the alphabet.
    """
    arr = _validate_probability_vector(p, "p", int(np.asarray(p).shape[0]))
    groups = _validate_partition(tuple(partition), arr.shape[0])
    group_of = np.empty(arr.shape[0], dtype=np.int64)
    for rank, group in enumerate(groups):
        group_of[list(group)] = rank
    ks = np.asarray(dist.sample(rng, trials))
    counts = np.zeros(arr.shape[0], dtype=np.int64)
    draw_cdf = np.cumsum(arr)
    for k in np.unique(ks):
        block = int(np.sum(ks == k))
        symbols = np.searchsorted(
            draw_cdf, rng.random((block, int(k))), side="left"
        )
        top_group = np.max(group_of[symbols], axis=1)
        for rank, group in enumerate(groups):
            hits = int(np.sum(top_group == rank))
            if hits == 0:
                continue
            chosen = rng.integers(0, len(group), size=hits)
            counts += np.bincount(
                np.asarray(group, dtype=np.int64)[chosen],
                minlength=arr.shape[0],
            )
    return counts / float(trials)
