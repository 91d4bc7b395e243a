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
from collections.abc import Iterator

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
# Instances per kernel call in theorem4_campaign, per (run count, order)
# bucket: at most nine partial chunks are held at once, at any instance
# count, and a call stacks four rows per instance, at most 1024 rows.
_CAMPAIGN_CHUNK = 256
_CAMPAIGN_RUN_COUNTS: tuple[RunCountDist, ...] = (
    PointMass(2),
    PointMass(5),
    TruncatedNegativeBinomial(1.0, 0.1),
)
_CAMPAIGN_ORDERS = (1.5, 2.0, 8.0)
# Symbol uniforms simulate_selection draws at once (16 MB with their
# indices), whatever the run count.
_SELECTION_DRAWS = 1 << 20


def _check_sums(rows: np.ndarray, name: str, tol: float) -> None:
    """Raises ValueError unless every row of a 2-D array sums to 1 within tol."""
    sums = rows.sum(axis=1)
    # NaN and infinite entries fail too.
    bad = ~(np.abs(sums - 1.0) <= tol)
    if np.any(bad):
        raise ValueError(f"{name} must sum to 1 within {tol}, got {sums[bad][0]}")


def _check_probability_rows(rows: np.ndarray, name: str, tol: float) -> None:
    """Raises ValueError unless each row is nonnegative and sums to 1 within tol."""
    # NaN fails both checks; an infinite entry fails the sum.
    if not np.all(rows >= 0.0):
        raise ValueError(f"{name} must be nonnegative")
    _check_sums(rows, name, tol)


def _validate_probability_vector(p: np.ndarray, name: str, size: int) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {arr.shape}")
    _check_probability_rows(arr[None], name, _SUM_TOL)
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
      q: probability vector over the alphabet: nonnegative, and sums to
        1 within 1e-10.
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.q, dtype=float)
        _check_probability_rows(arr[None], "selection output", _OUTPUT_SUM_TOL)
        object.__setattr__(self, "q", arr)


def _score_columns(
    partition: tuple[tuple[int, ...], ...]
) -> tuple[list[int], list[int]]:
    """Symbol indices in increasing score, and the group rank of each."""
    order = [i for group in partition for i in group]
    ranks = [rank for rank, group in enumerate(partition) for _ in group]
    return order, ranks


def _selection_rows(
    probs: np.ndarray, labels: np.ndarray, dist: RunCountDist
) -> np.ndarray:
    """Selection probabilities of each row of symbols listed in score order.

    Row r holds one side's outcome probabilities in increasing score, and
    labels[r] the nondecreasing group rank of each column; a zero-mass
    padding column is a group of its own. Group masses and their
    cumulative sums c_j give group j the pgf increment S(c_j) - S(c_{j-1}),
    shared evenly by its symbols.
    """
    rows = np.arange(probs.shape[0])[:, None]
    mass = np.zeros(probs.shape)
    size = np.zeros(probs.shape)
    np.add.at(mass, (rows, labels), probs)
    np.add.at(size, (rows, labels), 1.0)
    pgf = dist.pgf(np.minimum(np.cumsum(mass, axis=1), 1.0))
    increment = np.diff(pgf, axis=1, prepend=0.0)
    q = np.take_along_axis(increment, labels, 1) / np.take_along_axis(
        size, labels, 1
    )
    _check_sums(q, "selection output", _OUTPUT_SUM_TOL)
    return q


def _renyi_rows(q: np.ndarray, q_prime: np.ndarray, alpha: float) -> np.ndarray:
    """Order-alpha Renyi divergence of each row pair, by log-sum-exp."""
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 1, got {alpha}")
    mask = q > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_terms = np.where(
            mask, alpha * np.log(q) - (alpha - 1.0) * np.log(q_prime), -np.inf
        )
        peak = np.max(log_terms, axis=1, keepdims=True)
        # A cumulative sum adds in column order whatever the row count,
        # where np.sum's order depends on the array's shape.
        scaled = np.cumsum(np.exp(log_terms - peak), axis=1)[:, -1]
        total = peak[:, 0] + np.log(scaled)
    divergence = np.maximum(total / (alpha - 1.0), 0.0)
    return np.where(np.any(mask & (q_prime <= 0.0), axis=1), np.inf, divergence)


def _theorem4_rows(
    draws: list[tuple[np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]],
    dist: RunCountDist,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grouped and refined divergences of (p, p_prime, partition) instances.

    Stacks the instances as rows in score order, zero-padded to the
    widest, and returns the grouped divergences, the refined ones and
    whether each passes theorem4_check's comparison.
    """
    width = max(len(p) for p, _, _ in draws)
    p = np.zeros((len(draws), width))
    p_prime = np.zeros((len(draws), width))
    grouped = np.tile(np.arange(width), (len(draws), 1))
    for row, (p_row, p_prime_row, partition) in enumerate(draws):
        order, ranks = _score_columns(partition)
        p[row, : len(order)] = p_row[order]
        p_prime[row, : len(order)] = p_prime_row[order]
        grouped[row, : len(order)] = ranks
    _check_probability_rows(p, "p", _SUM_TOL)
    _check_probability_rows(p_prime, "p_prime", _SUM_TOL)
    refined = np.broadcast_to(np.arange(width), p.shape)
    # Every kernel step works row by row, so each of the stacked rows
    # gets the bits a call of its own would give.
    q = _selection_rows(
        np.concatenate([p, p, p_prime, p_prime]),
        np.concatenate([grouped, refined] * 2),
        dist,
    )
    d_grouped, d_refined = np.split(_renyi_rows(*np.split(q, 2), alpha), 2)
    slack = _THEOREM_SLACK + _THEOREM_REL_SLACK * d_refined
    return d_grouped, d_refined, d_grouped <= d_refined + slack


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
    order, ranks = _score_columns(groups)
    q = np.empty_like(arr)
    q[order] = _selection_rows(arr[order][None], np.array([ranks]), dist)[0]
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
    return float(_renyi_rows(q.q[None], q_prime.q[None], alpha)[0])


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
    grouped, refined, ok = _theorem4_rows(
        [(pair.p, pair.p_prime, pair.score_partition)], dist, alpha
    )
    return float(grouped[0]), float(refined[0]), bool(ok[0])


def _dirichlet(rng: np.random.Generator, shape: float, size: int) -> np.ndarray:
    """rng.dirichlet(np.full(size, shape)) for shape >= 0.1, bit for bit.

    numpy draws that case as size standard gamma variates, in order, and
    scales them by 1 / (their sum taken left to right); drawn here the
    same way in one call, it takes the stream's same values.
    """
    gammas = rng.standard_gamma(shape, size)
    total = 0.0
    for value in gammas.tolist():
        total += value
    return gammas * (1.0 / total)


def _draw_instance(
    seed_seq: np.random.SeedSequence,
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, ...], ...], RunCountDist, float]:
    """Draws one randomized check instance with at least one tied group.

    Returns (p, p_prime, score partition, run-count distribution, order).
    """
    rng = np.random.default_rng(seed_seq)
    size = int(rng.integers(3, 9))
    p = _dirichlet(rng, rng.uniform(0.3, 3.0), size)
    p_prime = _dirichlet(rng, rng.uniform(0.3, 3.0), size)
    order = rng.permutation(size).tolist()
    groups: list[tuple[int, ...]] = []
    at = 0
    while at < size:
        width = int(rng.integers(1, size - at + 1))
        groups.append(tuple(order[at : at + width]))
        at += width
    if all(len(g) == 1 for g in groups):
        merged = tuple(groups[0] + groups[1])
        groups = [merged] + groups[2:]
    dist = _CAMPAIGN_RUN_COUNTS[int(rng.integers(len(_CAMPAIGN_RUN_COUNTS)))]
    alpha = _CAMPAIGN_ORDERS[int(rng.integers(len(_CAMPAIGN_ORDERS)))]
    return p, p_prime, tuple(groups), dist, alpha


def _random_instance(
    seed_seq: np.random.SeedSequence,
) -> tuple[FiniteMechanismPair, RunCountDist, float]:
    """The instance of _draw_instance as theorem4_check's arguments."""
    p, p_prime, partition, dist, alpha = _draw_instance(seed_seq)
    pair = FiniteMechanismPair(
        alphabet=tuple(f"s{i}" for i in range(len(p))),
        p=p,
        p_prime=p_prime,
        score_partition=partition,
    )
    return pair, dist, alpha


def _campaign_chunks(
    instances: int, seed: int
) -> Iterator[tuple[list, RunCountDist, float]]:
    """Yields (instances, run count, order) batches of the campaign.

    Instance i comes from SeedSequence([seed, i]). Instances sharing a run
    count and an order are yielded together, _CAMPAIGN_CHUNK at a time.
    """
    pending: dict[tuple[RunCountDist, float], list] = {}
    for i in range(instances):
        *draw, dist, alpha = _draw_instance(np.random.SeedSequence([seed, i]))
        bucket = pending.setdefault((dist, alpha), [])
        bucket.append(tuple(draw))
        if len(bucket) == _CAMPAIGN_CHUNK:
            yield pending.pop((dist, alpha)), dist, alpha
    for (dist, alpha), draws in pending.items():
        yield draws, dist, alpha


def theorem4_campaign(instances: int, seed: int) -> tuple[int, float]:
    """Runs the tied-vs-refined divergence check on random instances.

    Each instance draws random probability vectors, a random score
    partition containing at least one tied group, a random run-count
    distribution, and a random Renyi order, from its own seed
    SeedSequence([seed, index]). Instances are evaluated in batches that
    share a run count and an order; each instance's result is that of
    theorem4_check on it, whatever the batch.

    Args:
      instances: number of randomized instances.
      seed: base seed for the instance stream, in [0, 2^64).

    Returns:
      (number of instances passing the inequality, worst signed margin
      refined - grouped over all instances).
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    passes, worst = 0, math.inf
    for draws, dist, alpha in _campaign_chunks(instances, seed):
        grouped, refined, ok = _theorem4_rows(draws, dist, alpha)
        passes += int(np.sum(ok))
        worst = min(worst, float(np.min(refined - grouped)))
    return passes, worst


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


def _top_groups(
    draw_cdf: np.ndarray,
    group_of: np.ndarray,
    rows: int,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The top group among k symbol draws, for each of rows trials.

    The uniforms are those of one rng.random((rows, k)), drawn in row-major
    order at most _SELECTION_DRAWS at a time: whole rows, or one row's
    columns under a running maximum.
    """
    top = np.empty(rows, dtype=np.int64)
    step = max(1, _SELECTION_DRAWS // k)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        best = np.full(hi - lo, -1, dtype=np.int64)
        for col in range(0, k, _SELECTION_DRAWS):
            width = min(_SELECTION_DRAWS, k - col)
            # One expression, so no slice's arrays outlive it.
            np.maximum(
                best,
                group_of[
                    np.searchsorted(
                        draw_cdf, rng.random((hi - lo, width)), side="left"
                    )
                ].max(axis=1),
                out=best,
            )
        top[lo:hi] = best
    return top


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
    break is vacuous and this is exactly the best-of-k protocol. It
    costs trials x E[K] symbol draws, so a run count with a large mean
    is slow here even though its own draws are cheap.

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
    for k in np.unique(ks).tolist():
        block = int(np.sum(ks == k))
        top_group = _top_groups(draw_cdf, group_of, block, k, rng)
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
