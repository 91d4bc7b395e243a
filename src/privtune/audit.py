"""Monte Carlo lower bounds on the tuning protocol's privacy level.

Simulates the univariate Gaussian distinguishing game that best-of-many
selection over a noisy-gradient mechanism reduces to: each trial flips a
fair truth bit, draws a run count, draws that many unit-variance scores
whose means encode the truth bit, and reports the maximum. Thresholding
the maxima gives false-positive and false-negative rates; upper
confidence limits on those rates convert into a lower confidence bound
on the privacy parameter that any valid guarantee must exceed.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent import futures

import numpy as np

from .runcount import RunCountDist
from .tradeoff import DpSgdConfig

__all__ = [
    "GameConfig",
    "ThresholdSweep",
    "THREADS_ENV_VAR",
    "thread_count",
    "simulate_game",
    "clopper_pearson_upper",
    "eps_lower_bound",
    "sweep_thresholds",
    "run_audit",
]

THREADS_ENV_VAR = "PRIVTUNE_THREADS"
_BLOCK_SIZE = 1 << 20
_N_BULK_LEVELS = 256
_N_TAIL_LEVELS = 256
_TAIL_FLOOR = 1e-5


@dataclasses.dataclass(frozen=True)
class GameConfig:
    """Parameters of one distinguishing-game experiment.

    Attributes:
      config: noise multiplier, sampling rate, and iteration count of
        the base mechanism.
      dist: run-count distribution of the tuning protocol.
      trials: number of simulated games.
      seed: base seed of the reproducible random stream.
      confidence: two-sided confidence level for the error-rate bounds.
      delta: additive slack of the privacy guarantee being tested.
    """

    config: DpSgdConfig
    dist: RunCountDist
    trials: int = 10**7
    seed: int = 0
    confidence: float = 0.95
    delta: float = 1e-5

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(
                f"seed must be a 64-bit unsigned integer, got {self.seed}"
            )


def thread_count() -> int:
    """Worker count: the PRIVTUNE_THREADS env var, else all logical cores."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is not None:
        try:
            count = int(raw)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(
                f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}"
            )
        return count
    return os.cpu_count() or 1


def _simulate_block(
    cfg: GameConfig,
    block: int,
    truth_out: np.ndarray,
    score_out: np.ndarray,
) -> None:
    """Fills one fixed-size block of trials from its own keyed stream."""
    lo = block * _BLOCK_SIZE
    hi = min(lo + _BLOCK_SIZE, cfg.trials)
    size = hi - lo
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, block]))
    truth = rng.integers(0, 2, size=size)
    counts = cfg.dist.sample(rng, size)
    mech = cfg.config
    shift = math.sqrt(mech.n_iters) / mech.sigma
    if mech.tau == 1.0:
        from scipy import special  # loaded by simulate_game

        uniform = rng.random(size)
        with np.errstate(divide="ignore"):
            top = special.ndtri(np.exp(np.log(uniform) / counts))
        scores = top + shift * truth
    else:
        scores = np.empty(size)
        for k in np.unique(counts):
            rows = np.nonzero(counts == k)[0]
            normals = rng.standard_normal((rows.size, int(k)))
            fractions = rng.binomial(
                mech.n_iters, mech.tau, size=(rows.size, int(k))
            ) / float(mech.n_iters)
            means = fractions * shift * truth[rows, None]
            scores[rows] = np.max(normals + means, axis=1)
    truth_out[lo:hi] = truth
    score_out[lo:hi] = scores


def simulate_game(cfg: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Runs the distinguishing game for every trial.

    Each trial flips a fair truth bit and draws a run count k. Run
    scores are unit-variance Gaussians: mean zero when the truth bit is
    0, and mean (Binomial(N, tau) / N) * sqrt(N) / sigma, drawn
    independently per run, when it is 1. At tau = 1 the mean is exactly
    sqrt(N) / sigma, and the maximum of the k standard draws is sampled
    in closed form through the quantile function.

    Trials are partitioned into fixed-size blocks, each driven by a
    stream keyed by (seed, block index), so results are bit-identical
    for any degree of parallelism.

    Args:
      cfg: game parameters.

    Returns:
      (truth bits as bool, maximum scores), each an array of length
      trials.
    """
    # scipy.special is loaded here, on the calling thread, before the
    # arrays and the pool. Loaded by the two workers instead, a 1e7-trial
    # audit's peak RSS had a median of 396.6 MB against 394.9 MB, and
    # spread further (8 runs each). The bound commands never load it.
    import scipy.special  # noqa: F401

    # One byte a trial; the blocks still draw int64 bits, so the random
    # stream is unchanged.
    truth = np.empty(cfg.trials, dtype=bool)
    scores = np.empty(cfg.trials, dtype=float)
    blocks = range((cfg.trials + _BLOCK_SIZE - 1) // _BLOCK_SIZE)
    workers = min(thread_count(), len(blocks))
    # A one-worker pool adds 3.5 MB (5%) to a one-block audit's peak RSS.
    if workers > 1:
        with futures.ThreadPoolExecutor(max_workers=workers) as pool:
            jobs = [
                pool.submit(_simulate_block, cfg, b, truth, scores)
                for b in blocks
            ]
            for job in jobs:
                job.result()
    else:
        for b in blocks:
            _simulate_block(cfg, b, truth, scores)
    return truth, scores


def clopper_pearson_upper(
    successes: np.ndarray | int, trials: int, confidence: float
) -> np.ndarray | float:
    """One-sided upper confidence limits for a binomial proportion.

    Args:
      successes: observed success count, or an array of them.
      trials: number of draws, at least every success count.
      confidence: one-sided confidence level in (0, 1).

    Returns:
      The exact upper limit, the confidence quantile of
      Beta(successes + 1, trials - successes), for each count; 1.0 where
      every draw succeeded. A float for a scalar count, else an array of
      its shape.
    """
    counts = np.asarray(successes)
    if not np.all((counts >= 0) & (counts <= trials)):
        raise ValueError(
            f"need 0 <= successes <= trials, got ({successes}, {trials})"
        )
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    from scipy import special

    upper = np.where(
        counts == trials,
        1.0,
        special.betaincinv(
            counts + 1, np.maximum(trials - counts, 1), confidence
        ),
    )
    return float(upper) if np.ndim(successes) == 0 else upper


def eps_lower_bound(
    fp_upper: np.ndarray | float, fn_upper: np.ndarray | float, delta: float
) -> np.ndarray | float:
    """Privacy lower bound implied by bounded error rates.

    Evaluates max(log((1 - delta - FP) / FN),
    log((1 - delta - FN) / FP), 0) at the confidence-upper-bounded
    false-positive and false-negative rates; a term whose numerator is
    not positive counts as 0.

    Args:
      fp_upper: upper confidence limit(s) on the false-positive rate.
      fn_upper: upper confidence limit(s) on the false-negative rate.
      delta: additive slack of the guarantee being tested.

    Returns:
      A nonnegative bound per pair of rates, broadcast over the inputs;
      a float when both rates are scalars. Infinite only if an error
      rate is exactly 0 while the opposing numerator is positive.
    """
    fp = np.asarray(fp_upper, dtype=float)
    fn = np.asarray(fn_upper, dtype=float)
    for name, value in (("fp_upper", fp), ("fn_upper", fn), ("delta", delta)):
        if not np.all((value >= 0.0) & (value <= 1.0)):
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        first = np.log(np.maximum(1.0 - delta - fp, 0.0) / fn)
        second = np.log(np.maximum(1.0 - delta - fn, 0.0) / fp)
    # fmax skips the NaN of a 0/0 term, whose numerator is not positive.
    eps = np.fmax(np.fmax(first, second), 0.0)
    if np.ndim(fp_upper) == 0 and np.ndim(fn_upper) == 0:
        return float(eps)
    return eps


@dataclasses.dataclass(frozen=True)
class ThresholdSweep:
    """Per-threshold confusion summary of one simulated experiment.

    Attributes:
      thresholds: deduplicated candidate thresholds, increasing.
      fp_counts: truth-0 trials scoring above each threshold.
      fn_counts: truth-1 trials scoring at or below each threshold.
      fp_upper: Clopper-Pearson upper limits on the false-positive rate.
      fn_upper: Clopper-Pearson upper limits on the false-negative rate.
      eps_lower: implied lower bound at each threshold.
      n_null: number of truth-0 trials.
      n_alternative: number of truth-1 trials.
    """

    thresholds: np.ndarray
    fp_counts: np.ndarray
    fn_counts: np.ndarray
    fp_upper: np.ndarray
    fn_upper: np.ndarray
    eps_lower: np.ndarray
    n_null: int
    n_alternative: int

    @property
    def best(self) -> int:
        """Row of the concluded bound: the largest eps_lower, first on a tie."""
        return int(np.argmax(self.eps_lower))


def sweep_thresholds(
    truth: np.ndarray,
    scores: np.ndarray,
    confidence: float,
    delta: float,
) -> ThresholdSweep:
    """Evaluates the lower bound over a fixed grid of score thresholds.

    Candidate thresholds are 512 empirical quantiles of the pooled
    max-score sample: 256 uniform levels covering the bulk plus 256
    log-spaced levels resolving the upper tail, where the
    bound-maximizing threshold of a max-score game sits. A trial
    guesses truth 1 when its score exceeds the threshold.
    False-positive and false-negative counts at each threshold receive
    one-sided Clopper-Pearson upper limits at the level matching the
    given two-sided confidence.

    Args:
      truth: truth bits of the simulated trials.
      scores: max scores of the simulated trials.
      confidence: two-sided confidence level for the rate bounds.
      delta: additive slack of the guarantee being tested.

    Returns:
      The per-threshold summary.
    """
    levels = np.sort(
        np.concatenate(
            [
                np.arange(1, _N_BULK_LEVELS + 1) / (_N_BULK_LEVELS + 1),
                1.0
                - np.geomspace(
                    1.0 / (_N_BULK_LEVELS + 1), _TAIL_FLOOR, _N_TAIL_LEVELS
                ),
            ]
        )
    )
    # The quantiles' copy of the scores is freed before the sorted classes
    # exist, which keeps the sweep's peak at 1.5 times the scores.
    thresholds = np.unique(np.quantile(scores, levels))
    s0 = np.sort(scores[truth == 0])
    s1 = np.sort(scores[truth == 1])
    n0, n1 = s0.size, s1.size
    fp_cnt = n0 - np.searchsorted(s0, thresholds, side="right")
    fn_cnt = np.searchsorted(s1, thresholds, side="right")
    side = 1.0 - (1.0 - confidence) / 2.0
    fp_up = clopper_pearson_upper(fp_cnt, n0, side)
    fn_up = clopper_pearson_upper(fn_cnt, n1, side)
    return ThresholdSweep(
        thresholds=thresholds,
        fp_counts=fp_cnt,
        fn_counts=fn_cnt,
        fp_upper=fp_up,
        fn_upper=fn_up,
        eps_lower=eps_lower_bound(fp_up, fn_up, delta),
        n_null=n0,
        n_alternative=n1,
    )


def run_audit(cfg: GameConfig) -> ThresholdSweep:
    """Simulates the game and sweeps the thresholds over its max scores.

    Args:
      cfg: game parameters.

    Returns:
      The per-threshold summary; its ``best`` row is the concluded bound.
    """
    truth, scores = simulate_game(cfg)
    return sweep_thresholds(truth, scores, cfg.confidence, cfg.delta)
