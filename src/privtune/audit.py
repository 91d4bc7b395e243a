"""Monte Carlo lower bounds on the tuning protocol's privacy level.

Simulates the univariate Gaussian distinguishing game that best-of-many
selection over a noisy-gradient mechanism reduces to: each trial flips a
fair truth bit and reports the maximum of a random number K of
unit-variance run scores whose means encode the truth bit. The runs are
i.i.d. with some CDF F, so the maximum has CDF S(F(s)), where S is the
run count's probability generating function, and it is drawn at once as
F^-1(S^-1(U)) from one uniform U, with no draw of K: F^-1 is the normal
quantile, or at sampling rate tau < 1 and truth 1 the tabulated quantile
of a binomial mixture of normals. Thresholding the maxima gives
false-positive and false-negative rates; upper confidence limits on
those rates convert into a lower confidence bound on the privacy
parameter that any valid guarantee must exceed.

The best score increases with U, so the sweep ranks trials by their
uniforms and scores only the ranks it reads. run_audit plays the game
twice from its seeded block streams and keeps no array of the trials: a
first pass counts each class's uniforms in value buckets, whose score
bounds narrow the sweep's searches to a few buckets per threshold, and a
second keeps only the uniforms of those buckets, so memory grows like
sqrt(trials). simulate_game keeps every trial's uniform, 8 bytes a trial,
and sweep_thresholds sweeps them: the materialized reference that
run_audit reproduces byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import threading
from collections.abc import Callable, Iterator, Sequence
from concurrent import futures

import numpy as np

from ._numerics import _cp_limit, _log_ndtr, _logsumexp_rows, _ndtri
from .runcount import RunCountDist
from .tradeoff import DpSgdConfig

__all__ = [
    "GameConfig",
    "ThresholdSweep",
    "THREADS_ENV_VAR",
    "thread_count",
    "simulate_game",
    "best_scores",
    "clopper_pearson_upper",
    "eps_lower_bound",
    "sweep_thresholds",
    "run_audit",
]

THREADS_ENV_VAR = "PRIVTUNE_THREADS"
_BLOCK_SIZE = 1 << 20
# Trials a block draws at once. Each worker keeps one buffer of a slice's
# uniforms for the whole game; a slice's bits and bucket keys are made
# anew, and stay in the worker's malloc arena between slices. At 2^18 a
# 1e7-trial audit peaked at 61 MB of RSS on two threads, against 51 MB at
# 2^16, in the same time: the passes' costs are per trial.
_SLICE = 1 << 16
_N_BULK_LEVELS = 256
_N_TAIL_LEVELS = 256
_TAIL_FLOOR = 1e-5
# The tau < 1 score table: grid step, entries (components x grid points)
# at most, entries or levels handled at once, Newton steps a level, and
# the stated inversion error relative to max(1, |s|).
_GRID_STEP = 1.0 / 128.0
_TABLE_CAP = 1 << 24
_CHUNK = 1 << 13
_NEWTON_STEPS = 4
_QUANTILE_TOL = 1e-10
# The normal-quantile score path's stated error relative to max(1, |s|).
_NORMAL_TOL = 7e-16
_Map = Callable[[np.ndarray], np.ndarray]


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
        if _one_sided(self.confidence) >= 1.0:
            raise ValueError(
                f"confidence={self.confidence!r} is too close to 1: the "
                "one-sided level 1 - (1 - confidence) / 2 of each error "
                "rate rounds to 1.0"
            )
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(
                f"seed must be a 64-bit unsigned integer, got {self.seed}"
            )


def _one_sided(confidence: float) -> float:
    """The one-sided level of each error rate's limit at a two-sided confidence."""
    return 1.0 - (1.0 - confidence) / 2.0


def thread_count() -> int:
    """Worker count: the PRIVTUNE_THREADS env var, else the usable cores.

    The usable cores are those of the process's affinity mask where the
    platform reports one (a taskset limits it), else all logical cores.
    """
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
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _mixture_quantile(mech: DpSgdConfig, dist: RunCountDist) -> _Map:
    """Quantile function of one tau < 1 run's truth-1 score, by log level.

    The score is Z + shift B / N with Z standard normal, B ~ Binomial(N,
    tau) and shift = sqrt(N) / sigma, so its CDF is the mixture
    F(s) = sum_b Binom(b; N, tau) Phi(s - shift b / N). The returned
    function maps log y, for y in (0, 1), to F^-1(y), and log y = -inf to
    -inf.

    log F, log S = log(1 - F) and their slopes are tabulated on a grid of
    step _GRID_STEP, from Phi^-1(2^-53) below the smallest component mean
    to Phi^-1(1 - m) above the largest, where m = -expm1(top) and top =
    dist.log_inverse_pgf(1 - 2^-53) is the highest level of any uniform
    draw. The least positive draw, 2^-53, has level log G^-1(2^-53) >=
    log 2^-53, where G is the run count's pgf, because G(y) <= y; so the
    lower end holds every run count. A level is inverted by Newton steps
    on the cubic Hermite interpolant of log F (y <= 1/2) or of log S
    (y > 1/2) in its bracketing cell, so both tails keep relative
    precision. Against 40-digit mpmath roots the error is within
    _QUANTILE_TOL max(1, |s|) wherever F is not flat to within its
    rounding. A level outside the grid raises.

    Components beyond b = N tau +- t, where Bernstein's inequality puts
    each binomial tail below 2^-65, are dropped and the rest renormalized.
    Each run's score is then within total variation 2^-64 of exact, and
    a game of T trials with mean run count E[K] within T E[K] 2^-64 (5e-11
    at 10^9 runs). For N of about 100 or less nothing is dropped.

    The table's extent and its cap are _mixture_grid's. A table at the cap
    builds in about 4.3 s (2 vCPUs; 1.2 s when scipy's log_ndtr filled it:
    the package's _log_ndtr calls math.erfc once a point).

    Raises:
      ValueError: if the table would exceed _TABLE_CAP, naming n_iters.
    """
    n, tau = mech.n_iters, mech.tau
    shift = math.sqrt(n) / mech.sigma
    b_lo, b_hi, start, points = _mixture_grid(mech, dist)
    b = np.arange(b_lo, b_hi + 1, dtype=float)
    # log Binom(b; N, tau) up to a constant, summed from the ratios of
    # neighbours: no lgamma(N + 1), whose rounding grows with N.
    ratios = np.log((n - b[:-1]) / (b[:-1] + 1.0)) + math.log(tau / (1 - tau))
    log_w = np.concatenate([[0.0], np.cumsum(ratios)])
    log_w -= _logsumexp_rows(log_w[None, :])[0]
    means = shift * (b / n)
    grid = start + _GRID_STEP * np.arange(points)
    log_cdf, log_sf, log_pdf = np.empty((3, points))
    rows = max(1, _CHUNK // b.size)
    for lo in range(0, points, rows):
        part = slice(lo, lo + rows)
        gap = grid[part, None] - means
        # One log_ndtr a component: log Phi(-|gap|), and its complement.
        near = _log_ndtr(-np.abs(gap))
        far = np.log1p(-np.exp(near))
        left = gap < 0.0
        log_cdf[part] = _logsumexp_rows(log_w + np.where(left, near, far))
        log_sf[part] = _logsumexp_rows(log_w + np.where(left, far, near))
        log_pdf[part] = _logsumexp_rows(log_w - 0.5 * gap * gap)
    log_pdf -= 0.5 * math.log(2.0 * math.pi)
    # Both tabulated functions increase in s: log F and -log S.
    tables = (
        (log_cdf, _GRID_STEP * np.exp(log_pdf - log_cdf)),
        (-log_sf, _GRID_STEP * np.exp(log_pdf - log_sf)),
    )

    def invert(values: np.ndarray, steps: np.ndarray, target: np.ndarray):
        cell = np.searchsorted(values, target, side="right") - 1
        if not np.all((cell >= 0) & (cell < points - 1)):
            raise ValueError(
                "a score level lies outside the quantile table of "
                f"n_iters={n}, tau={tau}, sigma={mech.sigma}"
            )
        rise = values[cell + 1] - values[cell]
        d0, d1 = steps[cell], steps[cell + 1]
        r = target - values[cell]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(rise > 0.0, r / rise, 0.0)
            for _ in range(_NEWTON_STEPS):
                xx = x * x
                value = (
                    rise * (3.0 * xx - 2.0 * xx * x)
                    + d0 * (xx * x - 2.0 * xx + x)
                    + d1 * (xx * x - xx)
                )
                slope = (
                    6.0 * rise * (x - xx)
                    + d0 * (3.0 * xx - 4.0 * x + 1.0)
                    + d1 * (3.0 * xx - 2.0 * x)
                )
                step = np.where(slope > 0.0, (value - r) / slope, 0.0)
                x = np.clip(x - step, 0.0, 1.0)
        return start + (cell + x) * _GRID_STEP

    def quantile(log_level: np.ndarray) -> np.ndarray:
        scores = np.full(log_level.shape, -np.inf)
        # In slices, which bound the Newton steps' temporaries.
        for lo in range(0, log_level.size, _CHUNK):
            level = log_level[lo : lo + _CHUNK]
            score = scores[lo : lo + _CHUNK]
            lower = (level <= -math.log(2.0)) & (level > -np.inf)
            upper = level > -math.log(2.0)
            score[lower] = invert(*tables[0], level[lower])
            score[upper] = invert(*tables[1], -np.log(-np.expm1(level[upper])))
        return scores

    return quantile


def _mixture_grid(
    mech: DpSgdConfig, dist: RunCountDist
) -> tuple[int, int, float, int]:
    """_mixture_quantile's components b_lo..b_hi, grid start and points.

    Sized without the table, so a game refuses one above _TABLE_CAP
    entries (components times grid points) before it plays. At sigma = 1
    and the largest int64 point mass (m = 2^-116) the cap admits n_iters
    up to 206,126 at tau = 0.5 and 9,379,334 at tau = 0.01.

    Raises:
      ValueError: if the table would exceed _TABLE_CAP, naming n_iters.
    """
    n, tau = mech.n_iters, mech.tau
    shift = math.sqrt(n) / mech.sigma
    log_drop = 65.0 * math.log(2.0)
    spread = log_drop / 3.0 + math.sqrt(
        log_drop**2 / 9.0 + 2.0 * log_drop * n * tau * (1.0 - tau)
    )
    b_lo = max(0, math.ceil(n * tau - spread))
    b_hi = min(n, math.floor(n * tau + spread))
    (top,) = dist.log_inverse_pgf(np.array([1.0 - 2.0**-53]))
    start = shift * (b_lo / n) + float(_ndtri(2.0**-53)) - _GRID_STEP
    stop = shift * (b_hi / n) - float(_ndtri(-np.expm1(top))) + _GRID_STEP
    points = math.ceil((stop - start) / _GRID_STEP) + 1
    if (b_hi - b_lo + 1) * points > _TABLE_CAP:
        raise ValueError(
            f"n_iters={n} at tau={tau}, sigma={mech.sigma} needs a score "
            f"table of {b_hi - b_lo + 1} binomial components x {points} "
            f"points, above the cap of {_TABLE_CAP} entries"
        )
    return b_lo, b_hi, start, points


def _normal_best(level: np.ndarray) -> np.ndarray:
    """The normal quantile at exp(level), computed in place over level.

    level holds log levels in [-inf, 0). Where exp(level) rounds to 1.0,
    that is where 1 - exp(level) is below about 1.1e-16, Phi^-1 would give
    +inf; there the quantile is taken as -Phi^-1(-expm1(level)), which
    stays finite. The top draws reach it at any mean run count E[K] above
    1: 1 - S^-1(1 - v) is about v / E[K], and v can be 2^-53.
    """
    # Levels above -1e-15 (9 ulps below 1.0 after exp) hold every one whose
    # exp rounds to 1.0; they are saved before being overwritten.
    edge = np.flatnonzero(level > -1e-15)
    near = level[edge]
    scores = _ndtri(np.exp(level, out=level), out=level)
    at_one = scores[edge] == np.inf
    scores[edge[at_one]] = -_ndtri(-np.expm1(near[at_one]))
    return scores


def _score_maps(cfg: GameConfig) -> tuple[_Map, _Map]:
    """Each class's best score F^-1(S^-1(u)) as a function of its uniforms.

    S^-1 is log_inverse_pgf; F^-1 is _normal_best for truth 0, that plus
    sqrt(N) / sigma for truth 1 at tau = 1, and _mixture_quantile's table,
    built here, at tau < 1. Each map is elementwise, returns a new array
    and leaves its input as it was.
    """
    mech, dist = cfg.config, cfg.dist

    def level(u: np.ndarray) -> np.ndarray:
        return dist.log_inverse_pgf(u, out=np.empty(u.shape))

    def null(u: np.ndarray) -> np.ndarray:
        return _normal_best(level(u))

    if mech.tau < 1.0:
        quantile = _mixture_quantile(mech, dist)
        return null, lambda u: quantile(level(u))
    shift = math.sqrt(mech.n_iters) / mech.sigma
    return null, lambda u: null(u) + shift


def _block_slices(
    cfg: GameConfig, block: int, spare: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yields a block's (truth, uniforms) slices in stream order.

    The one home of the game's stream: block b of the game is driven by
    the stream keyed by (seed, b), which draws the block's n truth bits
    and then its n uniforms. A bit is the top bit of one 32-bit half of a
    64-bit draw, low half first, as rng.integers(0, 2, n, np.int32) takes
    it, so the bits take ceil(n / 2) draws and the uniforms start there.
    Two generators on the same seed, one advanced past the bits, read the
    two parts slice by slice, so no array of the block's size is made
    (such arrays, freed by a worker, stayed in its malloc arena and put up
    to 40 MB on a 1e7-trial audit's peak RSS, varying from run to run).
    Slices hold _SLICE trials, the rest last; each slice but the last is
    even, so the bits are the stream of one draw. Each slice's uniforms
    are written into spare, which must hold a slice.
    """
    size = min(_BLOCK_SIZE, cfg.trials - block * _BLOCK_SIZE)
    seq = np.random.SeedSequence([cfg.seed, block])
    bits = np.random.PCG64(seq)
    draws = np.random.Generator(np.random.PCG64(seq).advance((size + 1) // 2))
    for lo in range(0, size, _SLICE):
        n = min(_SLICE, size - lo)
        # A third of the time of rng.integers's draw of the same bits.
        truth = bits.random_raw((n + 1) // 2).view(np.uint32)[:n] >= 2**31
        yield truth, draws.random(out=spare[:n])


def _run_jobs(jobs: list[Callable[[], object]], workers: int) -> list:
    """Every job's result, run on a pool of that many threads when above one.

    A one-worker pool adds 3.5 MB (5%) to a one-block audit's peak RSS.
    """
    if workers < 2:
        return [job() for job in jobs]
    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return [done.result() for done in [pool.submit(job) for job in jobs]]


def _play(cfg: GameConfig, job: Callable[[Iterator], object]) -> list:
    """Plays the game once: job(slices) on each worker's share of the blocks.

    Worker w of W takes blocks w, w + W, ..., and job receives their
    (truth, uniforms) slices in turn, the uniforms in one buffer of the
    worker's, overwritten by the next slice. Returns each worker's result.
    """
    blocks = -(-cfg.trials // _BLOCK_SIZE)
    workers = min(thread_count(), blocks)

    def share(first: int) -> object:
        spare = np.empty(min(_SLICE, cfg.trials))
        return job(
            part
            for block in range(first, blocks, workers)
            for part in _block_slices(cfg, block, spare)
        )

    return _run_jobs([functools.partial(share, w) for w in range(workers)], workers)


def simulate_game(cfg: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Plays the distinguishing game: every trial's truth bit and uniform.

    Each trial flips a fair truth bit and draws one uniform U. Its best
    score, the maximum of K run scores whose means encode the truth bit,
    is F^-1(S^-1(U)) (_score_maps), which best_scores computes.

    Trials are partitioned into fixed-size blocks, each driven by a
    stream keyed by (seed, block index) (_block_slices). A first pass
    over the blocks counts each block's truth bits, which places its
    trials of either class; a second plays the blocks again and writes
    each class's uniforms straight into its region. So no truth array is
    kept, a trial costs 8 bytes, and the results are bit-identical for
    any degree of parallelism. run_audit plays the same game without
    keeping it; this is the materialized reference.

    Args:
      cfg: game parameters.

    Returns:
      (null, alternative): the uniforms of the truth-0 and of the truth-1
      trials, each in trial order, as two views of one float buffer of
      length trials, null first.

    Raises:
      ValueError: if the buffer cannot be allocated, naming trials and
        the bytes it needs, or a tau < 1 score table would exceed its cap.
    """
    # Allocated first, so a game too large to hold fails before its passes;
    # np.empty touches no page until the second pass writes it.
    try:
        uniforms = np.empty(cfg.trials)
    except (MemoryError, ValueError):
        raise ValueError(
            f"trials={cfg.trials} needs {8 * cfg.trials} bytes of scores, "
            "more than this process can allocate"
        ) from None
    if cfg.config.tau < 1.0:
        _mixture_grid(cfg.config, cfg.dist)
    blocks = range((cfg.trials + _BLOCK_SIZE - 1) // _BLOCK_SIZE)
    workers = min(thread_count(), len(blocks))
    worker = threading.local()

    def slices(block: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        # Each worker's buffer of a slice's uniforms, made at its first block
        # and kept, so its pages stay mapped across its slices and blocks.
        if not hasattr(worker, "spare"):
            worker.spare = np.empty(min(_SLICE, cfg.trials))
        return _block_slices(cfg, block, worker.spare)

    def count(block: int) -> int:
        return sum(int(np.count_nonzero(truth)) for truth, _ in slices(block))

    ones = _run_jobs([functools.partial(count, b) for b in blocks], workers)
    # Where each block's trials of either class start, and the last ends.
    alt_at = np.cumsum([0, *ones])
    ends = np.minimum(np.arange(len(blocks) + 1) * _BLOCK_SIZE, cfg.trials)
    null_at = ends - alt_at
    n0 = int(null_at[-1])

    def play(block: int) -> None:
        null_out = uniforms[null_at[block] : null_at[block + 1]]
        alt_out = uniforms[n0 + alt_at[block] : n0 + alt_at[block + 1]]
        for truth, drawn in slices(block):
            # Each class's uniforms are taken into its region through an
            # index array, not the random bool mask, whose gathers take
            # several times as long; and in mode "wrap", as take's default
            # mode first fills a copy of out.
            index = np.flatnonzero(truth)
            alt = np.take(drawn, index, out=alt_out[: index.size], mode="wrap")
            index = np.flatnonzero(np.logical_not(truth, out=truth))
            null = np.take(drawn, index, out=null_out[: index.size], mode="wrap")
            null_out, alt_out = null_out[null.size :], alt_out[alt.size :]

    _run_jobs([functools.partial(play, b) for b in blocks], workers)
    return uniforms[:n0], uniforms[n0:]


def best_scores(
    cfg: GameConfig, null: np.ndarray, alternative: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's best score F^-1(S^-1(U)), by the sweep's own maps.

    Args:
      cfg: game parameters.
      null, alternative: each class's uniforms, as simulate_game returns.

    Returns:
      (null, alternative): each class's best scores, in a new array.
    """
    score_null, score_alt = _score_maps(cfg)
    return score_null(null), score_alt(alternative)


def clopper_pearson_upper(
    successes: np.ndarray | int, trials: np.ndarray | int, confidence: float
) -> np.ndarray | float:
    """One-sided upper confidence limits for a binomial proportion.

    The limit for c successes is the confidence quantile x of Beta(c + 1,
    trials - c), the root of I_x(c + 1, trials - c) = confidence (Clopper
    & Pearson, Biometrika 1934). It is never below the exact root and at
    most _CP_REL_ERR relative above it: for 0 < c < trials it comes from
    _cp_limit, for c = 0 from the closed form 1 - (1 - confidence)^(1/n)
    raised by 2^-50 relative (its rounding is under 3 ulps), and it is 1.0
    for c = trials.

    Args:
      successes: observed success count, or an array of them.
      trials: number of draws, at least every success count, or an array
        of them broadcast against the counts.
      confidence: one-sided confidence level in (0, 1).

    Returns:
      The upper limit for each count. A float when both counts and trials
      are scalars, else an array of their broadcast shape.
    """
    counts = np.asarray(successes)
    if not np.all((counts >= 0) & (counts <= trials)):
        raise ValueError(
            f"need 0 <= successes <= trials, got ({successes}, {trials})"
        )
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    counts, n = np.broadcast_arrays(counts.astype(float), np.asarray(trials, float))
    upper = np.ones(counts.shape)
    zero = (counts == 0) & (n > 0)
    upper[zero] = -np.expm1(math.log1p(-confidence) / n[zero]) * (1.0 + 2.0**-50)
    inner = (counts > 0) & (counts < n)
    if inner.any():
        upper[inner] = _cp_limit(counts[inner], n[inner], confidence)
    if np.ndim(successes) == 0 and np.ndim(trials) == 0:
        return float(upper)
    return upper


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


def _sweep_levels() -> np.ndarray:
    """The sweep's quantile levels, uniform in the bulk, log-spaced above.

    Built per call: at import they would cost the bound commands, which
    never sweep, about 0.5 MB of resident memory.
    """
    return np.sort(
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


def _least_true(lo: np.ndarray, hi: np.ndarray, holds) -> np.ndarray:
    """Per entry, the least x in [lo, hi] that is hi or where holds, in place.

    Each bisection step calls holds(open_, mid) once, for the entries
    open_ still bracketed; it must be false below that x and true above.
    """
    while (open_ := np.flatnonzero(lo < hi)).size:
        a, b = lo[open_], hi[open_]
        mid = (a + b) // 2
        ok = holds(open_, mid)
        lo[open_] = np.where(ok, a, mid + 1)
        hi[open_] = np.where(ok, mid, b)
    return lo


def _pooled_ranks(n: int, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pooled ranks np.quantile reads at each level, and their weights.

    Of n pooled values, level q has virtual index v = (n - 1) q and reads
    the ranks floor(v) and floor(v) + 1 with weight g = v - floor(v); where
    v >= n - 1 numpy reads the largest rank twice, with g = v + 1.

    Returns:
      The lower ranks of every level, then the upper ranks; and g.
    """
    virtual = (n - 1) * levels
    top = virtual >= n - 1
    below = np.where(top, -1.0, np.floor(virtual))
    rank = np.where(top, n - 1, below).astype(np.intp)
    return np.concatenate([rank, np.where(top, rank, rank + 1)]), virtual - below


def _split_range(ranks: np.ndarray, n0: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """The feasible counts of class-0 values among the r + 1 smallest."""
    return np.maximum(ranks + 1 - n1, 0), np.minimum(ranks + 1, n0)


def _pooled_quantiles(
    read0: _Map,
    read1: _Map,
    n0: int,
    n1: int,
    levels: np.ndarray,
    bracket: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """np.quantile of the pooled scores of two classes, read by rank.

    read0 and read1 map an array of ranks to their scores in a class of n0
    or n1 scores in increasing order, as indexing a sorted array does.

    Follows numpy's default 'linear' rule bit for bit: the order
    statistics a and b of each level's ranks (_pooled_ranks) are
    interpolated with weight g as a + (b - a) g, or as b - (b - a) (1 - g)
    where g >= 1/2. The scores must hold no NaN; as in np.quantile, of
    tied 0.0 and -0.0 either may be taken.

    The value of rank r is the larger of s0[i - 1] and s1[r - i], where i
    values of the r + 1 smallest come from s0: i is the least count in
    its feasible range that is the range's top or has s0[i] >= s1[r - i],
    found by bisection for every rank at once. bracket, if given, is a
    narrower range [lo, hi] per rank (the lower ranks, then the upper)
    that holds that count, with s0[hi] >= s1[r - hi] unless hi is the
    range's top; it is overwritten.

    Returns:
      The quantiles, and a probe of each class: its distinct ranks either
      side of each split (i - 1, i in s0; r - i, r - i + 1 in s1), with
      their scores.
    """
    ranks, gamma = _pooled_ranks(n0 + n1, levels)
    lo, hi = _split_range(ranks, n0, n1) if bracket is None else bracket
    # In an open bracket lo <= mid < hi, so mid and r - mid are ranks.
    lo = _least_true(lo, hi, lambda k, mid: read0(mid) >= read1(ranks[k] - mid))
    probes, values = [], np.full(ranks.size, -np.inf)
    for read, size, count in ((read0, n0, lo), (read1, n1, ranks + 1 - lo)):
        index = np.unique(np.concatenate([count - 1, count]))
        index = index[(index >= 0) & (index < size)]
        probes.append((index, read(index)))
        # The class's score of rank count - 1, where it has one.
        has = count > 0
        last = probes[-1][1][np.searchsorted(index, count[has] - 1)]
        values[has] = np.maximum(values[has], last)
    a, b = np.split(values, 2)
    diff = b - a
    quantiles = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    return quantiles, probes


def _count_at_most(
    read: _Map, size: int, probe: tuple[np.ndarray, np.ndarray], thresholds: np.ndarray
) -> np.ndarray:
    """np.searchsorted(scores, thresholds, side="right") by bisection.

    read and size are as in _pooled_quantiles. probe holds ranks of the
    class in increasing order with their scores, as _pooled_quantiles
    returns it or with more ranks; each count is bracketed by the probe's
    ranks either side of its threshold, most brackets closed. A NaN
    threshold lies above every score, as numpy sorts.
    """
    index, score = probe
    at = np.searchsorted(score, thresholds, side="right")
    return _least_true(
        np.append(0, index + 1)[at],
        np.append(index, size)[at],
        lambda k, mid: thresholds[k] < read(mid),
    )


def _threshold_sweep(
    cfg: GameConfig,
    reads: Sequence[_Map],
    sizes: Sequence[int],
    quantiles: np.ndarray,
    probes: list[tuple[np.ndarray, np.ndarray]],
) -> ThresholdSweep:
    """The sweep's rows at the distinct quantiles, each class read by rank."""
    (read0, read1), (n0, n1) = reads, sizes
    thresholds = np.unique(quantiles)
    fp_cnt = n0 - _count_at_most(read0, n0, probes[0], thresholds)
    fn_cnt = _count_at_most(read1, n1, probes[1], thresholds)
    side = _one_sided(cfg.confidence)
    # Both classes' limits in one solve.
    fp_up, fn_up = clopper_pearson_upper(
        np.stack([fp_cnt, fn_cnt]), [[n0], [n1]], side
    )
    return ThresholdSweep(
        thresholds=thresholds,
        fp_counts=fp_cnt,
        fn_counts=fn_cnt,
        fp_upper=fp_up,
        fn_upper=fn_up,
        eps_lower=eps_lower_bound(fp_up, fn_up, cfg.delta),
        n_null=n0,
        n_alternative=n1,
    )


def sweep_thresholds(
    cfg: GameConfig, null: np.ndarray, alternative: np.ndarray
) -> ThresholdSweep:
    """Evaluates the lower bound over a fixed grid of score thresholds.

    Candidate thresholds are 512 empirical quantiles of the pooled best
    scores: 256 uniform levels covering the bulk plus 256 log-spaced
    levels resolving the upper tail, where the bound-maximizing threshold
    of a max-score game sits; bit for bit np.quantile's values, with no
    pooled copy (_pooled_quantiles). A trial guesses truth 1 when its
    score exceeds the threshold. Each threshold's false-positive and
    false-negative counts get one-sided Clopper-Pearson upper limits at
    the level matching the two-sided confidence.

    The sweep sorts uniforms, not scores: each class in place, the two on
    two threads past one game block. The score of rank i, the class's map
    (_score_maps) at its i-th smallest uniform, is computed only where the
    sweep reads it: about 35k scores at 1e7 trials. The exact map
    F^-1(S^-1(u)) increases with u, so this ranks trials as their exact
    scores do. The float map can order two uniforms a few ulps apart the
    other way (rarely: sorted 1e7-trial games held none), each time by
    less than twice its stated error, _NORMAL_TOL max(1, |s|) through the
    normal quantile and _QUANTILE_TOL max(1, |s|) through the tau < 1 table
    (tests/test_audit.py::test_score_maps_decrease_within_twice_their_error).
    So a row can differ from the sweep of the sorted float scores only
    where it reads such a pair, and there ranking by U is the exact game's.

    This is the materialized sweep, which run_audit reproduces without
    the game's arrays (_sweep_in_two_passes).

    Args:
      cfg: game parameters: the score maps, confidence and delta.
      null, alternative: each class's uniforms, sorted in place.

    Returns:
      The per-threshold summary.

    Raises:
      ValueError: if a tau < 1 score table would exceed its cap.
    """
    big = null.size + alternative.size > _BLOCK_SIZE
    _run_jobs([null.sort, alternative.sort], 2 if big and thread_count() > 1 else 1)
    # Each class's scores of an array of ranks.
    reads = tuple(
        lambda ranks, u=u, score=score: score(u[ranks])
        for u, score in zip((null, alternative), _score_maps(cfg))
    )
    sizes = (null.size, alternative.size)
    quantiles, probes = _pooled_quantiles(*reads, *sizes, _sweep_levels())
    return _threshold_sweep(cfg, reads, sizes, quantiles, probes)


def _bucket_count(trials: int) -> int:
    """H, the value buckets [k / H, (k + 1) / H) of each class's uniforms.

    A power of two, 16 times the one at or above sqrt(trials): 2^16 at
    1e7 trials, 2^19 at 1e9. A bucket then holds about trials / (2 H)
    trials of a class, and each worker's histogram takes 8 H bytes (16 H
    from 2^31 trials), so the histograms and the kept buckets both grow
    like sqrt(trials). H stops at 2^20, reached at 2^32 trials, so that
    no count of trials makes histograms of more than 16 MiB a worker.
    """
    return 1 << min(((trials - 1).bit_length() + 1) // 2 + 4, 20)


def _bucket_keys(
    truth: np.ndarray, uniforms: np.ndarray, buckets: int
) -> np.ndarray:
    """2 floor(u H) + truth: each trial's bucket and class as one index.

    u H is exact for a power of two H, so a uniform lies in its bucket.
    """
    keys = np.multiply(
        uniforms, buckets, out=np.empty(uniforms.size, np.intp), casting="unsafe"
    )
    keys <<= 1
    keys += truth
    return keys


def _bucket_bounds(
    cfg: GameConfig, maps: tuple[_Map, _Map], buckets: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each class's (low, high): nondecreasing bounds on each bucket's scores.

    The exact map F^-1(S^-1(u)) increases, and the float map is within
    its stated error e(s) of it: _NORMAL_TOL max(1, |s|) through the
    normal quantile, _QUANTILE_TOL max(1, |s|) through the tau < 1 table.
    So each score of bucket k is at least the map at k / H less 2 e(s),
    and at most the map at (k + 1) / H plus 2 e(s). The edges are widened
    by 3 e(s), which covers the bound's own rounding, and made monotone by
    a running minimum from above or maximum from below, which keeps them
    bounds. The top edge, u = 1, is +inf. At tau = 1 a truth-1 score is
    the null's plus sqrt(N) / sigma, and rounding is monotone, so the
    null's bounds plus that shift bound it with no further widening.
    """
    u = np.arange(buckets) / buckets

    def bounds(score: _Map, tol: float) -> tuple[np.ndarray, np.ndarray]:
        edges = np.append(score(u), np.inf)
        widen = 3.0 * tol * np.maximum(1.0, np.abs(edges))
        low = np.minimum.accumulate((edges[:-1] - widen[:-1])[::-1])[::-1]
        return low, np.maximum.accumulate(edges[1:] + widen[1:])

    null, alternative = maps
    low, high = bounds(null, _NORMAL_TOL)
    if cfg.config.tau < 1.0:
        return [(low, high), bounds(alternative, _QUANTILE_TOL)]
    shift = math.sqrt(cfg.config.n_iters) / cfg.config.sigma
    return [(low, high), (low + shift, high + shift)]


def _marked(cum: np.ndarray, spans: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The buckets holding a rank of any span [first, last] of the class.

    cum holds the class's counts of the buckets below each edge, so rank
    r lies in bucket searchsorted(cum, r, "right") - 1. Spans are clipped
    to the class's ranks.
    """
    first = np.maximum(np.concatenate([f for f, _ in spans]), 0)
    last = np.minimum(np.concatenate([t for _, t in spans]), cum[-1] - 1)
    keep = first <= last
    start = np.searchsorted(cum, first[keep], side="right") - 1
    stop = np.searchsorted(cum, last[keep], side="right")
    # +1 at each span's first bucket, -1 past its last: a bucket is marked
    # where their running sum is positive.
    edges = np.bincount(start, minlength=cum.size)
    edges -= np.bincount(stop, minlength=cum.size)
    return np.cumsum(edges[:-1]) > 0


def _kept_reader(
    score: _Map, cum: np.ndarray, marked: np.ndarray, values: np.ndarray
) -> _Map:
    """A class's scores by rank, from the sorted uniforms of its marked buckets.

    Raises:
      RuntimeError: if the uniforms are not those the marked buckets
        counted, or a read falls outside them; either is a defect.
    """
    kept = np.where(marked, np.diff(cum), 0)
    if values.size != kept.sum():
        raise RuntimeError(
            f"the second play kept {values.size} uniforms of a class, "
            f"where the first counted {kept.sum()}"
        )
    start = np.cumsum(kept) - kept

    def read(ranks: np.ndarray) -> np.ndarray:
        bucket = np.searchsorted(cum, ranks, side="right") - 1
        if not np.all(marked[bucket]):
            raise RuntimeError("the sweep read a rank outside the kept buckets")
        return score(values[start[bucket] + ranks - cum[bucket]])

    return read


def _sweep_in_two_passes(
    cfg: GameConfig, play: Callable[[Callable[[Iterator], object]], list]
) -> ThresholdSweep:
    """sweep_thresholds's summary of a game played twice and never kept.

    play(job) plays the game, calling job on iterators over its (truth,
    uniforms) slices, and returns the jobs' results (_play). Both plays
    must give the same trials.

    Pass 1 counts each class's uniforms in H value buckets (_bucket_count).
    The class's counts up to a bucket place each rank in its bucket, and
    so between bounds on its score (_bucket_bounds). Before any trial is
    read, the bounds narrow each pooled rank r's search in
    _pooled_quantiles: _least_true on them finds the least count i where
    s0[i] >= s1[r - i] surely holds and the least where it may. Every
    change of the predicate lies between the two, so the search started
    there lands where the full one does whenever the predicate is
    monotone, as it is where the scores of sorted uniforms are
    nondecreasing. Each threshold lies between the bounds of its two
    pooled order statistics, and these bound each class's count at it:
    those ranks join the class's probe, so each count's bisection stays
    between them (_count_at_most). The buckets holding any rank that the
    narrowed searches, their probes and the counts can read are marked.

    Pass 2 plays the game again and keeps the uniforms of the marked
    buckets, about 3% of the trials at 1e7. Sorted, they are each class's
    sorted uniforms at the ranks of those buckets, and the sweep reads its
    scores there as sweep_thresholds does, so the rows are the same bytes.

    Raises:
      RuntimeError: if the second play kept other trials than the first
        counted, or the sweep read outside the kept buckets.
    """
    buckets = _bucket_count(cfg.trials)
    # 32-bit counts, where no count can overflow them, halve the cache
    # misses of the counting: pass 1 went 1.2 s -> 0.8 s at 1e8 trials.
    tally = np.dtype(np.int32 if cfg.trials < 2**31 else np.int64)

    def count(slices: Iterator) -> np.ndarray:
        hist = np.zeros(2 * buckets, tally)
        for truth, uniforms in slices:
            np.add.at(hist, _bucket_keys(truth, uniforms, buckets), tally.type(1))
        return hist

    hist = functools.reduce(np.add, play(count)).reshape(buckets, 2).T
    cums = [np.concatenate([[0], np.cumsum(h)]) for h in hist]
    del hist
    sizes = tuple(int(cum[-1]) for cum in cums)
    maps = _score_maps(cfg)
    bounds = _bucket_bounds(cfg, maps, buckets)
    levels = _sweep_levels()
    ranks, _ = _pooled_ranks(sum(sizes), levels)

    def bound(c: int, side: int, rank: np.ndarray) -> np.ndarray:
        # A bound on class c's score of each rank, -inf where it has none.
        out = np.full(rank.shape, -np.inf)
        has = rank >= 0
        bucket = np.searchsorted(cums[c], rank[has], side="right") - 1
        out[has] = bounds[c][side][bucket]
        return out

    first, last = _split_range(ranks, *sizes)
    sure = _least_true(
        first.copy(),
        last.copy(),
        lambda k, i: bound(0, 0, i) >= bound(1, 1, ranks[k] - i),
    )
    maybe = _least_true(
        first,
        last,
        lambda k, i: bound(0, 1, i) >= bound(1, 0, ranks[k] - i),
    )
    # The searches read s0 at [maybe, sure) and s1 at r minus those, and
    # probe one rank either side.
    spans = [[(maybe - 1, sure)], [(ranks - sure, ranks + 1 - maybe)]]
    # Rank r's value max(s0[i - 1], s1[r - i]), at the split i in [maybe,
    # sure], lies between these; each threshold between the values of its
    # two ranks.
    below = np.maximum(bound(0, 0, maybe - 1), bound(1, 0, ranks - sure))
    above = np.maximum(bound(0, 1, sure - 1), bound(1, 1, ranks - maybe))
    below = np.minimum(*np.split(below, 2))
    above = np.maximum(*np.split(above, 2))
    extra = []
    for c, (low, high) in enumerate(bounds):
        # Ranks below at_most score at most each threshold, and rank
        # more_than scores above it; a NaN threshold counts the top rank.
        at_most = cums[c][np.searchsorted(high, below, side="right")]
        more_than = cums[c][np.searchsorted(low, above, side="right")]
        top = np.array([sizes[c] - 1])
        spans[c] += [(at_most - 1, more_than), (top, top)]
        extra.append(np.concatenate([at_most - 1, more_than, top]))
    marked = [_marked(cum, span) for cum, span in zip(cums, spans)]
    lookup = np.stack(marked, axis=1).ravel()

    def collect(slices: Iterator) -> tuple[list, list]:
        kept: tuple[list, list] = ([], [])
        for truth, uniforms in slices:
            at = np.flatnonzero(lookup[_bucket_keys(truth, uniforms, buckets)])
            alt = truth[at]
            kept[0].append(uniforms[at[~alt]])
            kept[1].append(uniforms[at[alt]])
        return kept

    kept = play(collect)
    reads = []
    for c, score in enumerate(maps):
        values = np.concatenate([part for parts in kept for part in parts[c]])
        values.sort()
        reads.append(_kept_reader(score, cums[c], marked[c], values))
    del kept
    quantiles, probes = _pooled_quantiles(*reads, *sizes, levels, (maybe, sure))
    for c, add in enumerate(extra):
        index = np.union1d(probes[c][0], add[(add >= 0) & (add < sizes[c])])
        probes[c] = (index, reads[c](index))
    return _threshold_sweep(cfg, reads, sizes, quantiles, probes)


def run_audit(cfg: GameConfig) -> ThresholdSweep:
    """Plays the game and sweeps the thresholds, keeping no trial array.

    The game is played twice from its seeded block streams (_play), and
    the summary is sweep_thresholds(cfg, *simulate_game(cfg)) byte for
    byte wherever the score maps are nondecreasing on the sorted uniforms
    (_sweep_in_two_passes). Memory grows like sqrt(trials): per worker a
    slice's buffers and a histogram of 8 H bytes, and the uniforms of the
    buckets the sweep reads.

    Args:
      cfg: game parameters.

    Returns:
      The per-threshold summary; its ``best`` row is the concluded bound.

    Raises:
      ValueError: if a tau < 1 score table would exceed its cap, before
        any trial is played.
    """
    if cfg.config.tau < 1.0:
        _mixture_grid(cfg.config, cfg.dist)
    return _sweep_in_two_passes(cfg, functools.partial(_play, cfg))
