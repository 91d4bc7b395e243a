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

The module needs numpy alone: the normal quantile and log cdf are the
package's own (tradeoff._ndtri, tradeoff._log_ndtr), and the
Clopper-Pearson limit inverts its own incomplete beta function, whose
prefactor takes Loader's saddle-point terms and whose continued fraction
is Didonato and Morris's; the limit is never below the exact one.

The game writes each class's maxima straight into its own region of one
buffer, 8 bytes a trial: a first pass over the game's blocks counts each
block's truth-1 trials, which places its trials of either class, and a
second draws the same bits again beside the uniforms. The sweep sorts
the two classes where they lie.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import threading
from collections.abc import Callable
from concurrent import futures

import numpy as np

from .accountant import _logsumexp_rows
from .runcount import RunCountDist, _stirlerr
from .tradeoff import (
    DpSgdConfig,
    _log_ndtr,
    _ndtri,
    _two_product,
    _two_sum,
)

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
# Trials a block draws and scores at once. Each worker keeps one buffer of
# a slice for the whole game, and a slice's steps write into it or into
# the outputs, so malloc has few temporaries to give back to the system
# and fault in again: a fresh process's 1e7-trial game takes about 9k to
# 12k minor page faults on two threads, 13k on one. A whole block of 2^20
# keeps up to 20 MB more in the workers' arenas.
_SLICE = 1 << 18
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
# Terms of bd0's series: |v| < 1/10, so each term is 1e-2 of the last.
_BD0_TERMS = 9
# The incomplete beta's continued fraction: the relative move at which a
# point stops, the most terms taken, and the stated error a term adds to
# the log of its value.
_CF_TOL = 2.0**-52
_CF_MAX_TERMS = 1 << 20
_CF_TERM_ERR = 1e-15
# The Clopper-Pearson solve: the stated error of log V, the log of the
# side the fraction evaluates, is _LOG_BETA_ERR + _LOG_BETA_REL_ERR
# |log M| + _CF_TERM_ERR per term. Against 60-digit sums of binomial
# terms on 3,000 points (n from 3 to 5e8, near each limit and up to 2
# logit units away) it was at most 3.6e-14 where |log M| < 50, and at
# most 2.9e-15 |log M| where |log M| reached 1e5. Then the |g| below
# which Newton's step is final, the largest step in logit x, the most
# passes, the range of x, and the stated relative error of the limit.
_LOG_BETA_ERR = 1e-13
_LOG_BETA_REL_ERR = 8e-15
_NEWTON_DONE = 2.0**-26
_MAX_STEP = 1.0
_CP_MAX_PASSES = 200
_X_MIN = 2.0**-1022
_X_MAX = 1.0 - 2.0**-53
_CP_REL_ERR = 1e-12


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


def _mixture_quantile(
    mech: DpSgdConfig, dist: RunCountDist
) -> Callable[[np.ndarray], np.ndarray]:
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

    The table holds at most _TABLE_CAP entries (components times grid
    points). At sigma = 1 and the largest int64 point mass (m = 2^-116)
    that admits n_iters up to 206,126 at tau = 0.5 and 9,379,334 at
    tau = 0.01, and a table at the cap builds in about 4.3 s (2 vCPUs;
    1.2 s when scipy's log_ndtr filled it: the package's _log_ndtr calls
    math.erfc once a point).

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


def _slice_sizes(trials: int, block: int) -> list[int]:
    """Sizes of a block's slices: _SLICE trials each, and the rest last.

    Drawn slice by slice, a block's truth bits and then its uniforms are
    the stream of one draw of each: a bit takes one 32-bit half of a
    64-bit draw, as an int32 and an int64 draw both do, and every slice
    but the last is even. No array of the block's size is made: such
    arrays, freed by a worker, stayed in its malloc arena and put up to
    40 MB on a 1e7-trial audit's peak RSS, varying from run to run.
    """
    lo = block * _BLOCK_SIZE
    hi = min(lo + _BLOCK_SIZE, trials)
    return [min(_SLICE, hi - start) for start in range(lo, hi, _SLICE)]


def _simulate_block(
    cfg: GameConfig,
    quantile: Callable[[np.ndarray], np.ndarray] | None,
    block: int,
    rng: np.random.Generator,
    null_out: np.ndarray,
    alt_out: np.ndarray,
    spare: np.ndarray,
) -> None:
    """Fills one block's trials of each class, in trial order.

    rng is the block's keyed stream just past its truth bits, which a
    fresh stream of the same key draws again here; null_out and alt_out
    are the block's regions of the two classes. quantile is
    _mixture_quantile's function at tau < 1, else None. spare is the
    worker's buffer of up to _SLICE floats: it holds each slice's uniforms,
    then each class's levels in turn, which log_inverse_pgf would write
    over its input only through a temporary of their size.
    """
    bits = np.random.default_rng(np.random.SeedSequence([cfg.seed, block]))
    mech = cfg.config
    shift = math.sqrt(mech.n_iters) / mech.sigma
    for size in _slice_sizes(cfg.trials, block):
        # The slice's truth bits, drawn again, and its uniforms. Each class's
        # uniforms are taken into its region through an index array, not
        # the random bool mask, whose gathers take several times as long;
        # and in mode "wrap", as take's default mode first fills a copy of
        # out. Its levels go into spare, and its best scores back.
        truth = bits.integers(0, 2, size, np.int32) != 0
        uniforms = rng.random(out=spare[:size])
        index = np.flatnonzero(truth)
        alt = np.take(uniforms, index, out=alt_out[: index.size], mode="wrap")
        index = np.flatnonzero(np.logical_not(truth, out=truth))
        null = np.take(uniforms, index, out=null_out[: index.size], mode="wrap")
        null_out, alt_out = null_out[null.size :], alt_out[alt.size :]
        level = cfg.dist.log_inverse_pgf(null, out=spare[: null.size])
        np.copyto(null, _normal_best(level))
        level = cfg.dist.log_inverse_pgf(alt, out=spare[: alt.size])
        if quantile is None:
            np.add(_normal_best(level), shift, out=alt)
        else:
            alt[:] = quantile(level)


def _run_jobs(jobs: list[Callable[[], object]], workers: int) -> list:
    """Every job's result, run on a pool of that many threads when above one.

    A one-worker pool adds 3.5 MB (5%) to a one-block audit's peak RSS.
    """
    if workers < 2:
        return [job() for job in jobs]
    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return [done.result() for done in [pool.submit(job) for job in jobs]]


def simulate_game(cfg: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Runs the distinguishing game for every trial.

    Each trial flips a fair truth bit, draws one uniform U, and reports
    the maximum of K unit-variance run scores, K from the run count
    distribution with pgf S. Run scores have mean zero when the truth bit
    is 0. When it is 1 their mean is (Binomial(N, tau) / N) *
    sqrt(N) / sigma, drawn independently per run, which at tau = 1 is
    exactly sqrt(N) / sigma. The runs are i.i.d. with some CDF F, so
    their maximum has CDF S(F(s)) and is drawn as F^-1(S^-1(U)), with no
    draw of K: S^-1 by the run count's log_inverse_pgf, F^-1 through the
    normal quantile for truth 0 and at tau = 1, and through the tabulated
    quantile of the binomial mixture of normals (_mixture_quantile) for
    truth 1 at tau < 1.

    Trials are partitioned into fixed-size blocks, each driven by a
    stream keyed by (seed, block index) that draws the block's truth bits
    and then its uniforms. The game makes two passes over the blocks. The
    first draws each block's truth bits and counts its ones; those counts
    place each block's trials of either class. The second draws the bits
    again from a fresh stream of the same key and the uniforms from where
    the first left off, and writes each class's best scores straight into
    its region. So no truth array is kept, a trial costs 8 bytes, and the
    results are bit-identical for any degree of parallelism.

    Args:
      cfg: game parameters.

    Returns:
      (null, alternative): the best scores of the truth-0 and of the
      truth-1 trials, each in trial order, as two views of one float
      buffer of length trials, null first.

    Raises:
      ValueError: if a tau < 1 score table would exceed its cap.
    """
    quantile = None
    if cfg.config.tau < 1.0:
        quantile = _mixture_quantile(cfg.config, cfg.dist)
    blocks = range((cfg.trials + _BLOCK_SIZE - 1) // _BLOCK_SIZE)
    workers = min(thread_count(), len(blocks))

    def count(block: int) -> tuple[int, np.random.Generator]:
        # The block's ones, and its stream past them.
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, block]))
        ones = sum(
            int(np.count_nonzero(rng.integers(0, 2, size, np.int32)))
            for size in _slice_sizes(cfg.trials, block)
        )
        return ones, rng

    ones, streams = zip(
        *_run_jobs([functools.partial(count, b) for b in blocks], workers)
    )
    # Where each block's trials of either class start, and the last ends.
    alt_at = np.cumsum([0, *ones])
    ends = np.minimum(np.arange(len(blocks) + 1) * _BLOCK_SIZE, cfg.trials)
    null_at = ends - alt_at
    n0 = int(null_at[-1])
    scores = np.empty(cfg.trials)
    worker = threading.local()

    def run(block: int) -> None:
        # Each worker's slice buffer, made at its first block and kept, so
        # its pages stay mapped across the worker's slices and blocks.
        if not hasattr(worker, "spare"):
            worker.spare = np.empty(min(_SLICE, cfg.trials))
        null = scores[null_at[block] : null_at[block + 1]]
        alt = scores[n0 + alt_at[block] : n0 + alt_at[block + 1]]
        _simulate_block(cfg, quantile, block, streams[block], null, alt, worker.spare)

    _run_jobs([functools.partial(run, b) for b in blocks], workers)
    return scores[:n0], scores[n0:]


def _bd0(x: np.ndarray, m_hi: np.ndarray, m_lo: np.ndarray) -> np.ndarray:
    """Loader's deviance term x log(x / m) + m - x at m = m_hi + m_lo.

    Where x is within 10% of m, by Loader's series in v = (x - m)/(x + m),
    which keeps relative precision; m_lo enters through the derivative
    1 - x / m, so the rounding of m costs nothing.
    """
    d = x - m_hi
    v = d / (x + m_hi)
    v2 = v * v
    term = 2.0 * x * v
    near = d * v
    for j in range(1, _BD0_TERMS + 1):
        term = term * v2
        near = near + term / (2 * j + 1)
    far = x * np.log(x / m_hi) - d
    value = np.where(np.abs(d) < 0.1 * (x + m_hi), near, far)
    return value + (1.0 - x / m_hi) * m_lo


def _log_beta_power(
    c: np.ndarray, n: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """log(x^a (1 - x)^b / B(a, b)) at a = c + 1, b = n - c, for 0 < c < n.

    That is log((n - c) x Binom(c; n, x)), with Loader's saddle-point form
    of the binomial mass (Loader 2000): stirlerr and bd0 terms, no lgamma
    difference, so it keeps relative precision at any n. n x and n (1 - x)
    are carried as exact sums of two doubles.
    """
    r = n - c
    m_hi, m_lo = _two_product(x, n)
    q_hi, q_lo = _two_sum(-x, 1.0)
    nq_hi, nq_lo = _two_product(q_hi, n)
    return (
        np.log(r * x)
        + _stirlerr(n)
        - _stirlerr(c)
        - _stirlerr(r)
        - _bd0(c, m_hi, m_lo)
        - _bd0(r, nq_hi, nq_lo + n * q_lo)
        - 0.5 * np.log(2.0 * math.pi * c * (r / n))
    )


def _beta_fraction(
    a: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    lam: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(I_x(a, b) B(a, b) / (x^a y^b), terms taken) for lam >= 0.

    y = 1 - x and lam = a - (a + b) x, each formed by the caller where it
    is exact or nearly so. This is Didonato & Morris's continued fraction
    (ACM TOMS 708, 1992, bfrac): for lam >= 0 every partial numerator and
    denominator is nonnegative until an integer b ends it, so its forward
    recurrence cancels nothing, and the whole distance from the mean sits
    in lam. A point stops when a term moves the value by at most _CF_TOL
    relative.
    """
    out, terms = np.empty_like(x), np.empty_like(x)
    idx = np.arange(x.size)
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    # The convergents A / B, rescaled after each term so that B = 1: an and
    # bn are the previous A and B over the current B, and r the current.
    an, bn = np.zeros_like(x), np.ones_like(x)
    r = c1 / c
    an, bn = an * r, bn * r
    for k in range(1, _CF_MAX_TERMS + 1):
        t = k / a
        p = (k - 1) / a + 1.0
        s = a + (2 * k - 1)
        w = (k * (b - k)) * x
        e = a / s
        alpha = p * (p + c0) * (e * e) * (w * x)
        beta = k + w / s + (t + 1.0) / (c1 + t + t) * (c + k * yp1)
        new_a = alpha * an + beta * r
        new_b = alpha * bn + beta
        r0, r = r, new_a / new_b
        an, bn = r0 / new_b, 1.0 / new_b
        # The convergents alternate about the limit, so the last move
        # bounds the truncation.
        done = np.abs(r - r0) <= _CF_TOL * r
        if done.any():
            out[idx[done]], terms[idx[done]] = r[done], k
            keep = ~done
            if not keep.any():
                return out, terms
            idx, a, b, x, c, c0, c1, yp1, an, bn, r = (
                v[keep] for v in (idx, a, b, x, c, c0, c1, yp1, an, bn, r)
            )
    raise ArithmeticError(
        f"the incomplete beta fraction did not converge in {_CF_MAX_TERMS} "
        "terms"
    )


def _log_beta_tail(
    c: np.ndarray, n: np.ndarray, x: np.ndarray, lower: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log T, log M, error bound on log T) at a = c + 1, b = n - c, 0 < c < n.

    T is P = I_x(a, b) when lower, else Q = 1 - P = I_(1-x)(b, a); M is
    x^a (1 - x)^b / B(a, b), the slope of P in logit x. The fraction
    evaluates V, the side with lam = a - (a + b) x >= 0 or its mirror; T
    = 1 - V on the other side, where V, at most the mass below the mean,
    is below 2/3. The bound is the stated error of log V, _LOG_BETA_ERR +
    _LOG_BETA_REL_ERR |log M| + _CF_TERM_ERR per term, times V / T.
    """
    a, b = c + 1.0, n - c
    log_m = _log_beta_power(c, n, x)
    # a + b = n + 1 is exact, and (n + 1) x = hi + lo exactly.
    hi, lo = _two_product(x, n + 1.0)
    lam = (a - hi) - lo
    swap = lam < 0.0
    frac, terms = _beta_fraction(
        np.where(swap, b, a),
        np.where(swap, a, b),
        np.where(swap, 1.0 - x, x),
        np.where(swap, x, 1.0 - x),
        np.abs(lam),
    )
    log_v = log_m + np.log(frac)
    same = swap != lower
    log_t = np.where(same, log_v, np.log1p(-np.exp(log_v)))
    error = (
        _LOG_BETA_ERR + _LOG_BETA_REL_ERR * np.abs(log_m) + _CF_TERM_ERR * terms
    ) * np.where(same, 1.0, np.exp(log_v - log_t))
    return log_t, log_m, error


def _logit_move(x: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The x whose logit is logit(x) + shift, without forming the logit."""
    return x / (x + (1.0 - x) * np.exp(-shift))


def _cp_limit(c: np.ndarray, n: np.ndarray, gamma: float) -> np.ndarray:
    """The x with I_x(c + 1, n - c) = gamma for 0 < c < n, rounded up.

    A safeguarded Newton iteration on g = log T - log t in y = logit x,
    where T and t are P and gamma for gamma < 1/2, else Q = 1 - P and
    1 - gamma; g is concave in y, as P and Q are the distribution
    functions of a log-concave density in y, so after its first step each
    point nears the root from one side. It starts from the normal
    approximation of Numerical Recipes' invbetai and steps at most _MAX_STEP
    in y. Once |g| <= _NEWTON_DONE, or no double lies between x and the
    root, the point moves by the Newton step, whose remaining error is
    below g^2, plus (e + g^2) / |g'|, where e is _log_beta_tail's bound on
    the error of log T, and then up by 2^-50 relative for the rounding of
    that move. Over n from 3 to 1e9 and gamma from 1e-6 to 1 - 1e-12 that
    rounding up stayed below 1.1e-13 relative, under _CP_REL_ERR.
    """
    lower = gamma < 0.5
    log_t_target = math.log(gamma) if lower else math.log1p(-gamma)
    sign = 1.0 if lower else -1.0
    a, b = c + 1.0, n - c
    z = float(_ndtri(gamma))
    lam = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
    w = -z * np.sqrt(h + lam) / h - (
        1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)
    ) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
    x = np.clip(a / (a + b * np.exp(2.0 * w)), _X_MIN, _X_MAX)
    out = np.empty_like(x)
    idx = np.arange(x.size)
    for _ in range(_CP_MAX_PASSES):
        log_t, log_m, error = _log_beta_tail(c, n, x, lower)
        g = log_t - log_t_target
        # dg/dy = sign M / T.
        slope = sign * np.exp(log_m - log_t)
        step = -g / slope
        after = np.clip(
            _logit_move(x, np.clip(step, -_MAX_STEP, _MAX_STEP)), _X_MIN, _X_MAX
        )
        done = (np.abs(g) <= _NEWTON_DONE) | (after == x)
        last = _logit_move(x, step + (error + g * g) / np.abs(slope))
        out[idx[done]] = last[done] * (1.0 + 2.0**-50)
        keep = ~done
        if not keep.any():
            return np.minimum(out, 1.0)
        idx, c, n, x = idx[keep], c[keep], n[keep], after[keep]
    raise ArithmeticError(
        f"the Clopper-Pearson limit did not converge in {_CP_MAX_PASSES} steps"
    )


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


def _pooled_quantiles(
    s0: np.ndarray, s1: np.ndarray, levels: np.ndarray
) -> np.ndarray:
    """np.quantile(np.concatenate([s0, s1]), levels) from the sorted s0, s1.

    Follows numpy's default 'linear' rule bit for bit. Of n pooled values,
    level q has virtual index v = (n - 1) q, and interpolates the order
    statistics a and b of ranks floor(v) and floor(v) + 1 with weight
    g = v - floor(v) as a + (b - a) g, or as b - (b - a) (1 - g) where
    g >= 1/2. Where v >= n - 1 numpy takes the largest value for both,
    with g = v + 1. The scores must hold no NaN; as in np.quantile, of
    tied 0.0 and -0.0 either may be taken.

    The value of rank r is the larger of s0[i - 1] and s1[r - i], where i
    values of the r + 1 smallest come from s0: i is the least count in
    its feasible range that is the range's top or has s0[i] >= s1[r - i],
    found by bisection for every rank at once.
    """
    n0, n1 = s0.size, s1.size
    n = n0 + n1
    virtual = (n - 1) * levels
    top = virtual >= n - 1
    below = np.where(top, -1.0, np.floor(virtual))
    gamma = virtual - below
    rank = np.where(top, n - 1, below).astype(np.intp)
    ranks = np.concatenate([rank, np.where(top, rank, rank + 1)])
    if n0 == 0 or n1 == 0:
        values = (s1 if n0 == 0 else s0)[ranks]
    else:
        lo = np.maximum(ranks + 1 - n1, 0)
        hi = np.minimum(ranks + 1, n0)
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            # Clipped only where lo == hi, whose comparison is not used.
            enough = (mid == hi) | (
                s0[np.minimum(mid, n0 - 1)] >= s1[np.maximum(ranks - mid, 0)]
            )
            lo = np.where(enough, lo, mid + 1)
            hi = np.where(enough, mid, hi)
        from1 = ranks + 1 - lo
        values = np.maximum(
            np.where(lo > 0, s0[np.maximum(lo - 1, 0)], -np.inf),
            np.where(from1 > 0, s1[np.maximum(from1 - 1, 0)], -np.inf),
        )
    a, b = np.split(values, 2)
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def sweep_thresholds(
    null: np.ndarray,
    alternative: np.ndarray,
    confidence: float,
    delta: float,
) -> ThresholdSweep:
    """Evaluates the lower bound over a fixed grid of score thresholds.

    Candidate thresholds are 512 empirical quantiles of the pooled
    max-score sample: 256 uniform levels covering the bulk plus 256
    log-spaced levels resolving the upper tail, where the
    bound-maximizing threshold of a max-score game sits. They are taken
    from the two sorted classes (_pooled_quantiles), bit for bit the
    np.quantile of the pooled scores, without pooling them. A trial
    guesses truth 1 when its score exceeds the threshold.
    False-positive and false-negative counts at each threshold receive
    one-sided Clopper-Pearson upper limits at the level matching the
    given two-sided confidence.

    Each class is sorted in place, the two on two threads when together
    they fill more than one game block, so the sweep takes no copy of the
    scores.

    Args:
      null: max scores of the truth-0 trials, a float array; sorted in
        place.
      alternative: max scores of the truth-1 trials, a float array;
        sorted in place.
      confidence: two-sided confidence level for the rate bounds.
      delta: additive slack of the guarantee being tested.

    Returns:
      The per-threshold summary.
    """
    big = null.size + alternative.size > _BLOCK_SIZE
    _run_jobs([null.sort, alternative.sort], 2 if big and thread_count() > 1 else 1)
    thresholds = np.unique(_pooled_quantiles(null, alternative, _sweep_levels()))
    n0, n1 = null.size, alternative.size
    fp_cnt = n0 - np.searchsorted(null, thresholds, side="right")
    fn_cnt = np.searchsorted(alternative, thresholds, side="right")
    side = _one_sided(confidence)
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
    null, alternative = simulate_game(cfg)
    return sweep_thresholds(null, alternative, cfg.confidence, cfg.delta)
