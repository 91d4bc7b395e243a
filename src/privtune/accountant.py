"""Privacy upper bounds for best-of-k private selection.

Given a base mechanism described by a trade-off curve and a run-count
distribution xi, this module computes two upper bounds on the privacy of
releasing the highest-scoring run: a trade-off-function bound (the base
curve converted at a deflated delta plus a run-count log-ratio penalty)
and a Renyi-divergence bound for comparison. It also calibrates the
noise multiplier that makes iterated noisy training meet a target
(epsilon, delta) budget.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from typing import Callable

import numpy as np

from ._numerics import _ROUNDOFF, _bisect, _log_factorials, _logsumexp_rows
from .runcount import RunCountDist, TruncatedNegativeBinomial
from .tradeoff import (
    COMPLEMENT_REL_ERR,
    DpSgdConfig,
    GaussianCurve,
    TradeoffCurve,
    fdp_to_eps_delta,
    gdp_approx_mu,
    gdp_mu_from_eps_delta,
)

__all__ = [
    "AccountantReport",
    "log_ratio_max",
    "select_epsilon_fdp",
    "subsampled_rdp_curve",
    "rdp_to_eps",
    "select_epsilon_rdp",
    "select_epsilon_rdp_pure",
    "calibrate_sigma_rdp",
    "calibrate_sigma_gdp",
    "base_curve_for",
]

_GRID_SIZE = 10001
# One point per decade below the uniform grid's first cell, so that a
# maximizer far below 1e-4 lies between two grid points.
_LOG_GRID = np.logspace(-300.0, -5.0, 296)
_REFINE_TOL = 1e-8
# Points per refinement round of log_ratio_max: each round narrows the
# bracket 32-fold in one array evaluation.
_REFINE_POINTS = 65

# Renyi orders for the selection bound: fractional orders near 1 plus all
# integer orders up to 512.
SPEC_ALPHAS = np.concatenate([np.arange(1.1, 2.05, 0.1), np.arange(3.0, 513.0)])
_INT_ALPHAS = np.arange(2.0, 513.0)
# Orders per (order x j) array of the subsampled bound; an array spans
# j = 0..max order of its chunk, so all 511 integer orders at once would
# need 511 x 513 floats per temporary.
_ORDER_CHUNK = 64
# How far calibrate_sigma_rdp's chunk check lowers each log-sum, relative
# to max(1, |log-sum|): twice the error bound of _logsumexp_rows on a row
# of at most 513 entries derived in its docstring, and the subtraction.
_CHUNK_SLACK = 2048 * _ROUNDOFF

# Largest order of the pure-DP selection bound, as prior practice capped it.
_PURE_ALPHA_CAP = 256.0

# Dense order grid for noise calibration, where the minimum over orders
# must track the budget smoothly.
_ALPHA_DENSE = np.concatenate(
    [
        np.linspace(1.001, 2.0, 1000, endpoint=False),
        np.linspace(2.0, 64.0, 6201),
        np.linspace(64.0, 2048.0, 4001)[1:],
    ]
)


@dataclasses.dataclass(frozen=True)
class AccountantReport:
    """Result of the trade-off-function selection bound.

    Attributes:
      eps_h: the final epsilon bound for the selection protocol.
      delta_h: the target delta the bound is stated at.
      eps_base: base-mechanism epsilon, the conversion at delta_h / E[k];
        eps_h = eps_base + log_ratio.
      log_ratio: run-count penalty, nonnegative.
      argmax_a: maximizer of the log-ratio objective.
      method: "FDP_OURS", naming the route in printed reports.
    """

    eps_h: float
    delta_h: float
    eps_base: float
    log_ratio: float
    argmax_a: float
    method: str


def log_ratio_max(
    curve: TradeoffCurve, dist: RunCountDist
) -> tuple[float, float]:
    """Upper value of the maximum of log(omega(1 - a) / omega(f(a))) on [0, 1].

    Both run-count families have omega(x) = c (alpha + beta x)^p
    (``RunCountDist.omega_form``), so c cancels and the objective is
    p log(u / v) with u = (alpha + beta) - beta a and v the base at f(a),
    formed as (alpha + beta) - beta (1 - f(a)) to keep its digits where f
    is near 1, or as alpha + beta f(a) where alpha = 0:
      - a truncated negative binomial has p = -(eta + 1), so the objective
        is (eta + 1) log(v / u) with v = 1 - (1 - nu) f(a) concave and
        u = nu + (1 - nu) a affine and positive;
      - a point mass at k has p = k - 1, so the objective is
        (k - 1) log((1 - a) / f(a)), an affine function over a convex one.
    Both ratios have convex superlevel sets {r >= t}, as v - t u and
    1 - a - t f(a) are concave, and r is constant on a stretch only at its
    maximum: a concave function that vanishes on [c, d] is <= 0 outside
    it. So for every convex nonincreasing f, as every trade-off curve is,
    the neighbours of the best of a set of points hold a maximizer.

    The objective is evaluated on a uniform grid of 10^4 cells plus one
    point per decade from 1e-300 to 1e-5. The best grid point's
    neighbours bracket the maximizer, and each round evaluates 65 evenly
    spaced points of the bracket and keeps the neighbours of the best,
    until the bracket [lo, hi] stops shrinking, within 2 ulps. Since
    omega(1 - a) and omega(f(a)) are both nonincreasing in a, the
    objective on [lo, hi] is at most p (log u(lo) - log v(hi)). That
    value is rounded up by its float error and returned, a few ulps above
    the objective at the maximizer. The error is three roundings in each
    base (beta, the product and the sum), the complement's stated error
    in v and one rounding in each log, relative to its size, all times
    |p|, plus one rounding each in p, the difference and the product.
    Each point the search evaluates carries the same error, so where the
    objective is flat within it the bracket can settle beside the
    maximizer. The round-up has covered that too: against a 40-digit
    supremum, no value came out below it, on the 64 inputs of
    tests/test_accountant.py or on 29,472 random ones.

    A point mass at k >= 2, where omega(0) = pmf(1) = 0, is the
    exception. Near a = 1 its objective is unbounded (a Gaussian curve)
    or infinite past the point where an (eps, delta) curve reaches 0.
    Its search stops at a bracket 1e-8 wide and returns the best value
    it evaluated, which is not an upper bound.

    The objective is 0 at both endpoints for curves with f(0) = 1 and
    f(1) = 0, and the maximum is always nonnegative.

    Args:
      curve: base trade-off curve f.
      dist: run-count distribution supplying omega's form.

    Returns:
      A pair (maximum value, maximizer a); the value is infinite when the
      objective is infinite at a grid point.
    """
    _, alpha, beta, total, p = dist.omega_form
    if p == 0.0:
        return 0.0, 0.0
    vanishes = alpha == 0.0

    def bases(a: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        if vanishes:
            return total - beta * a, alpha + beta * curve(a)
        return total - beta * a, total - beta * curve.complement(a)

    def objective(a: np.ndarray) -> np.ndarray:
        u, v = bases(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = p * (np.log(u) - np.log(v))
        return np.where(np.isnan(vals), -np.inf, vals)

    points = np.concatenate(
        [[0.0], _LOG_GRID, np.linspace(0.0, 1.0, _GRID_SIZE)[1:]]
    )
    lo = hi = math.nan
    tol = _REFINE_TOL if vanishes else 0.0
    value, arg = -math.inf, math.nan
    while True:
        vals = objective(points)
        best = int(np.argmax(vals))
        if vals[best] > value:
            value, arg = float(vals[best]), float(points[best])
        if math.isinf(value):
            return math.inf, arg
        bracket = points[max(best - 1, 0)], points[min(best + 1, points.size - 1)]
        if bracket == (lo, hi) or bracket[1] - bracket[0] <= tol:
            break
        lo, hi = bracket
        points = np.linspace(lo, hi, _REFINE_POINTS)
    if not vanishes:
        logs = math.log(bases(lo)[0]), math.log(bases(hi)[1])
        value = p * (logs[0] - logs[1])
        value += abs(p) * (
            COMPLEMENT_REL_ERR + _ROUNDOFF * (6.0 + abs(logs[0]) + abs(logs[1]))
        ) + 3.0 * _ROUNDOFF * abs(value)
    return max(value, 0.0), float(arg)


def select_epsilon_fdp(
    curve: TradeoffCurve, dist: RunCountDist, delta_h: float
) -> AccountantReport:
    """Trade-off-function privacy bound for best-of-k selection.

    Converts the base curve to epsilon at the deflated level
    delta_h / E[k] and adds the run-count log-ratio penalty.

    Args:
      curve: base trade-off curve.
      dist: run-count distribution.
      delta_h: target delta for the selection guarantee, in (0, 1).

    Returns:
      An AccountantReport with method "FDP_OURS"; eps_h is infinite when
      the deflated delta is below 1 - f(0).

    Raises:
      ValueError: if delta_h is outside (0, 1) or the deflated delta is
        above 1 or subnormal, where the conversion's error bound fails.
    """
    if not 0.0 < delta_h < 1.0:
        raise ValueError(f"delta_h must lie in (0, 1), got {delta_h}")
    per_run_delta = delta_h / dist.mean
    if not sys.float_info.min <= per_run_delta <= 1.0:
        raise ValueError(
            f"delta_h={delta_h} deflates to a per-run delta of "
            f"{per_run_delta}, outside [2^-1022, 1]"
        )
    eps_base = fdp_to_eps_delta(curve, per_run_delta)
    log_ratio, argmax_a = log_ratio_max(curve, dist)
    return AccountantReport(
        eps_h=eps_base + log_ratio,
        delta_h=delta_h,
        eps_base=eps_base,
        log_ratio=log_ratio,
        argmax_a=argmax_a,
        method="FDP_OURS",
    )


def subsampled_rdp_curve(
    tau: float, orders: np.ndarray
) -> Callable[[float, int], np.ndarray]:
    """Renyi bound of the subsampled Gaussian at integer orders, per sigma.

    The bound at order a is the binomial expansion of Mironov, Talwar and
    Zhang (2019), composed N times:
    N / (a - 1) * log sum_{j=0}^{a} C(a, j) (1 - tau)^(a - j) tau^j
    e^(j (j - 1) / (2 sigma^2)). The sigma-independent log terms are built
    once per (tau, orders) and shared by every later call (see
    _SubsampledRdp); the returned function adds j (j - 1) / (2 sigma^2)
    and reduces each row with _logsumexp_rows.

    Args:
      tau: sampling ratio in (0, 1).
      orders: integer Renyi orders, each at least 2.

    Returns:
      A function of (sigma, n_iters) giving the bound at every order.

    Raises:
      ValueError: if tau is outside (0, 1) or an order is not an integer
        of at least 2.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    orders = np.asarray(orders, dtype=float)
    if np.any(orders < 2.0) or np.any(orders != np.floor(orders)):
        raise ValueError(f"orders must be integers >= 2, got {orders!r}")
    return _subsampled_rdp(tau, tuple(orders.tolist())).gammas


class _SubsampledRdp:
    """The subsampled Gaussian's Renyi bound, evaluated by chunks of orders.

    Holds the sigma-independent log terms as (order x j) arrays of
    _ORDER_CHUNK orders each, with -inf where j > a, the log binomials
    taken from one table of log k!. Each order's row is reduced on its
    own, so a run of chunks evaluated alone gives the same bits as it does
    inside the full curve. The arrays are read-only.
    """

    def __init__(self, tau: float, orders: tuple[float, ...]) -> None:
        alphas = np.array(orders)
        self.denominators = alphas - 1.0
        log_factorial = _log_factorials(int(alphas.max()))
        self.chunks: list[np.ndarray] = []
        for start in range(0, alphas.size, _ORDER_CHUNK):
            a = alphas[start : start + _ORDER_CHUNK, None].astype(int)
            js = np.arange(int(a.max()) + 1)
            inside = js <= a
            terms = (
                log_factorial[a]
                - log_factorial[js]
                - log_factorial[np.where(inside, a - js, 0)]
                + (a - js) * math.log1p(-tau)
                + js * math.log(tau)
            )
            self.chunks.append(np.where(inside, terms, -np.inf))
        self.pairs = np.arange(alphas.max() + 1.0)
        self.pairs *= self.pairs - 1.0
        for array in (self.denominators, self.pairs, *self.chunks):
            array.flags.writeable = False

    def log_sums(
        self, sigma: float, first: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """The log-sum of each order's terms at sigma, for chunks first..stop - 1."""
        scale = 2.0 * sigma**2
        return np.concatenate(
            [
                _logsumexp_rows(terms + self.pairs[: terms.shape[1]] / scale)
                for terms in self.chunks[first:stop]
            ]
        )

    def gammas(self, sigma: float, n_iters: int) -> np.ndarray:
        """The bound at every order."""
        return n_iters * self.log_sums(sigma) / self.denominators


@functools.lru_cache(maxsize=8)
def _subsampled_rdp(tau: float, orders: tuple[float, ...]) -> _SubsampledRdp:
    """The one _SubsampledRdp of each recently used (tau, orders)."""
    return _SubsampledRdp(tau, orders)


def rdp_to_eps(
    gamma: np.ndarray | float,
    alpha: np.ndarray | float,
    delta: float,
    rule: str = "tight",
) -> np.ndarray | float:
    """Converts an order-alpha Renyi bound gamma to epsilon at delta.

    Args:
      gamma: Renyi bound value(s).
      alpha: Renyi order(s), greater than 1.
      delta: target delta in (0, 1).
      rule: "tight" for the conversion with the log(alpha) correction
        terms, "classic" for gamma + log(1/delta)/(alpha - 1).

    Returns:
      Epsilon value(s), broadcast over the inputs.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    g = np.asarray(gamma, dtype=float)
    a = np.asarray(alpha, dtype=float)
    if rule == "classic":
        out = g + math.log(1.0 / delta) / (a - 1.0)
    elif rule == "tight":
        gain, cost = _tight_terms(a, delta)
        out = g + gain - cost
    else:
        raise ValueError(f"unknown conversion rule {rule!r}")
    if np.ndim(gamma) == 0 and np.ndim(alpha) == 0:
        return float(out)
    return out


def _tight_terms(
    alpha: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """The tight rule's order terms: epsilon = (gamma + gain) - cost."""
    return np.log1p(-1.0 / alpha), (math.log(delta) + np.log(alpha)) / (alpha - 1.0)


def _tnb_hat_epsilon(
    gammas: np.ndarray,
    alphas: np.ndarray,
    eta: float,
    nu: float,
    mean: float,
    delta_h: float,
    rule: str,
) -> float:
    """Minimum converted epsilon of the lifted Renyi bound over order pairs.

    The lifted bound at orders (alpha, alpha') is
    (gamma(alpha) + T(alpha')) + log(mean) / (alpha - 1), with the alpha'
    term T(alpha') = (1+eta)(1 - 1/alpha') gamma(alpha')
    + (1+eta) log(1/nu) / alpha'. For fixed alpha its converted epsilon
    adds and subtracts alpha-only terms to T(alpha') one rounding at a
    time. Float addition rounds monotonically, as does every later step of
    either conversion rule, so the epsilon is nondecreasing in T(alpha'):
    every alpha attains its pair minimum at alpha' = argmin T, and one
    pass over alpha with that T gives the same double as the minimum over
    all pairs.
    """
    lift = 1.0 + eta
    t = lift * (1.0 - 1.0 / alphas) * gammas + lift * math.log(1.0 / nu) / alphas
    hat = gammas + np.min(t) + math.log(mean) / (alphas - 1.0)
    return float(np.min(rdp_to_eps(hat, alphas, delta_h, rule)))


def select_epsilon_rdp(
    config: DpSgdConfig,
    dist: RunCountDist,
    delta_h: float,
) -> float:
    """Renyi-divergence privacy bound for best-of-k selection.

    Lifts the base Renyi curve of the training configuration through the
    truncated-negative-binomial selection bound, converts it to epsilon
    at delta_h with the tight rule and takes the minimum over orders, in
    one pass (_tnb_hat_epsilon).

    Args:
      config: training parameters (sigma, tau, n_iters).
      dist: run-count distribution; must be TruncatedNegativeBinomial.
      delta_h: target delta for the selection guarantee, in (0, 1).

    Returns:
      The selection epsilon at delta_h.

    Raises:
      ValueError: if dist is not TruncatedNegativeBinomial or delta_h is
        outside (0, 1).
    """
    if not isinstance(dist, TruncatedNegativeBinomial):
        raise ValueError(
            "the Renyi selection bound requires a TruncatedNegativeBinomial "
            f"run count, got {type(dist).__name__}"
        )
    if not 0.0 < delta_h < 1.0:
        raise ValueError(f"delta_h must lie in (0, 1), got {delta_h}")
    if config.tau == 1.0:
        alphas = SPEC_ALPHAS
        gammas = config.n_iters * alphas / (2.0 * config.sigma**2)
    else:
        alphas = _INT_ALPHAS
        curve = subsampled_rdp_curve(config.tau, alphas)
        gammas = curve(config.sigma, config.n_iters)
    return _tnb_hat_epsilon(
        gammas, alphas, dist.eta, dist.nu, dist.mean, delta_h, "tight"
    )


def select_epsilon_rdp_pure(
    epsilon: float,
    dist: TruncatedNegativeBinomial,
    delta_h: float,
) -> float:
    """Renyi selection bound for a pure-DP base, in prior conventions.

    Uses the exact Renyi curve of an epsilon-DP mechanism (attained by
    the two-point pair with p = e^eps / (1 + e^eps) and q = 1 - p), the
    classic conversion, and Renyi orders capped at 256, reproducing how
    earlier accounting practice stated this bound. The curve is
    log(p^a q^(1-a) + q^a p^(1-a)) / (a - 1); with log p - log q = eps
    and log p = -log1p(e^-eps) it is formed in log space, so no epsilon
    overflows.

    Args:
      epsilon: pure-DP parameter of the base mechanism.
      dist: truncated-negative-binomial run count.
      delta_h: target delta for the selection guarantee.

    Returns:
      The predicted selection epsilon at delta_h.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    alphas = SPEC_ALPHAS[SPEC_ALPHAS <= _PURE_ALPHA_CAP]
    log_p = -math.log1p(math.exp(-epsilon))
    gammas = np.logaddexp(
        log_p + (alphas - 1.0) * epsilon, log_p - alphas * epsilon
    ) / (alphas - 1.0)
    return _tnb_hat_epsilon(
        gammas, alphas, dist.eta, dist.nu, dist.mean, delta_h, rule="classic"
    )


def _out_of_reach(
    eps_b: float,
    n_iters: int,
    sigmas: tuple[float, float],
    eps_at: Callable[[float], float],
) -> ValueError:
    """The error for an eps_b that no sigma in the search bracket meets."""
    where = (
        f"eps_b={eps_b} is out of reach: sigma in "
        f"[{sigmas[0]:.6g}, {sigmas[1]:.6g}]"
    )
    try:
        ends = sorted(eps_at(s) for s in sigmas)
    except ValueError as exc:
        return ValueError(
            f"{where} at n_iters={n_iters} leaves the base curve's domain "
            f"({exc})"
        )
    return ValueError(f"{where} gives eps_b in [{ends[0]:.6g}, {ends[1]:.6g}]")


def calibrate_sigma_rdp(
    eps_b: float, delta: float, tau: float, n_iters: int
) -> float:
    """Noise multiplier meeting an (eps_b, delta) budget under Renyi accounting.

    Finds sigma such that the composed training mechanism's Renyi curve,
    minimized over a dense order grid and converted with the tight rule,
    equals eps_b at delta. The bisection returns the larger sigma of its
    final pair, whose epsilon is at most eps_b.

    At tau < 1 most steps evaluate a few of the 8 chunks of orders, and
    the result is still that of bisecting on every order, bit for bit.
    Write f for the minimum of epsilon - eps_b over all orders and f_C
    for it over a run C of whole chunks. A chunk evaluated alone gives
    the bits it gives inside the full curve, so f_C >= f, and where f_C
    <= 0 the step goes the way it would on every order. The bisection
    takes every order until its bracket [lo, hi] has hi <= 2 lo. C is
    then the chunks that hold the minimizing order at lo and at hi, those
    between and one more on each side, and the bisection goes on over C
    down to adjacent floats (lo', hi'). A step whose f_C > 0 moved lo to
    some sigma s < hi'; the step went astray only if an order outside C
    had epsilon <= eps_b at s. The check rules that out at once for
    every such s: each order's epsilon decreases with sigma, and in
    floats it can rise only by the log-sum's error at each end, as every
    other step is a monotone float operation. _logsumexp_rows states that
    error, (578 + log-sum) 2^-53 at most, and the log-sum is largest at
    lo. So if every order outside C, with its log-sum at hi' lowered by
    _CHUNK_SLACK times max(1, log-sum at lo), still has epsilon > eps_b,
    no step went astray and hi' is the full bisection's. Otherwise the
    bisection runs again from [lo, hi] on every order. The check holds on
    the inputs of tests/test_accountant.py; its failure is forced there.

    Args:
      eps_b: target base epsilon, positive.
      delta: target delta in (0, 1).
      tau: sampling ratio in (0, 1].
      n_iters: number of training iterations, from 1 to the largest
        float.

    Returns:
      The calibrated noise multiplier sigma.

    Raises:
      ValueError: if an argument is outside its range, naming it, or
        eps_b is out of reach of the sigma search bracket.
    """
    if not eps_b > 0.0:
        raise ValueError(f"eps_b must be > 0, got {eps_b}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if n_iters < 1:
        raise ValueError(f"n_iters must be >= 1, got {n_iters}")
    if n_iters > sys.float_info.max:
        raise ValueError(f"n_iters={n_iters} is too large for a float")
    if tau == 1.0:
        # The composed Renyi curve is rho * alpha, rho = N / (2 sigma^2);
        # the bracket spans rho from 50 down to 1e-8.
        gain, cost = _tight_terms(_ALPHA_DENSE, delta)

        def eps_at(sigma: float) -> float:
            rho = n_iters / (2.0 * sigma**2)
            return float(np.min(rho * _ALPHA_DENSE + gain - cost))

        bracket = (math.sqrt(n_iters / 100.0), math.sqrt(n_iters / 2e-8))
    else:
        bound = _subsampled_rdp(tau, tuple(_INT_ALPHAS.tolist()))
        gain, cost = _tight_terms(_INT_ALPHAS, delta)

        def eps_of(sums: np.ndarray, orders: slice = slice(None)) -> np.ndarray:
            """Epsilon at the given orders from their log-sums."""
            return (
                n_iters * sums / bound.denominators[orders]
                + gain[orders]
                - cost[orders]
            )

        def eps_at(sigma: float) -> float:
            return float(np.min(eps_of(bound.log_sums(sigma))))

        bracket = (0.3, 1e4)
    try:
        if tau == 1.0:
            return _bisect(lambda s: eps_at(s) - eps_b, *bracket)[1]
        return _bisect_by_chunks(bound, eps_of, eps_b, *bracket)
    except ValueError:
        raise _out_of_reach(eps_b, n_iters, bracket, eps_at) from None


def _bisect_by_chunks(
    bound: _SubsampledRdp,
    eps_of: Callable[..., np.ndarray],
    eps_b: float,
    lo: float,
    hi: float,
) -> float:
    """calibrate_sigma_rdp's bisection at tau < 1; its docstring has the argument.

    Raises ValueError, as _bisect does, when [lo, hi] holds no sign change.
    """

    def gap(sums: np.ndarray, orders: slice = slice(None)) -> float:
        return float(np.min(eps_of(sums, orders))) - eps_b

    def full(sigma: float) -> float:
        return gap(bound.log_sums(sigma))

    ends = bound.log_sums(lo), bound.log_sums(hi)
    if not gap(ends[0]) > 0.0 >= gap(ends[1]):
        return _bisect(full, lo, hi)[1]
    while hi > 2.0 * lo and (mid := 0.5 * (lo + hi)) not in (lo, hi):
        sums = bound.log_sums(mid)
        if gap(sums) > 0.0:
            lo, ends = mid, (sums, ends[1])
        else:
            hi, ends = mid, (ends[0], sums)
    picks = [int(np.argmin(eps_of(sums))) // _ORDER_CHUNK for sums in ends]
    first, stop = max(min(picks) - 1, 0), min(max(picks) + 2, len(bound.chunks))
    inside = slice(first * _ORDER_CHUNK, stop * _ORDER_CHUNK)
    top = _bisect(lambda s: gap(bound.log_sums(s, first, stop), inside), lo, hi)[1]
    slack = _CHUNK_SLACK * np.maximum(1.0, np.abs(ends[0]))
    floor = eps_of(bound.log_sums(top) - slack)
    floor[inside] = np.inf
    if np.min(floor) > eps_b:
        return top
    return _bisect(full, lo, hi)[1]


def calibrate_sigma_gdp(
    eps_b: float, delta: float, tau: float, n_iters: int
) -> float:
    """Noise multiplier whose composed Gaussian-DP level matches a budget.

    Inverts the composed noisy-gradient Gaussian-DP approximation so
    that the base mechanism satisfies (eps_b, delta)-DP. The bisection
    returns the larger sigma of its final pair, whose mu is at most the
    target.

    Args:
      eps_b: target privacy parameter of the base mechanism.
      delta: target additive slack.
      tau: sampling rate in (0, 1].
      n_iters: number of composed iterations.

    Returns:
      The calibrated noise multiplier, searched in [1, 1e5].

    Raises:
      ValueError: if an argument is outside its range, or eps_b is out of
        reach of the sigma search bracket.
    """
    mu_target = gdp_mu_from_eps_delta(eps_b, delta)
    unit = DpSgdConfig(1.0, tau, n_iters)

    def mu_at(sigma: float) -> float:
        return gdp_approx_mu(dataclasses.replace(unit, sigma=sigma))

    def eps_at(sigma: float) -> float:
        return fdp_to_eps_delta(GaussianCurve(mu_at(sigma)), delta)

    try:
        return _bisect(lambda s: mu_at(s) - mu_target, 1.0, 1e5)[1]
    except ValueError:
        raise _out_of_reach(eps_b, n_iters, (1.0, 1e5), eps_at) from None


def base_curve_for(config: DpSgdConfig) -> GaussianCurve:
    """Gaussian trade-off curve induced by a training configuration.

    For tau = 1 the composed mechanism is exactly sqrt(N)/sigma-GDP; for
    tau < 1 the central-limit approximation of gdp_approx_mu is used.
    """
    if config.tau == 1.0:
        return GaussianCurve(math.sqrt(config.n_iters) / config.sigma)
    return GaussianCurve(gdp_approx_mu(config))

