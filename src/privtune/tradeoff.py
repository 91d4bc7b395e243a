"""Trade-off functions and conversions between privacy representations.

A trade-off function f maps a type-I error level x in [0, 1] to the
smallest achievable type-II error f(x) for testing one input of a
mechanism against an adjacent one. Two families are provided: the
piecewise-linear curve equivalent to (epsilon, delta)-DP and the Gaussian
curve G_mu. The module also converts between the two representations and
computes the Gaussian-DP parameter induced by noisy iterative training.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from ._numerics import (
    _LOG_SQRT_2PI,
    _NDTR_REL_ERR,
    _NDTR_ZERO_BELOW,
    _ROUNDOFF,
    _bisect,
    _log_ndtr_float,
    _ndtr,
    _ndtr_float,
    _ndtri,
    _pdf,
    _two_product,
    _two_sum,
)

__all__ = [
    "TradeoffCurve",
    "EpsDeltaCurve",
    "GaussianCurve",
    "COMPLEMENT_REL_ERR",
    "DpSgdConfig",
    "fdp_to_eps_delta",
    "gdp_delta_of_eps",
    "gdp_mu_from_eps_delta",
    "gdp_approx_mu",
]

# Stated relative error of TradeoffCurve.complement where the log-ratio
# maximum sits, which accountant.log_ratio_max rounds its value up by:
# measured 4.7e-16 for GaussianCurve (see _shifted), and a few ulps for
# EpsDeltaCurve's delta + e^eps x (see _scaled).
COMPLEMENT_REL_ERR = 1e-15
# The largest Gaussian-DP mu taken. _gdp_terms adds the rounding of
# a2 = -eps/mu - mu/2 back through phi(a2) / Phi(a2), formed from a
# rounded a2^2, so its relative error grows as a2^2 ulps. Near the root,
# that term's error is 1e-6 of log Phi's stated error at mu = 1e6, half
# of it at 1e8 and 3 times it at 2e8, where the conversion fell below
# the exact root.
_GDP_MU_MAX = 1e6
# Below this epsilon, e^eps is a finite double.
_LOG_DBL_MAX = math.log(np.finfo(float).max)


def _validate_unit_interval(x: np.ndarray | float, name: str) -> np.ndarray:
    """Returns x as an array after checking every entry lies in [0, 1]."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return arr


class TradeoffCurve:
    """Base class for trade-off functions f: [0, 1] -> [0, 1].

    Subclasses implement ``_evaluate`` and ``_complement`` on a validated
    float array. Instances are callable on scalars or arrays, as is
    ``complement``; scalar input returns a float, array input returns an
    array of the same shape.
    """

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _complement(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return _apply(self._evaluate, x)

    def complement(self, x: np.ndarray | float) -> np.ndarray | float:
        """1 - f(x), computed directly, so it keeps its digits where f is near 1."""
        return _apply(self._complement, x)


def _apply(
    fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray | float
) -> np.ndarray | float:
    """fn on x as a validated 1-d array, shaped back like x."""
    arr = _validate_unit_interval(x, "x")
    out = fn(np.atleast_1d(arr))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out.reshape(arr.shape)


@dataclasses.dataclass(frozen=True)
class EpsDeltaCurve(TradeoffCurve):
    """Trade-off curve of an (epsilon, delta)-DP guarantee.

    f(x) = max(0, 1 - delta - e^eps * x, e^-eps * (1 - delta - x)).

    Attributes:
      epsilon: privacy parameter, nonnegative.
      delta: additive slack in [0, 1].
    """

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must lie in [0, inf), got {self.epsilon}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")

    def _scaled(self, x: np.ndarray) -> np.ndarray:
        """e^eps x, a plain product (two roundings) while e^eps is finite.

        Past eps = log(DBL_MAX) it is exp(eps + log x), which does not
        overflow and is 0 at x = 0.
        """
        if self.epsilon < _LOG_DBL_MAX:
            return math.exp(self.epsilon) * x
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp(self.epsilon + np.log(x))

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        hi = 1.0 - self.delta - self._scaled(x)
        lo = math.exp(-self.epsilon) * (1.0 - self.delta - x)
        return np.maximum(0.0, np.maximum(hi, lo))

    def _complement(self, x: np.ndarray) -> np.ndarray:
        # min(1, delta + e^eps x, 1 - e^-eps (1 - delta - x)).
        lo = 1.0 - math.exp(-self.epsilon) * (1.0 - self.delta - x)
        return np.minimum(1.0, np.minimum(self.delta + self._scaled(x), lo))


@dataclasses.dataclass(frozen=True)
class GaussianCurve(TradeoffCurve):
    """Trade-off curve G_mu of distinguishing N(0, 1) from N(mu, 1).

    G_mu(x) = Phi(Phi^-1(1 - x) - mu), with the endpoints x = 0 and x = 1
    mapped exactly to 1 and 0.

    Attributes:
      mu: Gaussian-DP parameter in [0, 1e6].
    """

    mu: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu <= _GDP_MU_MAX:
            raise ValueError(
                f"mu must lie in [0, {_GDP_MU_MAX:g}], got {self.mu}"
            )

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        return self._shifted(x, -1.0)

    def _complement(self, x: np.ndarray) -> np.ndarray:
        # 1 - G_mu(x) = Phi(Phi^-1(x) + mu).
        return self._shifted(x, 1.0)

    def _shifted(self, x: np.ndarray, sign: float) -> np.ndarray:
        """Phi(sign (Phi^-1(x) + mu)); Phi^-1 maps 0 and 1 to -inf and inf.

        z = Phi^-1(x) is rounded, and Phi(z + mu) would carry z's
        relative error multiplied by about |z| |z + mu| (5e-13 near
        x = 1e-300). So the error of z, (x - Phi(z)) / phi(z) taken in
        the tail that holds x's digits, and the rounding of z + mu are
        added back through phi at the shifted point, one Newton step.
        Against 40-digit mpmath on 3e3 pairs (x in [1e-300, 1 - 1e-16],
        mu in [0.01, 20]) the relative error is within
        COMPLEMENT_REL_ERR for the complement (sign 1; worst measured
        4.7e-16) and within 3e-15 for f (worst 1.7e-15).
        """
        if self.mu == 0.0:
            return x.copy() if sign > 0.0 else 1.0 - x
        z = _ndtri(x)
        lower = x <= 0.5
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            # Phi(z_tail) is x below 1/2 and 1 - x above, both exact.
            z_tail = np.where(lower, z, -z)
            error = (np.where(lower, x, 1.0 - x) - _ndtr(z_tail)) / _pdf(z_tail)
            error = np.where(np.isfinite(error), error, 0.0)
            shifted, rounding = _two_sum(z, self.mu)
            step = sign * (rounding + np.where(lower, error, -error))
            v = sign * shifted
            out = _ndtr(v) + np.where(np.isfinite(v), _pdf(v) * step, 0.0)
        return np.clip(out, 0.0, 1.0)


@dataclasses.dataclass(frozen=True)
class DpSgdConfig:
    """Privacy-relevant parameters of noisy gradient training.

    Attributes:
      sigma: noise multiplier (noise scale divided by clipping norm).
      tau: per-step sampling ratio in (0, 1].
      n_iters: number of iterations, at least 1.
    """

    sigma: float
    tau: float
    n_iters: int

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if self.n_iters < 1:
            raise ValueError(f"n_iters must be >= 1, got {self.n_iters}")
        # The full-batch mean shift; the game and the tau = 1 curve use it.
        if not math.isfinite(math.sqrt(self.n_iters) / self.sigma):
            raise ValueError(
                f"sigma={self.sigma} is too small: sqrt(n_iters) / sigma "
                "overflows"
            )


def gdp_delta_of_eps(mu: float, epsilon: float) -> float:
    """Smallest delta for which mu-GDP implies (epsilon, delta)-DP.

    delta(eps) = Phi(-eps/mu + mu/2) - e^eps * Phi(-eps/mu - mu/2),
    evaluated in log space so large epsilon cannot overflow, with the
    rounding of both arguments compensated (see _gdp_terms).

    Args:
      mu: Gaussian-DP parameter in (0, 1e6].
      epsilon: privacy parameter, nonnegative.

    Returns:
      The conversion delta, a value in [0, 1], strictly decreasing in
      epsilon.

    Raises:
      ValueError: if an argument is outside its range.
    """
    if not 0.0 < mu <= _GDP_MU_MAX:
        raise ValueError(f"mu must lie in (0, {_GDP_MU_MAX:g}], got {mu}")
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    # delta < Phi(a1) < 1e-330 rounds to 0. Returning here also keeps a
    # large eps/mu from overflowing the terms into NaN.
    if mu / 2.0 - epsilon / mu < _NDTR_ZERO_BELOW:
        return 0.0
    first, log_phi = _gdp_terms(mu, epsilon)
    return max(0.0, first - math.exp(epsilon + log_phi))


def _gdp_terms(mu: float, epsilon: float) -> tuple[float, float]:
    """(Phi(a1), log Phi(a2)) at a1,2 = -eps/mu +- mu/2, for gdp_delta_of_eps.

    Rounding a1 and a2 would move log Phi by up to (|a| + 1) times their
    error, about a^2 ulps. The division's and the sums' rounding errors
    are formed exactly and added back through the derivatives phi and
    phi / Phi.
    """
    ratio = epsilon / mu
    product, low = _two_product(ratio, mu)
    # epsilon - product is exact, the two being within an ulp.
    ratio_error = ((epsilon - product) - low) / mu
    a1, a1_error = _two_sum(-ratio, mu / 2.0)
    a2, a2_error = _two_sum(-ratio, -mu / 2.0)
    first = _ndtr_float(a1) + float(_pdf(a1)) * (a1_error - ratio_error)
    log_phi = _log_ndtr_float(a2)
    if math.isfinite(log_phi):
        mills = math.exp(-0.5 * a2 * a2 - _LOG_SQRT_2PI - log_phi)
        log_phi += mills * (a2_error - ratio_error)
    return first, log_phi


def _gdp_eps_rounding(mu: float, epsilon: float) -> float:
    """How far float rounding may put the root of delta(eps) above epsilon.

    gdp_delta_of_eps forms Phi(a1) - e^(eps + log Phi(a2)). Each term
    carries the stated error of _ndtr or _log_ndtr, plus the rounding
    of the exponent's sum, the exponential and the difference; the
    argument errors are compensated in _gdp_terms. As
    d delta / d eps = -e^eps Phi(a2), that bound on delta's error over
    the second term bounds the error in epsilon, to first order.
    """
    u = _ROUNDOFF
    first, log_phi = _gdp_terms(mu, epsilon)
    second = math.exp(epsilon + log_phi)
    exponent_error = (
        _NDTR_REL_ERR
        + u * abs(log_phi)
        + u * (abs(epsilon + log_phi) + 1.0)
    )
    error = first * (_NDTR_REL_ERR + u) + second * exponent_error
    return (error + u * abs(first - second)) / second


def gdp_mu_from_eps_delta(epsilon: float, delta: float) -> float:
    """Unique mu whose conversion delta at the given epsilon equals delta.

    Inverts ``gdp_delta_of_eps`` in mu by bisection on [1e-12, 100] down
    to adjacent floats and returns the smaller end, whose round-trip
    ``gdp_delta_of_eps(result, epsilon)`` is at most delta.

    Args:
      epsilon: privacy parameter, positive.
      delta: target conversion delta in (0, 1).

    Returns:
      The Gaussian-DP parameter mu.

    Raises:
      ValueError: if an argument is outside its range, or the root is not
        bracketed by [1e-12, 100], naming epsilon and delta.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")

    def gap(mu: float) -> float:
        return gdp_delta_of_eps(mu, epsilon) - delta

    try:
        return _bisect(gap, 1e-12, 100.0)[0]
    except ValueError:
        raise ValueError(
            f"no mu in [1e-12, 100] has delta={delta} at epsilon={epsilon}"
        ) from None


def gdp_approx_mu(config: DpSgdConfig) -> float:
    """Asymptotic Gaussian-DP parameter of noisy iterative training.

    mu = sqrt(2) * tau * sqrt(N) *
         sqrt(e^(sigma^-2) * Phi(1.5/sigma) + 3*Phi(-0.5/sigma) - 2).

    Args:
      config: training parameters (sigma, tau, n_iters).

    Returns:
      The central-limit Gaussian-DP parameter; scales linearly in tau and
      as sqrt(n_iters).

    Raises:
      ValueError: if sigma is so small that e^(sigma^-2) overflows.
    """
    try:
        inv_sq = config.sigma**-2
    except OverflowError:
        inv_sq = math.inf
    if inv_sq > 700.0:
        raise ValueError(
            f"sigma={config.sigma} is out of range: e^(sigma^-2) overflows"
        )
    inner = (
        math.exp(inv_sq) * _ndtr_float(1.5 / config.sigma)
        + 3.0 * _ndtr_float(-0.5 / config.sigma)
        - 2.0
    )
    return math.sqrt(2.0 * inner) * config.tau * math.sqrt(config.n_iters)


def fdp_to_eps_delta(curve: TradeoffCurve, delta: float) -> float:
    """Smallest epsilon such that the curve dominates the (eps, delta) curve.

    Returns max(0, inf{a : f(x) >= 1 - delta - e^a x for all x}). Gaussian
    curves bisect the closed-form conversion delta(eps) down to adjacent
    floats and return the larger end, whose delta(eps) is at most delta,
    rounded up by the bound _gdp_eps_rounding puts on its float error,
    so that it is never below the exact root.
    For an (eps0, delta0) curve the gap between the line and the curve is
    concave, so it peaks at a vertex; only the corner
    x* = (1 - delta0) / (1 + e^eps0), where f(x*) = x*, binds, giving
    eps = max(0, log((1 - delta - x*) / x*)), written as
    eps0 + log1p(-(delta - delta0)(1 + e^-eps0) / (1 - delta0)).

    Args:
      curve: the trade-off curve to convert, a GaussianCurve or an
        EpsDeltaCurve.
      delta: target additive slack in [0, 1].

    Returns:
      The epsilon value, or ``math.inf`` when delta < 1 - f(0).

    Raises:
      ValueError: if delta is outside [0, 1].
      TypeError: for any other curve class.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if isinstance(curve, GaussianCurve):
        if curve.mu == 0.0:
            return 0.0
        if delta == 0.0:
            return math.inf
        if delta >= gdp_delta_of_eps(curve.mu, 0.0):
            return 0.0
        # delta(eps) <= Phi(-eps/mu + mu/2), which is delta at the top end.
        top = curve.mu * (curve.mu / 2.0 - float(_ndtri(delta)))
        _, eps = _bisect(
            lambda e: gdp_delta_of_eps(curve.mu, e) - delta, 0.0, top
        )
        margin = _gdp_eps_rounding(curve.mu, eps)
        upper = eps + margin
        return upper if upper - eps >= margin else math.nextafter(upper, math.inf)
    if not isinstance(curve, EpsDeltaCurve):
        raise TypeError(
            f"no (epsilon, delta) conversion for {type(curve).__name__}"
        )
    if delta < curve.delta:
        return math.inf
    if curve.delta == 1.0:
        # f is 0 everywhere, and delta = 1 admits every line.
        return 0.0
    shrink = -(delta - curve.delta) * (1.0 + math.exp(-curve.epsilon)) / (
        1.0 - curve.delta
    )
    if shrink <= -1.0:
        return 0.0
    return max(0.0, curve.epsilon + math.log1p(shrink))
