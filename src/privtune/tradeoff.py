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
from scipy import special

__all__ = [
    "TradeoffCurve",
    "EpsDeltaCurve",
    "GaussianCurve",
    "DpSgdConfig",
    "fdp_to_eps_delta",
    "gdp_delta_of_eps",
    "gdp_mu_from_eps_delta",
    "gdp_approx_mu",
]


def _bisect(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """Narrows a sign change of f on [lo, hi] to adjacent floats (lo, hi).

    Halves the bracket until its midpoint rounds to an end. Each returned
    end keeps its starting end's side, f > 0 or f <= 0, so a caller takes
    the end on the safe side of the root. Raises ValueError when f(lo) and
    f(hi) are on the same side or either is NaN.
    """
    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo > 0.0 >= f_hi or f_lo <= 0.0 < f_hi):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f = {f_lo}, {f_hi}")
    lo_positive = f_lo > 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if (f(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return lo, hi


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
        """e^eps x as exp(eps + log x): no overflow at large eps, 0 at x = 0."""
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
      mu: Gaussian-DP parameter, nonnegative.
    """

    mu: float

    def __post_init__(self) -> None:
        if not self.mu >= 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        return self._shifted(x, -1.0)

    def _complement(self, x: np.ndarray) -> np.ndarray:
        # 1 - G_mu(x) = Phi(Phi^-1(x) + mu).
        return self._shifted(x, 1.0)

    def _shifted(self, x: np.ndarray, sign: float) -> np.ndarray:
        """Phi(sign (Phi^-1(x) + mu)); Phi^-1 maps 0 and 1 to -inf and inf."""
        if self.mu == 0.0:
            return x.copy() if sign > 0.0 else 1.0 - x
        return special.ndtr(sign * (special.ndtri(x) + self.mu))


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


def gdp_delta_of_eps(mu: float, epsilon: float) -> float:
    """Smallest delta for which mu-GDP implies (epsilon, delta)-DP.

    delta(eps) = Phi(-eps/mu + mu/2) - e^eps * Phi(-eps/mu - mu/2),
    evaluated in log space so large epsilon cannot overflow.

    Args:
      mu: Gaussian-DP parameter, positive.
      epsilon: privacy parameter, nonnegative.

    Returns:
      The conversion delta, a value in [0, 1], strictly decreasing in
      epsilon.
    """
    if not mu > 0.0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    first = special.ndtr(-epsilon / mu + mu / 2.0)
    log_second = epsilon + special.log_ndtr(-epsilon / mu - mu / 2.0)
    return max(0.0, float(first - np.exp(log_second)))


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
    inv_sq = config.sigma**-2
    if inv_sq > 700.0:
        raise ValueError(
            f"sigma={config.sigma} is out of range: e^(sigma^-2) overflows"
        )
    inner = (
        math.exp(inv_sq) * special.ndtr(1.5 / config.sigma)
        + 3.0 * special.ndtr(-0.5 / config.sigma)
        - 2.0
    )
    return math.sqrt(2.0 * inner) * config.tau * math.sqrt(config.n_iters)


def fdp_to_eps_delta(curve: TradeoffCurve, delta: float) -> float:
    """Smallest epsilon such that the curve dominates the (eps, delta) curve.

    Returns max(0, inf{a : f(x) >= 1 - delta - e^a x for all x}). Gaussian
    curves bisect the closed-form conversion delta(eps) down to adjacent
    floats and return the larger end, whose delta(eps) is at most delta.
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
        top = curve.mu * (curve.mu / 2.0 - float(special.ndtri(delta)))
        _, eps = _bisect(
            lambda e: gdp_delta_of_eps(curve.mu, e) - delta, 0.0, top
        )
        return eps
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
