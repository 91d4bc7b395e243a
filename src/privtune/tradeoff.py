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

_ROUNDOFF = 2.0**-53
_SQRT1_2 = math.sqrt(0.5)
# 1/sqrt(2) - _SQRT1_2: the digits of 1/sqrt(2) that a double drops.
_SQRT1_2_TAIL = -4.833646656726457e-17
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Veltkamp's splitter 2^27 + 1: a double times it splits into two halves
# whose products with another split double are exact.
_SPLITTER = 134217729.0
# Below this, Phi(x) nears the subnormal range, and log_ndtr takes the
# continued fraction, whose 8 terms are exact to rounding there.
_LOG_NDTR_CF_BELOW = -37.0
_LOG_NDTR_CF_TERMS = 8
# Below this, Phi(x) < 1e-330, under half the smallest subnormal double.
_NDTR_ZERO_BELOW = -39.0
# Stated error bounds, above the largest errors measured against
# 40-digit mpmath (tests/test_tradeoff.py re-measures them): Phi is
# within _NDTR_REL_ERR relative (measured 5.1e-16), and log Phi within
# _NDTR_REL_ERR + _ROUNDOFF |log Phi| absolute (measured 5.1e-16 +
# 1.1e-16 |log Phi|; the second term is the rounding of the last sum).
_NDTR_REL_ERR = 1.1e-15
# Stated relative error of TradeoffCurve.complement where the log-ratio
# maximum sits: measured 4.7e-16 for GaussianCurve (see _shifted), and a
# few ulps for EpsDeltaCurve's delta + e^eps x (see _scaled).
_COMPLEMENT_REL_ERR = 1e-15
# The largest Gaussian-DP mu taken. _gdp_terms adds the rounding of
# a2 = -eps/mu - mu/2 back through phi(a2) / Phi(a2), formed from a
# rounded a2^2, so its relative error grows as a2^2 ulps. Near the root,
# that term's error is 1e-6 of log Phi's stated error at mu = 1e6, half
# of it at 1e8 and 3 times it at 2e8, where the conversion fell below
# the exact root.
_GDP_MU_MAX = 1e6
# Below this epsilon, e^eps is a finite double.
_LOG_DBL_MAX = math.log(np.finfo(float).max)
_erfc = np.frompyfunc(math.erfc, 1, 1)
# Points _ndtri takes at once, the length of the working rows it makes
# once a call. A 10^7-trial audit's two workers ran 1.4 times as fast as
# one at 2^14 points, and 1.8 times at 2^16.
_NDTRI_CHUNK = 1 << 16
# Coefficients of Wichura's AS241 (1988), highest degree first: numerator
# and denominator for |p - 1/2| <= 0.425 in r = 0.180625 - (p - 1/2)^2,
# then in r = sqrt(-log(min(p, 1 - p))) - 1.6 for r <= 5, else r - 5.
_AS241 = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
     4.6303378461565452959e0, 1.4234371107496835773e0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
     2.0531916266377588219e0, 1.0),
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
     5.4637849111641143699e0, 6.6579046435011037772e0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561329059e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = a exactly and each half of 26 bits."""
    scaled = _SPLITTER * a
    hi = scaled - (scaled - a)
    return hi, a - hi


def _two_product(a: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _two_sum(a: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _pdf(x: np.ndarray) -> np.ndarray:
    """The standard normal density phi(x); 0 at +-inf."""
    return np.exp(-0.5 * x * x - _LOG_SQRT_2PI)


def _ndtr(x: np.ndarray | float) -> np.ndarray:
    """Standard normal cdf Phi(x) = erfc(-x / sqrt(2)) / 2.

    The rounding of -x / sqrt(2) alone would cost Phi a relative error
    near x^2 ulps (1.9e-13 at x = -37.5); it is split off exactly
    (Dekker's product on Veltkamp halves, plus the tail of 1/sqrt(2))
    and added back through the derivative of erfc. Within _NDTR_REL_ERR
    relative of 40-digit mpmath wherever Phi(x) lies in [1e-300,
    1 - 1e-16] (worst measured 5.1e-16, on 2e4 points of [-37.5, 8.3]);
    further down it leaves the normal range and loses relative digits.
    """
    x = np.asarray(x, dtype=float)
    # Past |x| = 40 erfc is flat; zeroing x there keeps inf out of the split.
    near = np.where(np.abs(x) < 40.0, x, 0.0)
    return _ndtr_from(np.asarray(_erfc(-x * _SQRT1_2), dtype=float), near)


def _ndtr_float(x: float) -> float:
    """_ndtr at one float, bit for bit: math.erfc, float operations, np.exp."""
    near = x if abs(x) < 40.0 else 0.0
    return float(_ndtr_from(math.erfc(-x * _SQRT1_2), near))


def _ndtr_from(
    erfc: np.ndarray | float, near: np.ndarray | float
) -> np.ndarray | float:
    """erfc(fl(-x / sqrt(2))) / 2 plus its argument's rounding, added back.

    near is x where |x| < 40, else 0.
    """
    _, low = _two_product(near, _SQRT1_2)
    # -x / sqrt(2) = fl(-x / sqrt(2)) + residual, exact to the tail's
    # last digit, and erfc' = -2 sqrt(2) phi(x) there.
    residual = -(low + near * _SQRT1_2_TAIL)
    return 0.5 * erfc - math.sqrt(2.0) * _pdf(near) * residual


def _log_ndtr(x: np.ndarray | float) -> np.ndarray:
    """log Phi(x), finite for every finite x.

    log1p(-Phi(-x)) for x > 0 and log Phi(x) down to x = -37. Below,
    where Phi leaves the normal range, it is -x^2/2 - log(sqrt(2 pi))
    - log(-x + 1/(-x + 2/(-x + 3/(...)))), Laplace's continued fraction
    for the Mills ratio, cut at 8 terms. Within _NDTR_REL_ERR +
    _ROUNDOFF |log Phi(x)| absolute, from 1.1e4 points of [-1e5, 38]
    against 40-digit mpmath.
    """
    x = np.asarray(x, dtype=float)
    upper = x > 0.0
    cdf = _ndtr(np.where(upper, -x, x))
    with np.errstate(divide="ignore"):
        out = np.where(upper, np.log1p(-cdf), np.log(cdf))
    tail = x < _LOG_NDTR_CF_BELOW
    if np.any(tail):
        out[tail] = _log_ndtr_tail(-x[tail])
    return out


def _log_ndtr_float(x: float) -> float:
    """_log_ndtr at one float, bit for bit, by math.erfc and numpy scalars."""
    if x < _LOG_NDTR_CF_BELOW:
        return float(_log_ndtr_tail(-x))
    if x > 0.0:
        return float(np.log1p(-_ndtr_float(-x)))
    # Phi(x) > 0 here, above the continued fraction's range.
    return float(np.log(_ndtr_float(x)))


def _log_ndtr_tail(t: np.ndarray | float) -> np.ndarray | float:
    """log Phi(-t) for t > 37 by Laplace's continued fraction."""
    # The innermost term, k / (t + 0), is k / t.
    fraction = _LOG_NDTR_CF_TERMS / t
    for k in range(_LOG_NDTR_CF_TERMS - 1, 0, -1):
        fraction = k / (t + fraction)
    # t^2 = square + low exactly, so only the last sum rounds.
    square, low = _two_product(t, t)
    return -0.5 * square - (_LOG_SQRT_2PI + np.log(t + fraction) + 0.5 * low)


def _horner(
    coeffs: tuple[float, ...], x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """np.polyval(coeffs, x) for finite x, by the same operations, into out."""
    y = np.multiply(x, coeffs[0], out=out)
    y += coeffs[1]
    for c in coeffs[2:]:
        y *= x
        y += c
    return y


def _ratio(
    k: int,
    x: np.ndarray,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """The k-th AS241 rational function at x, into out; work holds the denominator."""
    y = _horner(_AS241[2 * k], x, out)
    y /= _horner(_AS241[2 * k + 1], x, work)
    return y


def _ndtri(p: np.ndarray | float, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal quantile Phi^-1(p), with 0 and 1 mapped to -inf, inf.

    Wichura's AS241, the algorithm of the stdlib's NormalDist.inv_cdf,
    on arrays. Against 40-digit mpmath on 1e4 points of [1e-300,
    1 - 1e-16] the error is within 7e-16 max(1, |Phi^-1(p)|).

    Each point evaluates only the one of AS241's three rational functions
    that its p selects, in slices of _NDTRI_CHUNK points, by the
    operations np.polyval would apply; so the values are those of every
    branch evaluated everywhere and the right one kept. out, contiguous
    and of p's shape, may be p itself.
    """
    p = np.asarray(p, dtype=float)
    result = np.empty_like(p) if out is None else out
    flat_p, flat = p.reshape(-1), result.reshape(-1)
    # Rows that every slice reuses: each branch's argument, its numerator
    # and its denominator. A slice of the points is picked by index
    # arrays, not by a bool mask: numpy's masked gathers and scatters take
    # several times as long on a mask that is mixed at random.
    rows = np.empty((3, min(flat_p.size, _NDTRI_CHUNK)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, flat_p.size, _NDTRI_CHUNK):
            part = flat_p[lo : lo + _NDTRI_CHUNK]
            z = flat[lo : lo + _NDTRI_CHUNK]
            arg, num, den = rows[:, : part.size]
            q = np.subtract(part, 0.5, out=arg)
            central = np.abs(q, out=q) <= 0.425
            mid = np.flatnonzero(central)
            # The tail is the complement of the central mask, so it holds
            # NaN. Each branch reads part only where it writes z, which
            # may share part's memory.
            tail = np.flatnonzero(~central)
            if tail.size:
                # The tail's p; its q < 0 where p < 1/2.
                pt = np.take(part, tail, out=den[: tail.size])
                below = np.flatnonzero(pt < 0.5)
                # 1 - p is exact for p > 1/2, where it is the smaller.
                # t = sqrt(-log of that).
                t = np.subtract(1.0, pt, out=arg[: tail.size])
                np.minimum(t, pt, out=t)
                # p <= 0 and p >= 1 are the tail's t <= 0: -inf and inf.
                ends = np.flatnonzero(t <= 0.0)
                np.sqrt(np.negative(np.log(t, out=t), out=t), out=t)
                near = t <= 5.0
                if near.all():
                    t -= 1.6
                    value = _ratio(1, t, num[: tail.size], den[: tail.size])
                else:
                    value = num[: tail.size]
                    inner, outer = np.flatnonzero(near), np.flatnonzero(~near)
                    value[inner] = _ratio(1, t.take(inner) - 1.6)
                    value[outer] = _ratio(2, t.take(outer) - 5.0)
                value[ends] = np.inf
                value[below] = np.negative(value.take(below))
                z[tail] = value
            if mid.size:
                qc = np.take(part, mid, out=arg[: mid.size])
                qc -= 0.5
                r = np.multiply(qc, qc, out=den[: mid.size])
                np.subtract(0.180625, r, out=r)
                # q times the numerator, then over the denominator.
                value = _horner(_AS241[0], r, num[: mid.size])
                value *= qc
                value /= _horner(_AS241[1], r, qc)
                z[mid] = value
    return result


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
        _COMPLEMENT_REL_ERR for the complement (sign 1; worst measured
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
