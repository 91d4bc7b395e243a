"""Numerical kernels that the layer modules share, each with its stated error.

The package needs numpy alone: the normal cdf, its logarithm and its
quantile (Wichura's AS241) are its own, as are the log-factorials, the
log-sum-exp, Loader's Stirling terms and a bisection to adjacent floats.
The Clopper-Pearson limit inverts the package's own incomplete beta
function, whose prefactor takes Loader's saddle-point terms and whose
continued fraction is Didonato and Morris's; the limit is never below the
exact one.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

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
_erfc = np.frompyfunc(math.erfc, 1, 1)
_lgamma = np.frompyfunc(math.lgamma, 1, 1)
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

# Loader's (2000) stirlerr(k) for k = 0, ..., 15 from 40-digit mpmath (0
# unused), and the coefficients of its Stirling series used above 15.
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_STIRLING = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0)

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
    # several times as long on a mask that is mixed at random. The takes
    # run in mode "wrap", as take's default mode first fills a copy of out.
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
                pt = np.take(part, tail, out=den[: tail.size], mode="wrap")
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
                qc = np.take(part, mid, out=arg[: mid.size], mode="wrap")
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


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, by math.lgamma.

    Within 4e-16 max(1, log k!) of 40-digit mpmath for k up to 2048
    (worst measured 3.6e-16), and exactly 0 at k = 0 and 1.
    """
    return np.asarray(_lgamma(np.arange(n + 1) + 1.0), dtype=float)


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    """log sum exp over each row of x, shifted by the row's maximum.

    Each row needs one finite entry. Within 4e-16 max(1, |result|) of
    40-digit mpmath on the subsampled bound's rows up to order 129 and on
    random ones (worst measured 3.7e-16); on every ninth row of orders 66
    to 512 the worst measured was 4.3e-16.

    A bound from the operations, for the exact log-sum-exp of the row as
    stored: with t_j = peak - x_j and S = sum e^-t_j >= 1 over w finite
    entries, each difference rounds once, so e^-t_j is off by u t_j
    relative (u = 2^-53), and the mean of t_j under weights e^-t_j / S
    is at most log w; with np.exp and np.log within 4 ulps and a sum of
    w positive terms within (w - 1) u, S is within (log w + 8 + w - 1) u
    relative, the log adds 8 u log w and the last sum u |result|. For
    w <= 513 that is within (578 + |result|) u.
    """
    peak = np.max(x, axis=1)
    return peak + np.log(np.sum(np.exp(x - peak[:, None]), axis=1))


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """Loader's log k! - log(sqrt(2 pi k) (k / e)^k), whole k or k >= 16."""
    k = np.asarray(k, dtype=float)
    big = np.maximum(k, 16.0)
    inv = 1.0 / (big * big)
    series = _STIRLING[4]
    for coeff in _STIRLING[3::-1]:
        series = coeff - series * inv
    table = np.asarray(_STIRLERR)[np.minimum(k, 15.0).astype(np.intp)]
    return np.where(k <= 15.0, table, series / big)


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
