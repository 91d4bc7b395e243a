"""Run-count distributions for best-of-k private selection.

The selection protocol draws a number of runs k from a distribution xi,
executes its base mechanism k times, and releases the highest-scoring
run. This module models xi: probability mass, mean, sampling, the
probability generating function S(y) = sum_k Pr(k) y^k, and its
derivative omega(x) = sum_k k Pr(k) x^(k-1), the weight function that
drives the selection privacy accounting. ``log_inverse_pgf`` maps a
uniform u to log S^-1(u): the best of K run scores with per-run CDF F has
CDF S(F(s)), so it is drawn as F^-1(S^-1(U)) with no draw of K.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

__all__ = [
    "RunCountDist",
    "PointMass",
    "TruncatedNegativeBinomial",
]

# Below this |eta|, (e^(eta t) - 1) / eta underflows in eta t, and the
# distribution is indistinguishable from its logarithmic-series limit.
_ETA_ZERO_TOL = 1e-300
# log(1/2) (log1p(-1/2) rounds to the same double) and the least positive
# double: the bounds that keep log_inverse_pgf's branches in order and
# its levels below 0.
_LOG_HALF = math.log(0.5)
_TINY = 5e-324
# The least normal double: below it Z u or eta Z u has lost digits.
_TINY_NORMAL = 2.0**-1022
# The least nu that sample takes. Its Poisson rate is a Gamma(eta + 1)
# draw times at most 1/nu - 1, so from here the rate reaches numpy's limit
# (about 2^63) only where the gamma passes 50 times its mean: a finite
# nu^-eta keeps eta + 1 below 21 at nu = 2^-53. A bound on the mean would
# not do, since below eta = 0 the tail is a power law up to about 1/nu.
_SAMPLE_NU_MIN = 2.0**-53

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


def _expm1_over_eta(eta: float, t: np.ndarray | float) -> np.ndarray | float:
    """(e^(eta t) - 1) / eta, continuous at eta = 0, where it is t."""
    if abs(eta) < _ETA_ZERO_TOL:
        return t
    return np.expm1(eta * t) / eta


def _log1p_over_eta(eta: float, t: np.ndarray) -> np.ndarray:
    """log1p(eta t) / eta, continuous at eta = 0, where it is t."""
    if abs(eta) < _ETA_ZERO_TOL:
        return t
    return np.log1p(eta * t) / eta


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


def _validate_counts(k: np.ndarray | int) -> np.ndarray:
    """Returns k as an integer array after checking every entry is >= 1."""
    arr = np.asarray(k)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"run count k must be an integer, got {k!r}")
    if np.any(arr < 1):
        raise ValueError(f"run count k must be >= 1, got {k!r}")
    return arr


class RunCountDist:
    """Base class for distributions over the number of runs k >= 1.

    Subclasses provide ``pmf``, ``mean``, ``pgf``, ``log_inverse_pgf``,
    ``omega_form``, and ``sample``. Instances are immutable and safe to
    share across threads; ``sample`` mutates only the caller-supplied
    generator.
    """

    @property
    def mean(self) -> float:
        """Expected number of runs."""
        raise NotImplementedError

    def pmf(self, k: np.ndarray | int) -> np.ndarray | float:
        """Probability mass at integer run counts k >= 1."""
        raise NotImplementedError

    def pgf(self, y: np.ndarray | float) -> np.ndarray | float:
        """Probability generating function S(y) = sum_k Pr(k) y^k on [0, 1]."""
        raise NotImplementedError

    def log_inverse_pgf(
        self, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """log S^-1(u) for u in [0, 1), computed in place over u or into out.

        Nondecreasing in u, -inf at u = 0, below 0 everywhere, and finite
        at every u > 0. For U uniform, S^-1(U) is distributed as V^(1/K)
        with V uniform and K a run count, so F^-1 of it is the best of K
        scores with CDF F. out, of u's shape, leaves u as it was and takes
        the place of a temporary of u's size.
        """
        raise NotImplementedError

    @property
    def omega_form(self) -> tuple[float, float, float, float, float]:
        """(c, alpha, beta, alpha + beta, p) with omega(x) = c (alpha + beta x)^p.

        Both families have this form. alpha + beta is stored exactly, so
        omega(1 - a) = c ((alpha + beta) - beta a)^p does not form 1 - a.
        """
        raise NotImplementedError

    def omega(self, x: np.ndarray | float) -> np.ndarray | float:
        """Derivative of the pgf: omega(x) = sum_k k Pr(k) x^(k-1) on [0, 1].

        Nondecreasing and convex on [0, 1], with omega(0) = pmf(1) and
        omega(1) = mean.
        """
        c, alpha, beta, _, p = self.omega_form
        arr = np.asarray(x, dtype=float)
        out = c * (alpha + beta * arr) ** p
        return float(out) if np.ndim(x) == 0 else out

    def sample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> np.ndarray | int:
        """Draws run counts using the supplied generator."""
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class PointMass(RunCountDist):
    """Deterministic run count: always exactly k runs.

    Attributes:
      k: the fixed number of runs, at least 1.
    """

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def mean(self) -> float:
        return float(self.k)

    @property
    def omega_form(self) -> tuple[float, float, float, float, float]:
        # omega(x) = k x^(k - 1).
        return float(self.k), 0.0, 1.0, 1.0, float(self.k - 1)

    def pmf(self, k: np.ndarray | int) -> np.ndarray | float:
        arr = _validate_counts(k)
        out = np.where(arr == self.k, 1.0, 0.0)
        return float(out) if np.ndim(k) == 0 else out

    def pgf(self, y: np.ndarray | float) -> np.ndarray | float:
        arr = np.asarray(y, dtype=float)
        out = arr**self.k
        return float(out) if np.ndim(y) == 0 else out

    def log_inverse_pgf(
        self, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        # log(u) / k: S^-1(u) = u^(1/k).
        level = u if out is None else out
        with np.errstate(divide="ignore"):
            np.log(u, out=level)
        return np.divide(level, self.k, out=level)

    def sample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> np.ndarray | int:
        if size is None:
            return self.k
        return np.full(size, self.k, dtype=np.int64)


@dataclasses.dataclass(frozen=True)
class TruncatedNegativeBinomial(RunCountDist):
    """Truncated negative binomial run-count distribution on k >= 1.

    The mass is Pr[K=k] = (1-nu)^k Gamma(k+eta) / (Gamma(1+eta) k! Z)
    with normalizer Z = (nu^-eta - 1) / eta. The same formula covers
    eta = 0, where Z = log(1/nu) and the mass is the logarithmic
    distribution (1-nu)^k / (k * log(1/nu)). eta = 1 is the geometric
    distribution with success probability nu.

    Attributes:
      eta: shape parameter, greater than -1.
      nu: tail parameter in (0, 1); smaller nu means more runs.
    """

    eta: float
    nu: float

    def __post_init__(self) -> None:
        if not self.eta > -1.0:
            raise ValueError(f"eta must be > -1, got {self.eta}")
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")
        with np.errstate(over="ignore"):
            # An overflow in the mean's denominator shows as a zero mean.
            # omega peaks at x = 1, where its base is the exact total nu.
            c, _, _, total, p = self.omega_form
            finite = (
                math.isfinite(self._norm)
                and 0.0 < self.mean < math.inf
                and math.isfinite(c * np.power(total, p))
            )
        if not finite:
            raise ValueError(
                f"eta={self.eta}, nu={self.nu} overflow the normalizer, "
                "mean or omega"
            )

    @functools.cached_property
    def _norm(self) -> float:
        """The normalizer Z = (nu^-eta - 1) / eta; log(1/nu) at eta = 0."""
        return float(_expm1_over_eta(self.eta, -math.log(self.nu)))

    @functools.cached_property
    def mean(self) -> float:
        # (1 - nu) / (nu (1 - nu^eta) / eta). The equal form
        # (1 - nu) nu^(-eta-1) / Z is 20x less accurate at eta = 8,
        # nu = 1e-8.
        return float(
            (1.0 - self.nu)
            / (self.nu * -_expm1_over_eta(self.eta, math.log(self.nu)))
        )

    @functools.cached_property
    def omega_form(self) -> tuple[float, float, float, float, float]:
        # omega(x) = (1 - nu) (1 - (1 - nu) x)^-(eta + 1) / Z.
        scale = 1.0 - self.nu
        return scale / self._norm, 1.0, -scale, self.nu, -(self.eta + 1.0)

    def pmf(self, k: np.ndarray | int) -> np.ndarray | float:
        # By Stirling's formula with z = k + 1, m = eta - 1 and t = m / z,
        # log(Gamma(k + eta) / k!) is m log z + z (log1p(t) - t) + (m - 1/2)
        # log1p(t) + stirlerr(z + m) - stirlerr(z), with no cancellation. A
        # difference of log-gammas loses about log(k!) ulps; it serves below
        # k = 17, where z + m can fall under 16 (z is clamped there).
        lgamma = np.frompyfunc(math.lgamma, 1, 1)
        arr = _validate_counts(k).astype(float)
        z, m = np.maximum(arr + 1.0, 18.0), self.eta - 1.0
        log1p_t = np.log1p(m / z)
        stirling = m * np.log(z) + z * (log1p_t - m / z) + (m - 0.5) * log1p_t
        stirling += _stirlerr(z + m) - _stirlerr(z)
        small = np.asarray(lgamma(arr + self.eta) - lgamma(arr + 1.0), float)
        log_mass = (
            arr * math.log1p(-self.nu)
            + np.where(arr >= 17.0, stirling, small)
            - (math.lgamma(1.0 + self.eta) + math.log(self._norm))
        )
        out = np.exp(log_mass)
        return float(out) if np.ndim(k) == 0 else out

    def pgf(self, y: np.ndarray | float) -> np.ndarray | float:
        arr = np.asarray(y, dtype=float)
        base = 1.0 - (1.0 - self.nu) * arr
        out = _expm1_over_eta(self.eta, -np.log(base)) / self._norm
        return float(out) if np.ndim(y) == 0 else out

    @functools.cached_property
    def _pgf_half(self) -> float:
        """S(1/2): below it S^-1(u) <= 1/2."""
        return float(self.pgf(0.5))

    def log_inverse_pgf(
        self, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        # With b = 1 - (1 - nu) y, S(y) = u reads b^-eta = 1 + eta Z u,
        # and (b / nu)^-eta = D with D = 1 - (1 - nu^eta)(1 - u). Each side
        # of y = 1/2 takes a form without cancellation:
        # - y <= 1/2 (u below S(1/2)): log b = -log1p(eta Z u) / eta, and
        #   the level is log y with y = -expm1(log b) / (1 - nu).
        # - y > 1/2: M = log(b / nu) = -log(D) / eta, which is Z (1 - u)
        #   at eta = 0, and the level is log1p(-(1 - y)) with
        #   1 - y = nu expm1(M) / (1 - nu). log D is log1p(D - 1) where
        #   D >= 1/2, and log(nu^eta + (1 - nu^eta) u) below, a sum of two
        #   positive terms, each nondecreasing in u.
        # 1 - u is exact for rng.random output. Each step is monotone in u,
        # and each branch is clipped at its side of log(1/2), so the whole
        # stays nondecreasing.
        eta, nu = self.eta, self.nu
        low = np.flatnonzero(u < self._pgf_half)
        u_low = u[low]
        z_u = self._norm * u_low
        log_b = -_log1p_over_eta(eta, z_u)
        with np.errstate(divide="ignore"):
            log_y = np.log(-np.expm1(log_b) / (1.0 - nu))
            # Where the smaller of Z u and eta Z u (Z u alone at eta = 0) is
            # below the least normal double, it has lost digits, or rounded
            # to 0 and made log y -inf. There y is tiny and S(y) = (1 - nu)
            # y / Z to within y relative, so log y is log(Z u / (1 - nu)),
            # formed from log u.
            reach = 1.0 if abs(eta) < _ETA_ZERO_TOL else min(1.0, abs(eta))
            under = np.flatnonzero(z_u * reach < _TINY_NORMAL)
            log_y[under] = (
                np.log(u_low[under]) + math.log(self._norm)
            ) - math.log1p(-nu)
        log_y = np.minimum(log_y, _LOG_HALF, out=log_y)
        level = u if out is None else out
        if abs(eta) < _ETA_ZERO_TOL:
            m = np.multiply(np.subtract(1.0, u, out=level), self._norm, out=level)
        else:
            # D - 1 = -(1 - nu^eta)(1 - u), then log D in its place.
            rate = -math.expm1(eta * math.log(nu))
            log_d = np.subtract(u, 1.0, out=out)
            log_d *= rate
            small = np.flatnonzero(log_d < -0.5)
            d_small = u[small]
            d_small *= rate
            d_small += math.exp(eta * math.log(nu))
            # Where nu^eta rounds below 2^-53, D - 1 can round to -1.
            with np.errstate(divide="ignore"):
                np.log1p(log_d, out=log_d)
                np.log(d_small, out=d_small)
            log_d[small] = np.minimum(d_small, _LOG_HALF, out=d_small)
            m = np.divide(log_d, -eta, out=level)
        scale = -nu / (1.0 - nu)
        if nu < 1e-300:
            # M nears -log(nu), past expm1's range (709.78) where nu is
            # below about 5.6e-309; the excess over 700 is carried as the
            # factor e^excess.
            excess = np.maximum(m - 700.0, 0.0)
            m -= excess
            scale = scale * np.exp(excess)
        np.expm1(m, out=m)
        m *= scale
        np.clip(m, -0.5, -_TINY, out=m)
        level = np.log1p(m, out=m)
        level[low] = log_y
        return level

    def sample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> np.ndarray | int:
        # One exact draw for every eta > -1. With c = nu / (1 - nu), the
        # mass at k >= 1 is proportional to the integral over g of
        # g^(eta-1) e^(-c g) Pr[Poisson(g) = k]. Splitting each k at the
        # first of the Poisson's arrivals on [0, 1], at s, leaves the
        # weight g^eta e^(-g (c + s)), integrable for every eta > -1: s has
        # density proportional to (c + s)^-(eta+1), g is
        # Gamma(eta + 1) / (c + s), and K - 1 is Poisson(g (1 - s)). By
        # inversion, log((1 + c) / (c + s)) = log1p(eta Z u) / eta for u
        # uniform, and g (1 - s) = Gamma(eta + 1) expm1 of that.
        if self.nu < _SAMPLE_NU_MIN:
            raise ValueError(
                f"eta={self.eta}, nu={self.nu} cannot be sampled: a run "
                "count's Poisson rate could pass numpy's limit below "
                "nu = 2^-53"
            )
        u = rng.random(size)
        rate = np.expm1(_log1p_over_eta(self.eta, self._norm * u))
        rate *= rng.standard_gamma(self.eta + 1.0, size)
        ks = 1 + rng.poisson(rate)
        return int(ks) if size is None else ks
