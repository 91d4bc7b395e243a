"""Run-count distributions for best-of-k private selection.

The selection protocol draws a number of runs k from a distribution xi,
executes its base mechanism k times, and releases the highest-scoring
run. This module models xi: probability mass, mean, sampling, the
probability generating function S(y) = sum_k Pr(k) y^k, and its
derivative omega(x) = sum_k k Pr(k) x^(k-1), the weight function that
drives the selection privacy accounting.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from scipy import special

__all__ = [
    "RunCountDist",
    "PointMass",
    "TruncatedNegativeBinomial",
]

_TAIL_TOL = 1e-12
_K_MAX_CAP = 10**7
# Below this |eta| the expm1-based eta != 0 formulas underflow, and the
# distribution is indistinguishable from its logarithmic-series limit.
_ETA_ZERO_TOL = 1e-300


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

    Subclasses provide ``pmf``, ``mean``, ``pgf``, ``omega``, and
    ``sample``. Instances are immutable and safe to share across threads;
    ``sample`` mutates only the caller-supplied generator.
    """

    @property
    def mean(self) -> float:
        """Expected number of runs."""
        raise NotImplementedError

    @property
    def k_max(self) -> int:
        """Truncation horizon: series tails beyond k_max are below 1e-12."""
        raise NotImplementedError

    def pmf(self, k: np.ndarray | int) -> np.ndarray | float:
        """Probability mass at integer run counts k >= 1."""
        raise NotImplementedError

    def pgf(self, y: np.ndarray | float) -> np.ndarray | float:
        """Probability generating function S(y) = sum_k Pr(k) y^k on [0, 1]."""
        raise NotImplementedError

    def omega(self, x: np.ndarray | float) -> np.ndarray | float:
        """Derivative of the pgf: omega(x) = sum_k k Pr(k) x^(k-1) on [0, 1].

        Nondecreasing and convex on [0, 1], with omega(0) = pmf(1) and
        omega(1) = mean.
        """
        raise NotImplementedError

    def omega_complement(self, a: np.ndarray | float) -> np.ndarray | float:
        """omega(1 - a) on [0, 1].

        Subclasses whose omega loses precision near x = 1 evaluate this
        without forming 1 - a.
        """
        return self.omega(1.0 - np.asarray(a, dtype=float))

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
    def k_max(self) -> int:
        return self.k

    def pmf(self, k: np.ndarray | int) -> np.ndarray | float:
        arr = _validate_counts(k)
        out = np.where(arr == self.k, 1.0, 0.0)
        return float(out) if np.ndim(k) == 0 else out

    def pgf(self, y: np.ndarray | float) -> np.ndarray | float:
        arr = np.asarray(y, dtype=float)
        out = arr**self.k
        return float(out) if np.ndim(y) == 0 else out

    def omega(self, x: np.ndarray | float) -> np.ndarray | float:
        arr = np.asarray(x, dtype=float)
        out = self.k * arr ** (self.k - 1)
        return float(out) if np.ndim(x) == 0 else out

    def sample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> np.ndarray | int:
        if size is None:
            return self.k
        return np.full(size, self.k, dtype=np.int64)


@dataclasses.dataclass(frozen=True)
class TruncatedNegativeBinomial(RunCountDist):
    """Truncated negative binomial run-count distribution on k >= 1.

    For eta != 0 the mass is Pr[K=k] = (1-nu)^k / (nu^-eta - 1) *
    prod_{l=0}^{k-1} (l+eta)/(l+1); for eta = 0 it is the logarithmic
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

    @property
    def _log_series(self) -> bool:
        """Whether eta is (effectively) 0, the logarithmic-series case."""
        return abs(self.eta) < _ETA_ZERO_TOL

    @functools.cached_property
    def _norm_expm1(self) -> float:
        """nu^-eta - 1, evaluated without cancellation for small eta."""
        return math.expm1(-self.eta * math.log(self.nu))

    @property
    def mean(self) -> float:
        if self._log_series:
            return (1.0 - self.nu) / (self.nu * math.log(1.0 / self.nu))
        return (
            self.eta
            * (1.0 - self.nu)
            / (self.nu * -math.expm1(self.eta * math.log(self.nu)))
        )

    @functools.cached_property
    def _log_norm(self) -> float:
        """log of |Gamma(eta)| * |nu^-eta - 1|, the pmf normalizer."""
        return math.lgamma(self.eta) + math.log(abs(self._norm_expm1))

    @functools.cached_property
    def k_max(self) -> int:
        """Smallest k whose geometric tail bound drops below 1e-12."""

        def tail_small(k: int) -> bool:
            log_tail = k * math.log1p(-self.nu) + math.log(
                (k + self.mean) / self.nu
            )
            return log_tail < math.log(_TAIL_TOL)

        hi = 2
        while hi < _K_MAX_CAP and not tail_small(hi):
            hi *= 2
        if hi >= _K_MAX_CAP:
            return _K_MAX_CAP
        lo = hi // 2
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if tail_small(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def pmf(self, k: np.ndarray | int) -> np.ndarray | float:
        arr = _validate_counts(k).astype(float)
        if self._log_series:
            log_mass = (
                arr * math.log1p(-self.nu)
                - np.log(arr)
                - math.log(math.log(1.0 / self.nu))
            )
        else:
            log_mass = (
                arr * math.log1p(-self.nu)
                + special.gammaln(arr + self.eta)
                - special.gammaln(arr + 1.0)
                - self._log_norm
            )
        out = np.exp(log_mass)
        return float(out) if np.ndim(k) == 0 else out

    def pmf_series(self, upto: int) -> np.ndarray:
        """Probability masses for k = 1..upto via the stable log recurrence.

        Successive masses satisfy pmf(k+1)/pmf(k) = (1-nu)(k+eta)/(k+1),
        accumulated in log space so very long series cannot overflow.
        """
        if upto < 1:
            raise ValueError(f"upto must be >= 1, got {upto}")
        ks = np.arange(1, upto, dtype=float)
        log_ratios = (
            math.log1p(-self.nu) + np.log(ks + self.eta) - np.log(ks + 1.0)
        )
        log_first = math.log(float(self.pmf(1)))
        log_mass = np.concatenate(
            [[log_first], log_first + np.cumsum(log_ratios)]
        )
        return np.exp(log_mass)

    def pgf(self, y: np.ndarray | float) -> np.ndarray | float:
        arr = np.asarray(y, dtype=float)
        base = 1.0 - (1.0 - self.nu) * arr
        if self._log_series:
            out = np.log(base) / math.log(self.nu)
        else:
            out = np.expm1(-self.eta * np.log(base)) / self._norm_expm1
        return float(out) if np.ndim(y) == 0 else out

    def _omega_at_base(self, base: np.ndarray) -> np.ndarray:
        """omega(x) as a function of base = 1 - (1 - nu) x."""
        if self._log_series:
            return (1.0 - self.nu) / (base * math.log(1.0 / self.nu))
        return (
            self.eta
            * (1.0 - self.nu)
            * base ** (-self.eta - 1.0)
            / self._norm_expm1
        )

    def omega(self, x: np.ndarray | float) -> np.ndarray | float:
        arr = np.asarray(x, dtype=float)
        out = self._omega_at_base(1.0 - (1.0 - self.nu) * arr)
        return float(out) if np.ndim(x) == 0 else out

    def omega_complement(self, a: np.ndarray | float) -> np.ndarray | float:
        # 1 - (1 - nu)(1 - a) = nu + (1 - nu) a, without the cancellation
        # that costs omega(1 - a) a relative error of about 1e-16 / (nu + a).
        arr = np.asarray(a, dtype=float)
        out = self._omega_at_base(self.nu + (1.0 - self.nu) * arr)
        return float(out) if np.ndim(a) == 0 else out

    @functools.cached_property
    def _cumulative(self) -> np.ndarray:
        """Cumulative masses for k = 1..k_max, used by inverse-CDF sampling."""
        return np.cumsum(self.pmf_series(self.k_max))

    def sample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> np.ndarray | int:
        u = rng.random(size)
        idx = np.searchsorted(self._cumulative, u, side="left")
        ks = np.minimum(idx + 1, self.k_max).astype(np.int64)
        return int(ks) if size is None else ks
