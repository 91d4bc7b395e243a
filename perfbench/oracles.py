"""Independent checks of privtune's JSON outputs.

Every check recomputes what it can from the formulas alone, with the
standard library only (no numpy, scipy or privtune), so that a defect in
the program cannot hide in its own check. A check returns a list of
problems; an empty list means the output passed.

The checks are invariants and independent oracles, not byte comparisons:
an implementation that changes a random stream or the order of a sum
still passes, and one that prints a wrong number does not. Upper bounds
are also compared against the values the program printed when the
benchmark was defined (``reference.json``): an upper bound that falls
below that value by more than float noise is a failure.
"""

from __future__ import annotations

import math
import statistics

# Relative tolerance of a recomputed value.
REL_TOL = 1e-9
# Slack below the recorded value before an upper bound counts as fallen.
# It admits only float noise from a reordered sum.
REF_SLACK = 1e-9
# Both epsilon conversions solve for epsilon to 1e-9 absolute; a check of
# delta(eps) carries that through the slope |d delta / d eps|.
_EPS_ROOT_TOL = 1e-9
_EPSDELTA_ABS_TOL = 2e-9
# A fair truth bit: the alternative count stays within this many
# standard deviations of half the trials (false alarm below 1e-8).
_TRUTH_SIGMAS = 6.0

TIGHTNESS_EPS_TUNED = 2.925311665665696
TIGHTNESS_EPS_PREDICTED = 3.114716467679132
# Parameters of the near-worst-case example: spread, ratio, epsilon,
# and the geometric run count TNB(eta=1, nu=1e-3).
_TIGHT_SPREAD, _TIGHT_RATIO, _TIGHT_EPS, _TIGHT_NU = 1e-3, 100.0, 1.0, 1e-3
_PURE_GENERIC_BOUND = 3.0

_NORMAL = statistics.NormalDist()


def phi(x: float) -> float:
    """Standard normal CDF, accurate in the lower tail."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def parse_spec(text: str) -> tuple[str, dict[str, float]]:
    """Splits 'kind:k=v,...' into its kind and float fields."""
    kind, _, rest = text.partition(":")
    fields = {}
    for token in filter(None, rest.split(",")):
        key, _, value = token.partition("=")
        fields[key] = float(value)
    return kind, fields


class RunCount:
    """Mean and omega(x) = sum_k k Pr(k) x^(k-1) of a run-count spec."""

    def __init__(self, spec: str):
        self.kind, self.fields = parse_spec(spec)
        if self.kind not in ("tnb", "pointmass"):
            raise ValueError(f"unknown run count {spec!r}")

    def omega(self, x: float) -> float:
        if self.kind == "pointmass":
            k = self.fields["k"]
            return k * x ** (k - 1.0)
        eta, nu = self.fields["eta"], self.fields["nu"]
        base = 1.0 - (1.0 - nu) * x
        if eta == 0.0:
            return (1.0 - nu) / (base * math.log(1.0 / nu))
        return eta * (1.0 - nu) * base ** (-eta - 1.0) / math.expm1(
            -eta * math.log(nu)
        )

    @property
    def mean(self) -> float:
        return self.omega(1.0)


def gaussian_mu(base: str) -> float | None:
    """Gaussian-DP parameter of a gdp or dpsgd base; None for epsdelta.

    A dpsgd base at tau = 1 is exactly sqrt(N)/sigma-GDP. Below tau = 1
    this is the central-limit approximation
    sqrt(2) tau sqrt(N) sqrt(e^(1/sigma^2) Phi(1.5/sigma)
    + 3 Phi(-0.5/sigma) - 2), which is not a proven upper bound.
    """
    kind, f = parse_spec(base)
    if kind == "gdp":
        return f["mu"]
    if kind != "dpsgd":
        return None
    sigma, tau, n = f["sigma"], f["tau"], f["n"]
    if tau == 1.0:
        return math.sqrt(n) / sigma
    inner = (
        math.exp(sigma**-2) * phi(1.5 / sigma)
        + 3.0 * phi(-0.5 / sigma)
        - 2.0
    )
    return math.sqrt(2.0 * inner) * tau * math.sqrt(n)


def gdp_delta(mu: float, eps: float) -> float:
    """delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2)."""
    return phi(-eps / mu + mu / 2.0) - math.exp(eps) * phi(-eps / mu - mu / 2.0)


def base_curve(base: str):
    """The trade-off function f of a base spec, as a scalar callable."""
    mu = gaussian_mu(base)
    if mu is not None:

        def gaussian(a: float) -> float:
            if a <= 0.0:
                return 1.0
            if a >= 1.0:
                return 0.0
            return phi(-_NORMAL.inv_cdf(a) - mu)

        return gaussian
    _, f = parse_spec(base)
    eps, delta = f["eps"], f["delta"]

    def eps_delta(a: float) -> float:
        return max(
            0.0,
            1.0 - delta - math.exp(eps) * a,
            math.exp(-eps) * (1.0 - delta - a),
        )

    return eps_delta


def _epsdelta_conversion(eps: float, delta: float, target: float) -> float:
    """Smallest eps' with the (eps, delta) curve above 1 - target - e^eps' x.

    The gap between that line and the piecewise-linear curve is concave,
    so it peaks at a vertex of the curve: x = 0, the corner
    x* = (1 - delta) / (1 + e^eps) where f(x*) = x*, or x = 1 - delta.
    Requires target >= delta, which makes the x = 0 and x = 1 - delta
    vertices slack.
    """
    corner = (1.0 - delta) / (1.0 + math.exp(eps))
    return max(0.0, math.log((1.0 - target - corner) / corner))


def check_accountant(
    out: dict, base: str, xi: str, delta_h: float, ref_eps_h: float | None
) -> list[str]:
    """Checks one `accountant --format json` report.

    The base epsilon is checked against its definition: for a Gaussian
    base, delta(eps_base) must equal delta_h / omega(1), to 1e-9 relative
    plus the 1e-9 root tolerance in epsilon times the slope
    e^eps Phi(-eps/mu - mu/2) of delta(eps); for an
    (eps, delta) base it must equal the closed-form conversion. The
    log-ratio must be at least the objective log omega(1 - a) -
    log omega(f(a)) at the reported maximizer, and at most
    log omega(1) - log omega(0), since omega is nondecreasing.
    """
    want_keys = {"argmax_a", "delta_h", "eps_base", "eps_h", "log_ratio", "method"}
    if set(out) != want_keys:
        return [f"keys {sorted(out)} != {sorted(want_keys)}"]
    problems = []
    if out["method"] != "FDP_OURS":
        problems.append(f"method {out['method']!r}")
    if out["delta_h"] != delta_h:
        problems.append(f"delta_h {out['delta_h']} != {delta_h}")
    eps_h, eps_base, log_ratio, a = (
        out["eps_h"],
        out["eps_base"],
        out["log_ratio"],
        out["argmax_a"],
    )
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in (eps_h, eps_base, log_ratio, a)):
        return problems + [f"non-finite field in {out}"]
    if not _close(eps_h, eps_base + log_ratio, 1e-12):
        problems.append(f"eps_h {eps_h} != eps_base + log_ratio")
    if not 0.0 <= a <= 1.0:
        problems.append(f"argmax_a {a} outside [0, 1]")
        return problems
    dist = RunCount(xi)
    per_run = delta_h / dist.mean
    mu = gaussian_mu(base)
    if mu is not None:
        got = gdp_delta(mu, eps_base)
        if eps_base == 0.0:
            if got > per_run * (1.0 + REL_TOL):
                problems.append(f"eps_base 0 but delta(0) {got} > {per_run}")
        elif abs(got - per_run) > REL_TOL * per_run + _EPS_ROOT_TOL * math.exp(
            eps_base
        ) * phi(-eps_base / mu - mu / 2.0):
            problems.append(
                f"delta(eps_base) {got!r} != delta_h/omega(1) {per_run!r}"
            )
    else:
        _, f = parse_spec(base)
        want = _epsdelta_conversion(f["eps"], f["delta"], per_run)
        if abs(eps_base - want) > _EPSDELTA_ABS_TOL:
            problems.append(f"eps_base {eps_base!r} != exact {want!r}")
    curve = base_curve(base)
    objective = _log(dist.omega(1.0 - a)) - _log(dist.omega(curve(a)))
    tol = REL_TOL * max(1.0, abs(log_ratio))
    if log_ratio < objective - tol:
        problems.append(
            f"log_ratio {log_ratio!r} < objective {objective!r} at argmax_a"
        )
    ceiling = math.log(dist.mean) - _log(dist.omega(0.0))
    if log_ratio < -tol or log_ratio > ceiling + tol:
        problems.append(f"log_ratio {log_ratio!r} outside [0, {ceiling!r}]")
    problems += check_reference("eps_h", eps_h, ref_eps_h)
    return problems


def check_reference(name: str, got: float | None, ref: float | None) -> list[str]:
    """An upper bound may not fall below the value recorded for it."""
    if ref is None:
        return [f"{name}: no recorded value"]
    if got is None or got < ref * (1.0 - REF_SLACK):
        return [f"{name} {got!r} fell below the recorded {ref!r}"]
    return []


def check_compare(
    rows: list, cells: list[tuple[float, float, str]], refs: dict
) -> list[str]:
    """Checks `compare --format json` rows against the requested grid.

    ``cells`` lists (eps_b, tau, xi spec) in the program's row order and
    ``refs`` maps cell keys to the recorded eps_ours and eps_prior.
    """
    if not isinstance(rows, list) or len(rows) != len(cells):
        return [f"expected {len(cells)} rows, got {rows!r:.200}"]
    problems = []
    for row, (eps_b, tau, xi) in zip(rows, cells):
        key = compare_key(eps_b, tau, xi)
        if row.get("eps_b") != eps_b or row.get("tau") != tau:
            problems.append(f"{key}: row is for ({row.get('eps_b')}, {row.get('tau')})")
            continue
        dist = RunCount(xi)
        if not _close(row.get("e_xi") or 0.0, dist.mean, 1e-12):
            problems.append(f"{key}: e_xi {row.get('e_xi')!r} != {dist.mean!r}")
        ref = refs.get(key, {})
        problems += check_reference(f"{key} eps_ours", row.get("eps_ours"), ref.get("eps_ours"))
        if dist.kind == "tnb":
            problems += check_reference(
                f"{key} eps_prior", row.get("eps_prior"), ref.get("eps_prior")
            )
        elif row.get("eps_prior") is not None:
            problems.append(f"{key}: eps_prior for a pointmass run count")
    return problems


def compare_key(eps_b: float, tau: float, xi: str) -> str:
    return f"{eps_b!r}|{tau!r}|{xi}"


def accountant_key(base: str, xi: str, delta_h: str) -> str:
    return f"{base}|{xi}|{delta_h}"


def _tight_pair() -> tuple[list[float], list[float]]:
    b, d, e = _TIGHT_SPREAD, _TIGHT_RATIO, math.exp(_TIGHT_EPS)
    return [1.0 - b * e - d * b, b * e, d * b], [1.0 - b - d * b * e, b, d * b * e]


def _geometric_selection(p: list[float]) -> list[float]:
    """Best-of-k output of a strictly scored p under the geometric run count.

    q_j = S(c_j) - S(c_{j-1}) with c_j the cumulative mass and
    S(y) = nu y / (1 - (1 - nu) y) the pgf of TNB(eta=1, nu).
    """
    nu = _TIGHT_NU
    q, cum, prev = [], 0.0, 0.0
    for mass in p:
        cum += mass
        here = nu * cum / (1.0 - (1.0 - nu) * cum)
        q.append(here - prev)
        prev = here
    return q


def check_tightness_pure(out: dict) -> list[str]:
    """Checks `tightness --which pure` against its construction."""
    p, p_prime = _tight_pair()
    q, q_prime = _geometric_selection(p), _geometric_selection(p_prime)
    problems = []
    for name, want in (
        ("base_p", p),
        ("base_p_prime", p_prime),
        ("tuned_q", q),
        ("tuned_q_prime", q_prime),
    ):
        got = out.get(name)
        if not isinstance(got, list) or len(got) != 3 or not all(
            _close(g, w) for g, w in zip(got, want)
        ):
            problems.append(f"{name} {got!r} != {want!r}")
    eps = max(abs(math.log(a / b)) for a, b in zip(q, q_prime))
    if not _close(out.get("eps_tuned", math.nan), eps):
        problems.append(f"eps_tuned {out.get('eps_tuned')!r} != {eps!r}")
    if out.get("generic_bound") != _PURE_GENERIC_BOUND:
        problems.append(f"generic_bound {out.get('generic_bound')!r}")
    if not _close(out.get("gap", math.nan), _PURE_GENERIC_BOUND - eps, 1e-6):
        problems.append(f"gap {out.get('gap')!r} != {_PURE_GENERIC_BOUND - eps!r}")
    return problems


def check_tightness_approx(out: dict) -> list[str]:
    """Checks `tightness --which approx` against its exact values."""
    problems = []
    if out.get("delta") != 1e-5:
        problems.append(f"delta {out.get('delta')!r}")
    tuned, predicted = out.get("eps_tuned"), out.get("eps_predicted")
    if not isinstance(tuned, float) or not _close(tuned, TIGHTNESS_EPS_TUNED):
        problems.append(f"eps_tuned {tuned!r} != {TIGHTNESS_EPS_TUNED!r}")
    if not isinstance(predicted, float) or not _close(
        predicted, TIGHTNESS_EPS_PREDICTED
    ):
        problems.append(
            f"eps_predicted {predicted!r} != {TIGHTNESS_EPS_PREDICTED!r}"
        )
    if not problems and not _close(out.get("gap", math.nan), predicted - tuned, 1e-6):
        problems.append(f"gap {out.get('gap')!r} != {predicted - tuned!r}")
    return problems


def check_theorem4(out: dict, instances: int) -> list[str]:
    """Every randomized instance must pass the grouped-vs-refined check."""
    passes = out.get("passes")
    if out.get("instances") != instances or passes != instances:
        return [f"passes {passes!r} of {out.get('instances')!r}, asked {instances}"]
    if out.get("verdict") != f"{passes}/{instances} pass":
        return [f"verdict {out.get('verdict')!r}"]
    return []


def check_audit(
    out: dict, trials: int, delta: float, eps_h: float, min_eps: float = 0.0
) -> list[str]:
    """Checks one `audit --format json` report as a bracketed lower bound.

    The four counts must sum to the trials and split them evenly within
    sampling error; each rate limit must be at least its empirical rate
    and at most 1; eps_lower must follow from the two limits; and
    min_eps <= eps_lower <= eps_h, the accountant's upper bound for the
    same base and run count.
    """
    keys = ("tp", "fp", "tn", "fn")
    if not all(isinstance(out.get(k), int) and out[k] >= 0 for k in keys):
        return [f"counts missing or negative in {out!r:.200}"]
    tp, fp, tn, fn = (out[k] for k in keys)
    problems = []
    if tp + fp + tn + fn != trials:
        problems.append(f"tp+fp+tn+fn = {tp + fp + tn + fn} != {trials}")
    n0, n1 = fp + tn, tp + fn
    if abs(n1 - trials / 2.0) > _TRUTH_SIGMAS * math.sqrt(trials / 4.0):
        problems.append(f"{n1} of {trials} trials have truth 1")
    fp_up, fn_up, eps = out.get("fp_upper"), out.get("fn_upper"), out.get("eps_lower")
    if not all(isinstance(v, float) for v in (fp_up, fn_up, eps)):
        return problems + [f"non-float limits in {out!r:.200}"]
    if not (n0 and fp / n0 <= fp_up <= 1.0) or not (n1 and fn / n1 <= fn_up <= 1.0):
        problems.append(f"rate limits ({fp_up!r}, {fn_up!r}) below the rates")
        return problems
    want = 0.0
    for num, den in ((1.0 - delta - fp_up, fn_up), (1.0 - delta - fn_up, fp_up)):
        if num > 0.0:
            want = max(want, math.log(num / den) if den > 0.0 else math.inf)
    if not _close(eps, want):
        problems.append(f"eps_lower {eps!r} != {want!r} from the rate limits")
    if not 0.0 <= min_eps <= eps <= eps_h:
        problems.append(f"eps_lower {eps!r} outside [{min_eps}, eps_h={eps_h!r}]")
    if not math.isfinite(out.get("best_threshold", math.nan)):
        problems.append(f"best_threshold {out.get('best_threshold')!r}")
    return problems
