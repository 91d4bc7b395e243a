"""Command-line front end for the privacy-accounting toolkit.

Subcommands: ``accountant`` bounds the tuning protocol's privacy level
for one configuration, ``compare`` tabulates our bound against the prior
generic bound over a parameter grid, ``tightness`` reproduces the
near-worst-case selection example, ``audit`` runs the Monte Carlo
distinguishing game, and ``theorem4`` runs the randomized
grouped-versus-refined divergence campaign. Reports are emitted as
JSON, CSV, or aligned text, to standard output or a file.

Exit codes: 0 success, 2 usage or parse error, 3 infinite privacy
bound, 4 property violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Any, Sequence

from .accountant import (
    base_curve_for,
    calibrate_sigma_rdp,
    compare_bounds,
    select_epsilon_fdp,
    select_epsilon_rdp_pure,
)
from .audit import (
    GameConfig,
    run_audit,
    simulate_game,
    sweep_thresholds,
)
from .discrete import (
    approx_dp_epsilon,
    near_worst_case_pair,
    pure_dp_epsilon,
    selection_distribution,
    theorem4_campaign,
)
from .runcount import PointMass, RunCountDist, TruncatedNegativeBinomial
from .tradeoff import (
    DpSgdConfig,
    EpsDeltaCurve,
    GaussianCurve,
    TradeoffCurve,
)

__all__ = ["UsageError", "main"]

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_INFINITE = 3
_EXIT_PROPERTY = 4

_TIGHTNESS_SPREAD = 1e-3
_TIGHTNESS_RATIO = 100.0
_TIGHTNESS_EPS = 1.0
_TIGHTNESS_XI = (1.0, 1e-3)
_PURE_DP_GENERIC_FACTOR = 3.0


class UsageError(Exception):
    """Raised for malformed parameters; maps to exit code 2."""


def _parse_kv_spec(
    text: str, name: str, kinds: dict[str, tuple[str, ...]]
) -> tuple[str, dict[str, str]]:
    """Splits "kind:k1=v1,k2=v2" and validates kind and key set.

    Args:
      text: the spec string.
      name: flag name for diagnostics.
      kinds: allowed kind -> required key tuple.

    Returns:
      (kind, key -> raw value).
    """
    kind, sep, rest = text.partition(":")
    if kind not in kinds:
        raise UsageError(
            f"{name}: unknown kind {kind!r}, expected one of "
            f"{sorted(kinds)}"
        )
    required = kinds[kind]
    fields: dict[str, str] = {}
    if sep and rest:
        for token in rest.split(","):
            key, eq, value = token.partition("=")
            if not eq or not key or not value:
                raise UsageError(
                    f"{name}: malformed token {token!r}, expected key=value"
                )
            if key not in required:
                raise UsageError(
                    f"{name}: unexpected key {key!r} for kind {kind!r}, "
                    f"expected {list(required)}"
                )
            if key in fields:
                raise UsageError(f"{name}: duplicate key {key!r}")
            fields[key] = value
    missing = [key for key in required if key not in fields]
    if missing:
        raise UsageError(
            f"{name}: missing key {missing[0]!r} for kind {kind!r}"
        )
    return kind, fields


def _spec_number(raw: str, name: str, key: str, kind: type = float) -> Any:
    try:
        value = kind(raw)
    except ValueError:
        raise UsageError(f"{name}: bad value {raw!r} for key {key!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{name}: {key} must be finite, got {raw!r}")
    return value


def parse_base_spec(
    text: str,
) -> GaussianCurve | EpsDeltaCurve | DpSgdConfig:
    """Parses a base-curve spec string.

    Accepted forms: "gdp:mu=<r>", "epsdelta:eps=<r>,delta=<r>", and
    "dpsgd:sigma=<r>,tau=<r>,n=<int>".

    Args:
      text: the spec string.

    Returns:
      The corresponding curve or training configuration.
    """
    kind, fields = _parse_kv_spec(
        text,
        "--base",
        {
            "gdp": ("mu",),
            "epsdelta": ("eps", "delta"),
            "dpsgd": ("sigma", "tau", "n"),
        },
    )
    try:
        if kind == "gdp":
            return GaussianCurve(_spec_number(fields["mu"], "--base", "mu"))
        if kind == "epsdelta":
            return EpsDeltaCurve(
                _spec_number(fields["eps"], "--base", "eps"),
                _spec_number(fields["delta"], "--base", "delta"),
            )
        return DpSgdConfig(
            _spec_number(fields["sigma"], "--base", "sigma"),
            _spec_number(fields["tau"], "--base", "tau"),
            _spec_number(fields["n"], "--base", "n", int),
        )
    except ValueError as exc:
        raise UsageError(f"--base: {exc}") from None


def parse_xi_spec(text: str) -> RunCountDist:
    """Parses a run-count spec string.

    Accepted forms: "tnb:eta=<r>,nu=<r>" and "pointmass:k=<int>".

    Args:
      text: the spec string.

    Returns:
      The corresponding run-count distribution.
    """
    kind, fields = _parse_kv_spec(
        text, "--xi", {"tnb": ("eta", "nu"), "pointmass": ("k",)}
    )
    try:
        if kind == "tnb":
            return TruncatedNegativeBinomial(
                _spec_number(fields["eta"], "--xi", "eta"),
                _spec_number(fields["nu"], "--xi", "nu"),
            )
        return PointMass(_spec_number(fields["k"], "--xi", "k", int))
    except ValueError as exc:
        raise UsageError(f"--xi: {exc}") from None


def _fmt_value(value: Any) -> str:
    """Formats one cell: floats with 6 significant digits."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".6g")
    if isinstance(value, list):
        return "[" + " ".join(_fmt_value(item) for item in value) + "]"
    if value is None:
        return "NA"
    return str(value)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_report(payload: dict[str, Any], fmt: str, out: str | None) -> None:
    """Emits one flat report as JSON, single-row CSV, or aligned text."""
    if fmt == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)
    elif fmt == "csv":
        keys = list(payload)
        lines = [
            ",".join(keys),
            ",".join(_fmt_value(payload[key]) for key in keys),
        ]
        _emit("\n".join(lines) + "\n", out)
    else:
        width = max(len(key) for key in payload)
        lines = [
            f"{key.ljust(width)}  {_fmt_value(value)}"
            for key, value in payload.items()
        ]
        _emit("\n".join(lines) + "\n", out)


def _emit_table(
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
    fmt: str,
    out: str | None,
) -> None:
    """Emits a table as a JSON row list, CSV, or padded text."""
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)
        return
    cells = [[_fmt_value(value) for value in row] for row in rows]
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(row) for row in cells]
        _emit("\n".join(lines) + "\n", out)
        return
    widths = [
        max(len(name), *(len(row[i]) for row in cells)) if cells else len(name)
        for i, name in enumerate(header)
    ]
    lines = [
        "  ".join(name.ljust(widths[i]) for i, name in enumerate(header))
    ]
    for row in cells:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    _emit("\n".join(line.rstrip() for line in lines) + "\n", out)


def cmd_accountant(args: argparse.Namespace) -> int:
    """Bounds the tuned protocol's privacy level for one configuration."""
    base = parse_base_spec(args.base)
    dist = parse_xi_spec(args.xi)
    curve: TradeoffCurve
    if isinstance(base, DpSgdConfig):
        curve = base_curve_for(base)
    else:
        curve = base
    report = select_epsilon_fdp(curve, dist, args.delta_h)
    _emit_report(dataclasses.asdict(report), args.format, args.out)
    if math.isinf(report.eps_h):
        return _EXIT_INFINITE
    return _EXIT_OK


def _compare_cell(
    eps_b: float,
    tau: float,
    config: DpSgdConfig | str,
    dist: RunCountDist,
    delta_h: float,
) -> dict[str, Any]:
    """One comparison row; failures become NA cells with a reason.

    config is the calibrated training configuration of the row's
    (eps_b, tau), or the reason its calibration failed.
    """
    row: dict[str, Any] = {
        "eps_b": eps_b,
        "tau": tau,
        "eta": None,
        "nu": None,
        "e_xi": dist.mean,
        "eps_ours": None,
        "eps_prior": None,
        "reason": "",
    }
    if isinstance(dist, TruncatedNegativeBinomial):
        row["eta"] = dist.eta
        row["nu"] = dist.nu
    if isinstance(config, str):
        row["reason"] = config
        return row
    row["sigma"] = config.sigma
    try:
        bounds = compare_bounds(config, dist, delta_h)
    except ValueError as exc:
        row["reason"] = f"bound computation failed: {exc}"
        return row
    row["eps_ours"] = bounds["eps_ours"]
    row["eps_prior"] = bounds["eps_prior"]
    if bounds["eps_prior"] is None:
        row["reason"] = "prior bound requires a tnb run count"
    return row


def cmd_compare(args: argparse.Namespace) -> int:
    """Tabulates our bound against the prior bound over a grid.

    Each (eps_b, tau) is calibrated once and shared by its run-count
    columns.
    """
    eps_b_list = args.eps_b if args.eps_b else [1.0, 2.0, 4.0]
    tau_list = args.tau if args.tau else [1.0]
    xi_list = [parse_xi_spec(text) for text in args.xi or ()]
    header = ["eps_b", "tau", "eta", "nu", "e_xi", "eps_ours", "eps_prior"]
    if args.lower:
        header.append("eps_lower")
    header.append("reason")
    grid = [(e, t) for e in eps_b_list for t in tau_list] if xi_list else []
    rows = []
    for eps_b, tau in grid:
        config: DpSgdConfig | str
        try:
            sigma = calibrate_sigma_rdp(eps_b, args.delta, tau, args.n_iters)
            config = DpSgdConfig(sigma=sigma, tau=tau, n_iters=args.n_iters)
        except ValueError as exc:
            config = f"calibration failed: {exc}"
        for dist in xi_list:
            cell = _compare_cell(eps_b, tau, config, dist, args.delta_h)
            if args.lower:
                cell["eps_lower"] = _cell_lower_bound(cell, dist, args)
            rows.append([cell.get(name) for name in header])
    _emit_table(header, rows, args.format, args.out)
    return _EXIT_OK


def _cell_lower_bound(
    cell: dict[str, Any], dist: RunCountDist, args: argparse.Namespace
) -> float | None:
    """Audited lower bound for one comparison cell, sharing its sigma."""
    if "sigma" not in cell:
        return None
    cfg = GameConfig(
        config=DpSgdConfig(
            sigma=cell["sigma"], tau=cell["tau"], n_iters=args.n_iters
        ),
        dist=dist,
        trials=args.trials or 1,
        seed=args.seed,
        delta=args.delta,
    )
    return run_audit(cfg).eps_lower


def cmd_tightness(args: argparse.Namespace) -> int:
    """Reproduces the near-worst-case selection example."""
    pair = near_worst_case_pair(
        _TIGHTNESS_SPREAD, _TIGHTNESS_RATIO, _TIGHTNESS_EPS
    )
    dist = TruncatedNegativeBinomial(*_TIGHTNESS_XI)
    tuned = selection_distribution(pair.p, pair.score_partition, dist)
    tuned_prime = selection_distribution(
        pair.p_prime, pair.score_partition, dist
    )
    if args.which == "pure":
        eps_tuned = pure_dp_epsilon(tuned, tuned_prime)
        bound = _PURE_DP_GENERIC_FACTOR * _TIGHTNESS_EPS
        payload = {
            "base_p": [float(x) for x in pair.p],
            "base_p_prime": [float(x) for x in pair.p_prime],
            "tuned_q": [float(x) for x in tuned.q],
            "tuned_q_prime": [float(x) for x in tuned_prime.q],
            "eps_tuned": eps_tuned,
            "generic_bound": bound,
            "gap": bound - eps_tuned,
        }
    else:
        eps_at_delta = approx_dp_epsilon(tuned, tuned_prime, args.delta_h)
        predicted = select_epsilon_rdp_pure(
            _TIGHTNESS_EPS, dist, args.delta_h
        )
        payload = {
            "delta": args.delta_h,
            "eps_tuned": eps_at_delta,
            "eps_predicted": predicted,
            "gap": predicted - eps_at_delta,
        }
    _emit_report(payload, args.format, args.out)
    return _EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    """Runs the distinguishing game and reports the concluded bound."""
    base = parse_base_spec(args.base)
    if not isinstance(base, DpSgdConfig):
        raise UsageError(
            "--base: audit requires a dpsgd base, got "
            f"{args.base.split(':', 1)[0]!r}"
        )
    dist = parse_xi_spec(args.xi)
    try:
        cfg = GameConfig(
            config=base,
            dist=dist,
            trials=args.trials,
            seed=args.seed,
            confidence=args.confidence,
            delta=args.delta,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "csv":
        truth, scores = simulate_game(cfg)
        sweep = sweep_thresholds(truth, scores, cfg.confidence, cfg.delta)
        header = [
            "threshold",
            "fp",
            "fn",
            "fp_upper",
            "fn_upper",
            "eps_lower",
        ]
        rows = [
            [
                float(sweep.thresholds[i]),
                int(sweep.fp_counts[i]),
                int(sweep.fn_counts[i]),
                float(sweep.fp_upper[i]),
                float(sweep.fn_upper[i]),
                float(sweep.eps_lower[i]),
            ]
            for i in range(sweep.thresholds.size)
        ]
        _emit_table(header, rows, "csv", args.out)
        return _EXIT_OK
    report = run_audit(cfg)
    payload = {
        "best_threshold": report.best_threshold,
        "tp": report.counts[0],
        "fp": report.counts[1],
        "tn": report.counts[2],
        "fn": report.counts[3],
        "fp_upper": report.fp_upper,
        "fn_upper": report.fn_upper,
        "eps_lower": report.eps_lower,
    }
    _emit_report(payload, args.format, args.out)
    return _EXIT_OK


def cmd_theorem4(args: argparse.Namespace) -> int:
    """Runs the grouped-versus-refined divergence campaign."""
    if args.instances < 1:
        raise UsageError(f"--instances must be >= 1, got {args.instances}")
    passes, worst = theorem4_campaign(args.instances, args.seed)
    payload = {
        "instances": args.instances,
        "passes": passes,
        "worst_margin": worst,
        "verdict": f"{passes}/{args.instances} pass",
    }
    _emit_report(payload, args.format, args.out)
    if passes != args.instances:
        return _EXIT_PROPERTY
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privtune",
        description=(
            "Privacy accounting, tightness checks, and Monte Carlo audits "
            "for best-of-many hyper-parameter tuning."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("json", "csv", "text"),
            default="text",
            help="output format (default text)",
        )
        p.add_argument(
            "--out",
            default=None,
            help="write output to this path instead of standard output",
        )

    acc = sub.add_parser(
        "accountant", help="bound the tuned protocol's privacy level"
    )
    acc.add_argument(
        "--base",
        required=True,
        help="base curve: gdp:mu=, epsdelta:eps=,delta=, dpsgd:sigma=,tau=,n=",
    )
    acc.add_argument(
        "--xi", required=True, help="run count: tnb:eta=,nu= or pointmass:k="
    )
    acc.add_argument(
        "--delta-h",
        type=float,
        default=1e-5,
        dest="delta_h",
        help="additive slack of the tuned guarantee (default 1e-5)",
    )
    add_common(acc)
    acc.set_defaults(func=cmd_accountant)

    cmp_parser = sub.add_parser(
        "compare", help="tabulate our bound against the prior bound"
    )
    cmp_parser.add_argument(
        "--eps-b",
        type=float,
        action="append",
        dest="eps_b",
        help="base budget; repeat for several (default 1 2 4)",
    )
    cmp_parser.add_argument(
        "--tau",
        type=float,
        action="append",
        help="sampling rate; repeat for several (default 1)",
    )
    cmp_parser.add_argument(
        "--xi",
        action="append",
        help="run-count spec; repeat once per table column",
    )
    cmp_parser.add_argument(
        "--delta",
        type=float,
        default=1e-5,
        help="slack of the base calibration (default 1e-5)",
    )
    cmp_parser.add_argument(
        "--delta-h",
        type=float,
        default=1e-5,
        dest="delta_h",
        help="slack of the tuned guarantee (default 1e-5)",
    )
    cmp_parser.add_argument(
        "--n-iters",
        type=int,
        default=1000,
        dest="n_iters",
        help="composed iteration count (default 1000)",
    )
    cmp_parser.add_argument(
        "--lower",
        action="store_true",
        help="also audit each cell for an empirical lower bound",
    )
    cmp_parser.add_argument(
        "--trials",
        type=int,
        default=10**7,
        help="audit trials per cell with --lower (default 1e7)",
    )
    cmp_parser.add_argument(
        "--seed", type=int, default=0, help="audit seed with --lower"
    )
    add_common(cmp_parser)
    cmp_parser.set_defaults(func=cmd_compare)

    tight = sub.add_parser(
        "tightness", help="reproduce the near-worst-case selection example"
    )
    tight.add_argument(
        "--which",
        choices=("pure", "approx"),
        default="pure",
        help="pure-DP gap or approximate-DP prediction (default pure)",
    )
    tight.add_argument(
        "--delta-h",
        type=float,
        default=1e-5,
        dest="delta_h",
        help="slack for the approximate variant (default 1e-5)",
    )
    add_common(tight)
    tight.set_defaults(func=cmd_tightness)

    aud = sub.add_parser("audit", help="Monte Carlo distinguishing game")
    aud.add_argument(
        "--base", required=True, help="base mechanism: dpsgd:sigma=,tau=,n="
    )
    aud.add_argument(
        "--xi", required=True, help="run count: tnb:eta=,nu= or pointmass:k="
    )
    aud.add_argument(
        "--trials", type=int, default=10**7, help="game count (default 1e7)"
    )
    aud.add_argument("--seed", type=int, default=0, help="random seed")
    aud.add_argument(
        "--delta",
        type=float,
        default=1e-5,
        help="slack of the guarantee being tested (default 1e-5)",
    )
    aud.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="two-sided confidence for the rate bounds (default 0.95)",
    )
    add_common(aud)
    aud.set_defaults(func=cmd_audit)

    thm = sub.add_parser(
        "theorem4", help="randomized grouped-vs-refined divergence campaign"
    )
    thm.add_argument(
        "--instances", type=int, default=1000, help="instance count"
    )
    thm.add_argument("--seed", type=int, default=7, help="random seed")
    add_common(thm)
    thm.set_defaults(func=cmd_theorem4)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
