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
from typing import Any, Callable, Sequence

from .accountant import (
    base_curve_for,
    calibrate_sigma_rdp,
    select_epsilon_fdp,
    select_epsilon_rdp,
    select_epsilon_rdp_pure,
)
from .audit import GameConfig, run_audit
from .discrete import (
    approx_dp_epsilon,
    near_worst_case_pair,
    pure_dp_epsilon,
    selection_distribution,
    theorem4_campaign,
)
from .runcount import PointMass, TruncatedNegativeBinomial
from .tradeoff import DpSgdConfig, EpsDeltaCurve, GaussianCurve

__all__ = ["UsageError", "main"]

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_INFINITE = 3
_EXIT_PROPERTY = 4

_TIGHTNESS_EPS = 1.0
_TIGHTNESS_XI = (1.0, 1e-3)
_PURE_DP_GENERIC_FACTOR = 3.0


class UsageError(Exception):
    """Raised for malformed parameters; maps to exit code 2."""


# Spec kind -> (constructor, its (key, type) arguments in order).
_SpecKinds = dict[str, tuple[Callable[..., Any], tuple[tuple[str, type], ...]]]
_BASE_KINDS: _SpecKinds = {
    "gdp": (GaussianCurve, (("mu", float),)),
    "epsdelta": (EpsDeltaCurve, (("eps", float), ("delta", float))),
    "dpsgd": (DpSgdConfig, (("sigma", float), ("tau", float), ("n", int))),
}
_XI_KINDS: _SpecKinds = {
    "tnb": (TruncatedNegativeBinomial, (("eta", float), ("nu", float))),
    "pointmass": (PointMass, (("k", int),)),
}


def _parse_spec(text: str, flag: str, kinds: _SpecKinds) -> Any:
    """Parses "kind:k1=v1,k2=v2" and builds the kind's object.

    Args:
      text: the spec string.
      flag: flag name for diagnostics.
      kinds: allowed kind -> (constructor, its (key, type) arguments).

    Returns:
      The constructor applied to the converted values in key order.
    """
    kind, sep, rest = text.partition(":")
    if kind not in kinds:
        raise UsageError(
            f"{flag}: unknown kind {kind!r}, expected one of "
            f"{sorted(kinds)}"
        )
    build, params = kinds[kind]
    required = [key for key, _ in params]
    fields: dict[str, str] = {}
    if sep and rest:
        for token in rest.split(","):
            key, eq, value = token.partition("=")
            if not eq or not key or not value:
                raise UsageError(
                    f"{flag}: malformed token {token!r}, expected key=value"
                )
            if key not in required:
                raise UsageError(
                    f"{flag}: unexpected key {key!r} for kind {kind!r}, "
                    f"expected {required}"
                )
            if key in fields:
                raise UsageError(f"{flag}: duplicate key {key!r}")
            fields[key] = value
    missing = [key for key in required if key not in fields]
    if missing:
        raise UsageError(
            f"{flag}: missing key {missing[0]!r} for kind {kind!r}"
        )
    values = []
    for key, convert in params:
        raw = fields[key]
        try:
            value = convert(raw)
            finite = math.isfinite(value)
        except (ValueError, OverflowError):
            raise UsageError(
                f"{flag}: bad value {raw!r} for key {key!r}"
            ) from None
        if not finite:
            raise UsageError(f"{flag}: {key} must be finite, got {raw!r}")
        values.append(value)
    try:
        return build(*values)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


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
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"--out: {exc}") from None


def _emit_report(payload: dict[str, Any], fmt: str, out: str | None) -> None:
    """Emits one flat report as JSON, single-row CSV, or aligned text."""
    if fmt == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)
    elif fmt == "csv":
        _emit_table(list(payload), [list(payload.values())], fmt, out)
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
    base = _parse_spec(args.base, "--base", _BASE_KINDS)
    dist = _parse_spec(args.xi, "--xi", _XI_KINDS)
    if isinstance(base, DpSgdConfig):
        base = base_curve_for(base)
    report = select_epsilon_fdp(base, dist, args.delta_h)
    _emit_report(dataclasses.asdict(report), args.format, args.out)
    if math.isinf(report.eps_h):
        return _EXIT_INFINITE
    return _EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    """Tabulates our bound against the prior bound over a grid.

    Each (eps_b, tau) is calibrated and its base curve built once, shared
    by its run-count columns; failures become NA cells with a reason.
    """
    eps_b_list = args.eps_b if args.eps_b else [1.0, 2.0, 4.0]
    tau_list = args.tau if args.tau else [1.0]
    xi_list = [_parse_spec(text, "--xi", _XI_KINDS) for text in args.xi or ()]
    if args.lower and args.trials < 1:
        raise UsageError(f"trials must be >= 1, got {args.trials}")
    header = ["eps_b", "tau", "eta", "nu", "e_xi", "eps_ours", "eps_prior"]
    if args.lower:
        header.append("eps_lower")
    header.append("reason")
    grid = [(e, t) for e in eps_b_list for t in tau_list] if xi_list else []
    rows = []
    for eps_b, tau in grid:
        config: DpSgdConfig | None = None
        curve: GaussianCurve | None = None
        reason = ""
        try:
            sigma = calibrate_sigma_rdp(eps_b, args.delta, tau, args.n_iters)
            config = DpSgdConfig(sigma=sigma, tau=tau, n_iters=args.n_iters)
        except ValueError as exc:
            reason = f"calibration failed: {exc}"
        else:
            try:
                curve = base_curve_for(config)
            except ValueError as exc:
                reason = f"bound computation failed: {exc}"
        for dist in xi_list:
            tnb = isinstance(dist, TruncatedNegativeBinomial)
            row: dict[str, Any] = {
                "eps_b": eps_b,
                "tau": tau,
                "eta": dist.eta if tnb else None,
                "nu": dist.nu if tnb else None,
                "e_xi": dist.mean,
                "eps_ours": None,
                "eps_prior": None,
                "eps_lower": None,
                "reason": reason,
            }
            if curve is not None:
                try:
                    ours = select_epsilon_fdp(curve, dist, args.delta_h).eps_h
                    prior = None
                    if tnb:
                        prior = select_epsilon_rdp(config, dist, args.delta_h)
                except ValueError as exc:
                    row["reason"] = f"bound computation failed: {exc}"
                else:
                    row.update(eps_ours=ours, eps_prior=prior)
                    if not tnb:
                        row["reason"] = "prior bound requires a tnb run count"
            if config is not None and args.lower:
                game = GameConfig(
                    config=config,
                    dist=dist,
                    trials=args.trials,
                    seed=args.seed,
                    delta=args.delta,
                )
                sweep = run_audit(game)
                row["eps_lower"] = float(sweep.eps_lower[sweep.best])
            rows.append([row[name] for name in header])
    _emit_table(header, rows, args.format, args.out)
    return _EXIT_OK


def cmd_tightness(args: argparse.Namespace) -> int:
    """Reproduces the near-worst-case selection example."""
    pair = near_worst_case_pair(epsilon=_TIGHTNESS_EPS)
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
    base = _parse_spec(args.base, "--base", _BASE_KINDS)
    if not isinstance(base, DpSgdConfig):
        raise UsageError(
            "--base: audit requires a dpsgd base, got "
            f"{args.base.split(':', 1)[0]!r}"
        )
    cfg = GameConfig(
        config=base,
        dist=_parse_spec(args.xi, "--xi", _XI_KINDS),
        trials=args.trials,
        seed=args.seed,
        confidence=args.confidence,
        delta=args.delta,
    )
    sweep = run_audit(cfg)
    if args.format == "csv":
        columns = {
            "threshold": sweep.thresholds,
            "fp": sweep.fp_counts,
            "fn": sweep.fn_counts,
            "fp_upper": sweep.fp_upper,
            "fn_upper": sweep.fn_upper,
            "eps_lower": sweep.eps_lower,
        }
        rows = list(zip(*(column.tolist() for column in columns.values())))
        _emit_table(list(columns), rows, "csv", args.out)
        return _EXIT_OK
    best = sweep.best
    fp, fn = int(sweep.fp_counts[best]), int(sweep.fn_counts[best])
    payload = {
        "best_threshold": float(sweep.thresholds[best]),
        "tp": sweep.n_alternative - fn,
        "fp": fp,
        "tn": sweep.n_null - fp,
        "fn": fn,
        "fp_upper": float(sweep.fp_upper[best]),
        "fn_upper": float(sweep.fn_upper[best]),
        "eps_lower": float(sweep.eps_lower[best]),
    }
    _emit_report(payload, args.format, args.out)
    return _EXIT_OK


def cmd_theorem4(args: argparse.Namespace) -> int:
    """Runs the grouped-versus-refined divergence campaign."""
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
