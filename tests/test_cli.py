"""Tests for the command-line front end: parsing, emission, exit codes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from privtune import cli
from privtune.accountant import calibrate_sigma_rdp
from privtune.audit import GameConfig, run_audit
from privtune.cli import main
from privtune.runcount import TruncatedNegativeBinomial
from privtune.tradeoff import DpSgdConfig

_ACCOUNTANT_EXAMPLE = [
    "accountant",
    "--base",
    "gdp:mu=1",
    "--xi",
    "tnb:eta=1,nu=1e-2",
    "--delta-h",
    "1e-3",
]
_AUDIT_SMALL = [
    "audit",
    "--base",
    "dpsgd:sigma=60,tau=1,n=1000",
    "--xi",
    "tnb:eta=1,nu=1e-2",
    "--trials",
    "131072",
    "--seed",
    "3",
]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_accountant_example_text(capsys):
    code, out, _ = _run(capsys, _ACCOUNTANT_EXAMPLE)
    assert code == 0
    assert "7.68347" in out
    assert "eps_h" in out


def test_accountant_point_mass_json(capsys):
    code, out, _ = _run(
        capsys,
        [
            "accountant",
            "--base",
            "gdp:mu=1",
            "--xi",
            "pointmass:k=1",
            "--delta-h",
            "1e-5",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["eps_h"] == pytest.approx(4.377178095682196, rel=1e-9)
    assert payload["log_ratio"] == 0.0


def test_json_output_round_trips_byte_identically(capsys):
    for argv in (
        [*_ACCOUNTANT_EXAMPLE, "--format", "json"],
        ["theorem4", "--instances", "5", "--seed", "7", "--format", "json"],
        [*_AUDIT_SMALL, "--format", "json"],
    ):
        code, out, _ = _run(capsys, argv)
        assert code == 0
        again = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert out == again


def test_output_is_deterministic_given_flags(capsys):
    first = _run(capsys, [*_AUDIT_SMALL, "--format", "json"])
    second = _run(capsys, [*_AUDIT_SMALL, "--format", "json"])
    assert first == second


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["accountant", "--base", "gdp:mu=1", "--xi", "bogus:x=1"], "bogus"),
        (["accountant", "--base", "gdp:mu=1", "--xi", "tnb:eta=1"], "nu"),
        (
            ["accountant", "--base", "gdp:mu=1", "--xi", "tnb:eta=1,nu=oops"],
            "oops",
        ),
        (
            ["accountant", "--base", "gdp:mu=;,", "--xi", "pointmass:k=1"],
            "malformed token",
        ),
        (
            [
                "audit",
                "--base",
                "dpsgd:sigma=abc,tau=1,n=1000",
                "--xi",
                "pointmass:k=1",
            ],
            "abc",
        ),
        (
            ["audit", "--base", "gdp:mu=1", "--xi", "pointmass:k=1"],
            "dpsgd",
        ),
        (
            ["accountant", "--base", "gdp:mu=1,mu=2", "--xi", "pointmass:k=1"],
            "--base: duplicate key 'mu'",
        ),
        (
            ["accountant", "--base", "gdp:sigma=1", "--xi", "pointmass:k=1"],
            "--base: unexpected key 'sigma' for kind 'gdp'",
        ),
        (
            ["accountant", "--base", "foo:mu=1", "--xi", "pointmass:k=1"],
            "--base: unknown kind 'foo'",
        ),
        (
            ["accountant", "--base", "gdp:mu=1", "--xi", "pointmass:k=2.5"],
            "--xi: bad value '2.5' for key 'k'",
        ),
        (
            ["accountant", "--base", "gdp:mu=1", "--xi", "pointmass:k=0"],
            "--xi: k must be >= 1, got 0",
        ),
    ],
)
def test_parse_errors_exit_2_and_name_the_token(capsys, argv, needle):
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert needle in err


def test_audit_zero_trials_exits_2(capsys):
    code, _, err = _run(capsys, [*_AUDIT_SMALL[:5], "--trials", "0"])
    assert code == 2
    assert "trials" in err


def test_theorem4_zero_instances_exits_2(capsys):
    code, _, err = _run(capsys, ["theorem4", "--instances", "0"])
    assert code == 2
    assert "instances" in err


def test_infinite_epsilon_exits_3(capsys):
    code, out, _ = _run(
        capsys,
        [
            "accountant",
            "--base",
            "epsdelta:eps=1,delta=0.5",
            "--xi",
            "pointmass:k=2",
        ],
    )
    assert code == 3
    assert "inf" in out


@pytest.mark.parametrize("eps", ["700", "1000"])
def test_accountant_large_epsdelta_base_converts_exactly(capsys, eps):
    # One run adds no log-ratio, and the per-run delta equals the curve's,
    # so the bound is the base epsilon itself; e^1000 overflows a float.
    code, out, err = _run(
        capsys,
        ["accountant", "--base", f"epsdelta:eps={eps},delta=1e-5"]
        + ["--xi", "pointmass:k=1", "--format", "json"],
    )
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["eps_base"] == report["eps_h"] == float(eps)
    assert report["log_ratio"] == 0.0


def _gdp_eps_root(mu: float, delta: float, hi: float) -> float:
    """Root of the Dong-Roth-Su delta(eps) = delta on [0, hi], by math.erfc."""

    def gap(eps: float) -> float:
        first = 0.5 * math.erfc((eps / mu - mu / 2.0) / math.sqrt(2.0))
        second = 0.5 * math.erfc((eps / mu + mu / 2.0) / math.sqrt(2.0))
        return first - math.exp(eps) * second - delta

    lo = 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


# dpsgd at tau = 1 is G_mu with mu = sqrt(1000) / 0.05 = 632; its eps_base,
# about 2e5, overflows math.exp, so it has no erfc root here.
@pytest.mark.parametrize(
    "base,mu", [("gdp:mu=14", 14.0), ("dpsgd:sigma=0.05,tau=1,n=1000", None)]
)
def test_accountant_converts_a_base_epsilon_above_100(capsys, base, mu):
    code, out, err = _run(
        capsys,
        ["accountant", "--base", base, "--xi", "pointmass:k=1"]
        + ["--format", "json"],
    )
    assert code == 0
    assert err == ""
    eps_base = json.loads(out)["eps_base"]
    assert 100.0 < eps_base < math.inf
    if mu is not None:
        root = _gdp_eps_root(mu, 1e-5, 200.0)
        assert abs(eps_base - root) <= 1e-13, (eps_base, root)


def test_theorem4_small_campaign(capsys):
    code, out, _ = _run(
        capsys, ["theorem4", "--instances", "5", "--seed", "7"]
    )
    assert code == 0
    assert "5/5 pass" in out


def test_compare_empty_xi_emits_header_only(capsys):
    code, out, _ = _run(capsys, ["compare", "--format", "csv"])
    assert code == 0
    assert out == "eps_b,tau,eta,nu,e_xi,eps_ours,eps_prior,reason\n"


def test_compare_geometric_cell_matches_frozen_bounds(capsys):
    code, out, _ = _run(
        capsys,
        [
            "compare",
            "--eps-b",
            "1",
            "--tau",
            "1",
            "--xi",
            "tnb:eta=1,nu=1e-2",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["eps_ours"]) == pytest.approx(2.01632, abs=1e-4)
    assert float(cells["eps_prior"]) == pytest.approx(2.68583, abs=1e-4)
    assert cells["e_xi"] == "100"


def test_compare_point_mass_row_reports_reason_not_crash(capsys):
    code, out, _ = _run(
        capsys,
        [
            "compare",
            "--eps-b",
            "1",
            "--xi",
            "pointmass:k=10",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    row = out.strip().split("\n")[1]
    assert ",NA," in row
    assert "prior bound requires a tnb run count" in row


# `compare` over 2 eps_b x 2 tau x 3 xi, as printed when every cell
# calibrated its own sigma.
# The pointmass rows' eps_ours is the best objective value the search
# evaluated, not a bound (see accountant.log_ratio_max), so it moves with
# the search's points.
_COMPARE_GRID_CSV = """\
eps_b,tau,eta,nu,e_xi,eps_ours,eps_prior,reason
1,1,0,0.01,21.4976,1.51334,1.88947,
1,1,1,0.01,100,2.01632,2.68583,
1,1,NA,NA,10,14.6143,NA,prior bound requires a tnb run count
1,0.1,0,0.01,21.4976,1.55467,1.88892,
1,0.1,1,0.01,100,2.07057,2.68493,
1,0.1,NA,NA,10,15.0027,NA,prior bound requires a tnb run count
2,1,0,0.01,21.4976,2.95216,3.61912,
2,1,1,0.01,100,3.8906,5.06628,
2,1,NA,NA,10,28.064,NA,prior bound requires a tnb run count
2,0.1,0,0.01,21.4976,3.10218,3.61879,
2,0.1,1,0.01,100,4.0845,5.06243,
2,0.1,NA,NA,10,29.4619,NA,prior bound requires a tnb run count
"""


def test_compare_calibrates_once_per_budget_and_rate(capsys, monkeypatch):
    calls = []
    calibrate = cli.calibrate_sigma_rdp

    def counted(*args):
        calls.append(args)
        return calibrate(*args)

    monkeypatch.setattr(cli, "calibrate_sigma_rdp", counted)
    argv = ["compare", "--eps-b", "1", "--eps-b", "2", "--tau", "1"]
    argv += ["--tau", "0.1", "--xi", "tnb:eta=0,nu=1e-2"]
    argv += ["--xi", "tnb:eta=1,nu=1e-2", "--xi", "pointmass:k=10"]
    code, out, _ = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert len(calls) == 4
    assert len(set(calls)) == 4
    assert out == _COMPARE_GRID_CSV


# (eps_ours, eps_prior) of each row of the same grid in JSON, as
# printed when every calibration bisected on all 511 orders.
_COMPARE_GRID_BOUNDS = [
    (1.513337028320076, 1.8894691973343227),
    (2.0163196887614854, 2.6858343960574844),
    (14.614288098676983, None),
    (1.5546695209231547, 1.8889157699428865),
    (2.0705675223868734, 2.6849345487646765),
    (15.002726200053004, None),
    (2.9521562671986836, 3.6191170366854375),
    (3.890598966716042, 5.066284776352299),
    (28.06402637188891, None),
    (3.102182424007293, 3.618789401414103),
    (4.084498702568833, 5.0624271860451575),
    (29.461924253925233, None),
]


def test_compare_json_is_frozen_byte_for_byte(capsys):
    argv = ["compare", "--eps-b", "1", "--eps-b", "2", "--tau", "1"]
    argv += ["--tau", "0.1", "--xi", "tnb:eta=0,nu=1e-2"]
    argv += ["--xi", "tnb:eta=1,nu=1e-2", "--xi", "pointmass:k=10"]
    code, out, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    columns = [(0.0, 0.01, 21.497576854210966), (1.0, 0.01, 99.99999999999999),
               (None, None, 10.0)]
    cells = [(e, t, c) for e in (1.0, 2.0) for t in (1.0, 0.1) for c in columns]
    rows = []
    for (eps_b, tau, (eta, nu, e_xi)), (ours, prior) in zip(
        cells, _COMPARE_GRID_BOUNDS
    ):
        reason = "" if eta is not None else "prior bound requires a tnb run count"
        rows.append({"eps_b": eps_b, "tau": tau, "eta": eta, "nu": nu,
                     "e_xi": e_xi, "eps_ours": ours, "eps_prior": prior,
                     "reason": reason})
    assert out == json.dumps(rows, indent=2, sort_keys=True) + "\n"


def test_compare_rejects_iterations_and_rate_by_name(capsys):
    expected = {
        ("--n-iters", "0"): "calibration failed: n_iters must be >= 1, got 0",
        ("--tau", "1.5"): "calibration failed: tau must lie in (0, 1], got 1.5",
        # Too large for a float: this raised OverflowError.
        ("--n-iters", "1" + "0" * 400): "calibration failed: n_iters=1"
        + "0" * 400 + " is too large for a float",
    }
    for flag, reason in expected.items():
        code, out, _ = _run(
            capsys,
            ["compare", "--eps-b", "1", *flag, "--xi", "tnb:eta=1,nu=1e-2"]
            + ["--xi", "pointmass:k=2", "--format", "json"],
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["reason"] for row in rows] == [reason, reason]
        assert all(row["eps_ours"] is None for row in rows)


def test_compare_cells_equal_the_accountant_bound(capsys):
    xis = ["tnb:eta=0,nu=1e-2", "tnb:eta=1,nu=1e-2", "pointmass:k=10"]
    argv = ["compare", "--eps-b", "1", "--eps-b", "2", "--tau", "1"]
    argv += ["--tau", "0.1", *(f for xi in xis for f in ("--xi", xi))]
    code, out, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    rows = json.loads(out)
    cells = [(e, t, xi) for e in (1.0, 2.0) for t in (1.0, 0.1) for xi in xis]
    assert len(rows) == len(cells)
    sigmas = {}
    for row, (eps_b, tau, xi) in zip(rows, cells):
        assert (row["eps_b"], row["tau"]) == (eps_b, tau)
        if (eps_b, tau) not in sigmas:
            sigmas[eps_b, tau] = calibrate_sigma_rdp(eps_b, 1e-5, tau, 1000)
        base = f"dpsgd:sigma={sigmas[eps_b, tau]!r},tau={tau!r},n=1000"
        code, out, _ = _run(
            capsys,
            ["accountant", "--base", base, "--xi", xi, "--format", "json"],
        )
        assert code == 0
        assert row["eps_ours"] == json.loads(out)["eps_h"], (eps_b, tau, xi)


def test_csv_floats_use_six_significant_digits(capsys):
    code, out, _ = _run(
        capsys,
        [
            "compare",
            "--eps-b",
            "1",
            "--xi",
            "tnb:eta=0,nu=1e-2",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    row = out.strip().split("\n")[1]
    assert "21.4976" in row


def test_tightness_pure_report(capsys):
    code, out, _ = _run(capsys, ["tightness", "--which", "pure"])
    assert code == 0
    assert "2.96453" in out
    assert "0.99108" in out


def test_tightness_approx_report(capsys):
    code, out, _ = _run(
        capsys, ["tightness", "--which", "approx", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["eps_tuned"] == pytest.approx(
        2.925311665665696, abs=1e-9
    )
    assert payload["eps_predicted"] == pytest.approx(
        3.114716467679132, rel=1e-9
    )


def test_out_flag_writes_the_stdout_bytes(capsys, tmp_path):
    _, stdout_text, _ = _run(capsys, [*_ACCOUNTANT_EXAMPLE, "--format", "json"])
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, [*_ACCOUNTANT_EXAMPLE, "--format", "json", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == stdout_text


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["tightness", "--which", "pure"],
            "base_p,base_p_prime,tuned_q,tuned_q_prime,eps_tuned,"
            "generic_bound,gap\n"
            "[0.897282 0.00271828 0.1],[0.727172 0.001 0.271828],"
            "[0.00865972 0.000260003 0.99108],"
            "[0.00265823 1.34122e-05 0.997328],2.96453,3,0.0354681\n",
        ),
        (
            ["theorem4", "--instances", "5", "--seed", "7"],
            "instances,passes,worst_margin,verdict\n"
            "5,5,0.0249737,5/5 pass\n",
        ),
    ],
    ids=["tightness-pure", "theorem4"],
)
def test_report_csv_is_byte_exact(capsys, argv, expected):
    code, out, _ = _run(capsys, [*argv, "--format", "csv"])
    assert code == 0
    assert out == expected


def test_audit_csv_emits_per_threshold_table(capsys):
    code, out, _ = _run(capsys, [*_AUDIT_SMALL, "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "threshold,fp,fn,fp_upper,fn_upper,eps_lower"
    assert len(lines) > 100


# sha256 of a whole audit at seed 7, frozen before the sweep read its
# scores from sorted uniforms: the json report (the best row), the csv
# report (every row, at six digits) and every ThresholdSweep field's bytes.
_FROZEN_SWEEPS = [
    (
        DpSgdConfig(60.0, 1.0, 1000),
        2**21,
        "77f7b64d7c8af61be240d3ede86a8afce0d6ef11d919e1e8a96066c2302fdef7",
        "18a8604a2011f6a0931007b439fdf262bbc368bf662fff4bd0909d57e0006115",
        "15916f44e50e4aab0a44b68a3f8c8926e691ddf31c7b6e28b159c71de37a6e73",
    ),
    (
        DpSgdConfig(10.4, 0.5, 100),
        200_000,
        "4a875389563c4397add119539ee4bae546303af083f9261eff94d7dd949ffd6c",
        "c3bb08231f585bcb8513a8b888f4c2a76868f5ce1659a443d7ab8157651dc592",
        "20931619974c887d73fffc7df5432f74710bb17e6f9c1ef01f336a0c898839c5",
    ),
]


@pytest.mark.parametrize("config,trials,json_sha,csv_sha,sweep_sha", _FROZEN_SWEEPS)
def test_audit_whole_sweep_is_frozen_byte_for_byte(
    capsys, config, trials, json_sha, csv_sha, sweep_sha
):
    base = f"dpsgd:sigma={config.sigma},tau={config.tau},n={config.n_iters}"
    argv = ["audit", "--base", base, "--xi", "tnb:eta=1,nu=1e-2", "--trials",
            str(trials), "--seed", "7"]
    for fmt, expected in (("json", json_sha), ("csv", csv_sha)):
        code, out, _ = _run(capsys, [*argv, "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, fmt
    dist = TruncatedNegativeBinomial(1.0, 1e-2)
    sweep = run_audit(GameConfig(config=config, dist=dist, trials=trials, seed=7))
    fields = (getattr(sweep, f.name) for f in dataclasses.fields(sweep))
    digest = hashlib.sha256(b"".join(np.asarray(v).tobytes() for v in fields))
    assert digest.hexdigest() == sweep_sha


@pytest.mark.parametrize(
    "base,delta_h", [("gdp:mu=1000", "5e-324"), ("gdp:mu=1e6", "1e-320")]
)
def test_accountant_refuses_a_subnormal_per_run_delta(capsys, base, delta_h):
    # The Gaussian conversion's error bound divides by a term that
    # underflows to 0 there; these exited 1 with a ZeroDivisionError.
    code, out, err = _run(
        capsys,
        ["accountant", "--base", base, "--xi", "pointmass:k=1", "--delta-h",
         delta_h],
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: delta_h={delta_h} deflates to a per-run delta")
    assert "outside [2^-1022, 1]" in err


@pytest.mark.parametrize("name", ["missing/report.txt", "."])
def test_unwritable_out_exits_2_with_a_message(capsys, tmp_path, name):
    target = tmp_path / name
    code, out, err = _run(capsys, ["tightness", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --out: ")
    assert str(target) in err
    assert "Traceback" not in err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["accountant", "--nope"])
    assert excinfo.value.code == 2


_GEOMETRIC = ["--xi", "tnb:eta=1,nu=1e-2"]


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["accountant", "--base", "gdp:mu=1", *_GEOMETRIC, "--delta-h", "2"],
         "delta_h"),
        (["accountant", "--base", "gdp:mu=1", *_GEOMETRIC, "--delta-h", "nan"],
         "delta_h"),
        (["tightness", "--which", "approx", "--delta-h", "0"], "delta"),
        (["accountant", "--base", "gdp:mu=1", "--xi", "tnb:eta=nan,nu=1e-2"],
         "eta"),
        (["accountant", "--base", "gdp:mu=nan", *_GEOMETRIC], "mu"),
        (["accountant", "--base", "epsdelta:eps=nan,delta=1e-5", *_GEOMETRIC],
         "eps"),
        (["accountant", "--base", "dpsgd:sigma=nan,tau=1,n=1000", *_GEOMETRIC],
         "sigma"),
        (["accountant", "--base", "gdp:mu=inf", *_GEOMETRIC], "mu"),
        (["accountant", "--base", "gdp:mu=1", "--xi", "tnb:eta=inf,nu=1e-2"],
         "eta"),
        (["accountant", "--base", "epsdelta:eps=inf,delta=1e-5", *_GEOMETRIC],
         "eps"),
        (["accountant", "--base", "dpsgd:sigma=inf,tau=1,n=1000", *_GEOMETRIC],
         "sigma"),
        (["theorem4", "--seed", "-1"], "seed"),
        (["theorem4", "--seed", str(2**64)], "seed"),
        (["compare", "--eps-b", "1", *_GEOMETRIC, "--lower", "--trials", "0"],
         "trials must be >= 1, got 0"),
        (["compare", "--eps-b", "1e-4", "--xi", "pointmass:k=2", "--lower",
          "--trials", "0"], "trials must be >= 1, got 0"),
        (["accountant", "--base", "gdp:mu=1", "--xi", "tnb:eta=1e300,nu=0.5"],
         "eta=1e+300, nu=0.5"),
        (["accountant", "--base", "gdp:mu=1", "--xi", "tnb:eta=1,nu=1e-320"],
         "eta=1.0, nu=1e-320"),
        (["accountant", "--base", "gdp:mu=1", "--xi",
          "tnb:eta=-0.99,nu=1e-320"], "eta=-0.99, nu=1e-320"),
        # The mean, 1e300, is finite, but omega(1) = nu^-2 / Z overflows.
        (["accountant", "--base", "gdp:mu=1", "--xi", "tnb:eta=1,nu=1e-300"],
         "eta=1.0, nu=1e-300"),
        # Too many binomial components for the tau < 1 score table.
        (["audit", "--base", "dpsgd:sigma=1,tau=0.5,n=1" + "0" * 30, "--xi",
          "pointmass:k=1", "--trials", "10"], "n_iters=1" + "0" * 30),
        # Above mu = 1e6 the Gaussian conversion's error bound fails; these
        # printed eps_h 0, a traceback, an internal message or NaN.
        (["accountant", "--base", "gdp:mu=1e200", "--xi", "pointmass:k=1"],
         "mu must lie in [0, 1e+06], got 1e+200"),
        (["accountant", "--base", "dpsgd:sigma=1e-200,tau=1,n=1000", "--xi",
          "pointmass:k=1"], "mu must lie in [0, 1e+06], got 3.16"),
        (["accountant", "--base", "gdp:mu=1e10", *_GEOMETRIC],
         "mu must lie in [0, 1e+06], got 10000000000.0"),
        (["accountant", "--base", "gdp:mu=1e100", *_GEOMETRIC],
         "mu must lie in [0, 1e+06], got 1e+100"),
        (["accountant", "--base", "gdp:mu=2e154", *_GEOMETRIC],
         "mu must lie in [0, 1e+06], got 2e+154"),
        # sqrt(n) / sigma overflows: the game's shift and the curve's mu.
        (["audit", "--base", "dpsgd:sigma=1e-310,tau=1,n=1000", "--xi",
          "pointmass:k=3", "--trials", "100", "--format", "json"],
         "sigma=1e-310 is too small"),
        (["accountant", "--base", "dpsgd:sigma=1e-310,tau=1,n=1000",
          *_GEOMETRIC], "sigma=1e-310 is too small"),
        # An integer too large for a float.
        (["accountant", "--base", "dpsgd:sigma=1,tau=1,n=1" + "0" * 400,
          *_GEOMETRIC], "bad value"),
        # The one-sided level 1 - (1 - c) / 2 rounds to 1.0.
        (["audit", "--base", "dpsgd:sigma=60,tau=1,n=1000", *_GEOMETRIC,
          "--trials", "100", "--confidence", "0.9999999999999999"],
         "confidence=0.9999999999999999 is too close to 1"),
        # sigma^-2 overflows before the e^(sigma^-2) check at tau < 1.
        (["accountant", "--base", "dpsgd:sigma=1e-300,tau=0.5,n=10", "--xi",
          "pointmass:k=2"], "sigma=1e-300 is out of range"),
    ],
)
def test_domain_errors_exit_2_with_a_message(capsys, argv, needle):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("nu", ["1e-8", "1e-150"])
def test_audit_runs_every_run_count_the_accountant_takes(capsys, nu):
    # More than 1e-12 of these run counts' mass lies past the 10^7-entry
    # table of TruncatedNegativeBinomial.sample, which the audit does not
    # use: it draws each best score through the inverse pgf.
    spec = ["--base", "dpsgd:sigma=60,tau=1,n=1000", "--xi", f"tnb:eta=1,nu={nu}"]
    code, out, err = _run(
        capsys, ["audit", *spec, "--trials", "10000", "--format", "json"]
    )
    assert (code, err) == (0, "")
    eps_lower = json.loads(out)["eps_lower"]
    code, out, _ = _run(capsys, ["accountant", *spec, "--format", "json"])
    assert code == 0
    assert 0.0 < eps_lower <= json.loads(out)["eps_h"]


@pytest.mark.parametrize("tau", ["1", "0.5"])
def test_audit_of_a_huge_run_count_prints_a_finite_threshold(tau):
    # Above about 1e16 runs, U^(1/k) rounds to 1, where the normal
    # quantile is +inf.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "privtune.cli", "audit", "--base",
         f"dpsgd:sigma=60,tau={tau},n=1000", "--xi",
         "pointmass:k=100000000000000000", "--trials", "10", "--format",
         "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert math.isfinite(json.loads(result.stdout)["best_threshold"])


def _audit_peak_rss(trials: int) -> int:
    """The peak RSS, in bytes, of an audit of that many trials in a fresh process."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "privtune.cli", "audit", "--base",
         "dpsgd:sigma=60,tau=1,n=1000", "--xi", "tnb:eta=1,nu=1e-2",
         "--trials", str(trials), "--format", "json"],
        stdout=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss * 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_audit_peak_rss_does_not_grow_by_the_trial(monkeypatch):
    # The audit keeps no array of the trials: 8 times as many trials add
    # less than 16 MiB of peak RSS, where a buffer of 8 bytes a trial
    # alone would add 56 MiB.
    for threads in ("1", "2"):
        monkeypatch.setenv("PRIVTUNE_THREADS", threads)
        grown = _audit_peak_rss(2**23) - _audit_peak_rss(2**20)
        assert grown < 16 * 2**20, (threads, grown)


def test_calibration_failures_name_the_budget(capsys):
    expected = {
        "1e-4": [
            "calibration failed: eps_b=0.0001 is out of reach: sigma in "
            "[3.16228, 223607] gives eps_b in [0.00143159, 96.0353]",
            "calibration failed: eps_b=0.0001 is out of reach: sigma in "
            "[0.3, 10000] gives eps_b in [0.00839268, 6517.55]",
        ],
    }
    for eps_b, reasons in expected.items():
        code, out, _ = _run(
            capsys,
            ["compare", "--eps-b", eps_b, "--tau", "1", "--tau", "0.1"]
            + ["--xi", "pointmass:k=2", "--format", "json"],
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["reason"] for row in rows] == reasons
        assert all(row["eps_ours"] is None for row in rows)


@pytest.mark.parametrize("flag", ["--eps-b", "--tau"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_compare_refuses_a_non_finite_grid_value(capsys, flag, value):
    # These printed an NA row, or a bound at tau = inf, and exited 0.
    code, out, err = _run(
        capsys, ["compare", f"{flag}={value}", "--xi", "tnb:eta=1,nu=1e-2"]
    )
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be finite, got {float(value)!r}\n"


def test_compare_lower_reports_a_refused_audit_as_a_cell(capsys):
    # At tau = 0.5 the score table of 1e13 iterations is above its cap;
    # the audit's refusal becomes the cell's reason, as a bound's does.
    code, out, _ = _run(
        capsys,
        ["compare", "--eps-b", "1e13", "--n-iters", "10000000000000", "--tau",
         "0.5", "--xi", "pointmass:k=2", "--lower", "--trials", "10",
         "--format", "json"],
    )
    assert code == 0
    (row,) = json.loads(out)
    assert row["eps_lower"] is None
    failed = row["reason"].split("; ")[-1]
    assert failed.startswith("audit failed: n_iters=10000000000000 at tau=0.5")
    assert failed.endswith("above the cap of 16777216 entries")


_SCIPY_FREE_COMMANDS = [
    ["accountant", "--base", "gdp:mu=1", *_GEOMETRIC],
    ["accountant", "--base", "epsdelta:eps=1,delta=1e-9", *_GEOMETRIC],
    ["accountant", "--base", "dpsgd:sigma=60,tau=1,n=1000", *_GEOMETRIC],
    ["accountant", "--base", "dpsgd:sigma=2,tau=0.1,n=500", *_GEOMETRIC],
    ["compare", "--eps-b", "1", "--tau", "1", "--tau", "0.1", *_GEOMETRIC],
    ["tightness", "--which", "pure"],
    ["tightness", "--which", "approx"],
    ["theorem4", "--instances", "50", "--seed", "7"],
    ["audit", "--base", "dpsgd:sigma=60,tau=1,n=1000", *_GEOMETRIC,
     "--trials", "1000"],
    ["audit", "--base", "dpsgd:sigma=10.4,tau=0.5,n=100", *_GEOMETRIC,
     "--trials", "1000"],
    ["compare", "--eps-b", "1", *_GEOMETRIC, "--lower", "--trials", "1000"],
]


def _modules_after(script: str, *args: str) -> str:
    """Standard output of a script run in a fresh interpreter on src."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    return result.stdout


def test_imports_load_only_what_they_use():
    script = (
        "import sys\n"
        "import privtune\n"
        "print(sorted(m for m in sys.modules if m.startswith('privtune.')))\n"
        "import privtune.cli\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    assert _modules_after(script) == "[]\nFalse\n"
    # Each command prints its exit code, whether scipy was loaded by then,
    # and whether scipy.stats was. None loads either, the audits included.
    run = (
        "import contextlib, io, json, sys\n"
        "from privtune import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(code, any(m.split('.')[0] == 'scipy' for m in sys.modules),\n"
        "          'scipy.stats' in sys.modules)\n"
    )
    out = _modules_after(run, json.dumps(_SCIPY_FREE_COMMANDS))
    assert out == "0 False False\n" * len(_SCIPY_FREE_COMMANDS)
