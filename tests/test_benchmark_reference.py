"""The benchmark's recorded upper bounds and its audits, checked in this process.

perfbench/reference.json holds the bounds that the program printed when
the benchmark was defined: one for every accountant command the oneshot
workload can draw and one for every cell of the tables workload's
compare grid. Each command runs through `privtune.cli.main` and its JSON
is checked by perfbench/oracles.py, which recomputes what it can with
the standard library and fails a bound that is infinite or falls below
its recorded value. The two audit workloads' commands, at fewer trials,
are checked the same way, against the accountant's bound for their base.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import pathlib
import sys

import pytest

from privtune import cli

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import oracles  # noqa: E402
import run as bench  # noqa: E402

_REFS = json.loads(bench.REFERENCE.read_text())


def _cli_output(argv: list[str], fmt: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv + ["--format", fmt])
    assert code == 0, argv
    return buffer.getvalue()


def _cli_json(argv: list[str]):
    return json.loads(_cli_output(argv, "json"))


def test_every_recorded_accountant_bound_holds():
    bases = (
        bench.GDP_BASES
        + bench.EPSDELTA_BASES
        + bench.DPSGD_EXACT_BASES
        + bench.DPSGD_SUBSAMPLED_BASES
    )
    inputs = list(
        itertools.product(
            bases, bench.TNB_XIS + bench.POINTMASS_XIS, bench.DELTA_HS
        )
    )
    assert len(inputs) == len(_REFS["accountant"]) == 144
    problems = []
    for base, xi, delta_h in inputs:
        key = oracles.accountant_key(base, xi, delta_h)
        out = _cli_json(
            ["accountant", "--base", base, "--xi", xi, "--delta-h", delta_h]
        )
        problems += [
            f"{key}: {problem}"
            for problem in oracles.check_accountant(
                out, base, xi, float(delta_h), _REFS["accountant"].get(key)
            )
        ]
    assert problems == []


def test_every_recorded_compare_bound_holds():
    cells = bench.compare_cells(bench.COMPARE_TAU)
    assert len(cells) == len(_REFS["compare"]) == 12
    rows = _cli_json(bench.compare_argv(bench.COMPARE_TAU))
    assert oracles.check_compare(rows, cells, _REFS["compare"]) == []


@pytest.mark.parametrize(
    "base,trials",
    [(bench.AUDIT_EXACT_BASE, 200_000), (bench.AUDIT_SUBSAMPLED_BASE, 20_000)],
)
def test_audit_reports_its_best_sweep_row_below_the_bound(base, trials):
    eps_h = _cli_json(
        ["accountant", "--base", base, "--xi", bench.AUDIT_XI, "--delta-h", "1e-5"]
    )["eps_h"]
    argv = ["audit", "--base", base, "--xi", bench.AUDIT_XI]
    argv += ["--trials", str(trials), "--seed", "7"]
    report = _cli_json(argv)
    assert oracles.check_audit(report, trials, bench.AUDIT_DELTA, eps_h) == []
    # The printed row is the sweep's largest eps_lower, the first on a tie.
    header, *lines = _cli_output(argv, "csv").splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    eps = [float(row["eps_lower"]) for row in rows]
    best = rows[eps.index(max(eps))]
    assert best["threshold"] == format(report["best_threshold"], ".6g")
    assert (int(best["fp"]), int(best["fn"])) == (report["fp"], report["fn"])
