"""Records the upper bounds that the benchmark's checks may not fall below.

Usage, from the root of a checkout, at the commit whose values are the
baseline:

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs `privtune.cli.main` in this process for every accountant command the
oneshot workload can draw and for every cell of the tables workload's
compare grid, and writes the printed bounds to perfbench/reference.json.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json

import privtune.cli

import oracles
import run


def cli_json(argv: list[str]):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = privtune.cli.main(argv + ["--format", "json"])
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return json.loads(buffer.getvalue())


def main() -> None:
    bases = (
        run.GDP_BASES
        + run.EPSDELTA_BASES
        + run.DPSGD_EXACT_BASES
        + run.DPSGD_SUBSAMPLED_BASES
    )
    accountant = {}
    for base, xi, delta_h in itertools.product(
        bases, run.TNB_XIS + run.POINTMASS_XIS, run.DELTA_HS
    ):
        out = cli_json(["accountant", "--base", base, "--xi", xi, "--delta-h", delta_h])
        accountant[oracles.accountant_key(base, xi, delta_h)] = out["eps_h"]
    compare = {}
    for (eps_b, tau, xi), row in zip(
        run.compare_cells(run.COMPARE_TAU), cli_json(run.compare_argv(run.COMPARE_TAU))
    ):
        compare[oracles.compare_key(eps_b, tau, xi)] = {
            "eps_ours": row["eps_ours"],
            "eps_prior": row["eps_prior"],
        }
    run.REFERENCE.write_text(
        json.dumps({"accountant": accountant, "compare": compare}, indent=1, sort_keys=True)
        + "\n"
    )


if __name__ == "__main__":
    main()
