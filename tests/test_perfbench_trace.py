"""The benchmark's tracer on small audits: the audit layers' spans and counts.

perfbench/tracer.py runs one privtune command with each layer's public
functions timed and writes the trace as one `PERFBENCH_TRACE {json}` line
on standard error. The benchmark reads its per-layer audit metrics from
the spans of `audit.simulate_game` and `audit.sweep_thresholds` and from
the `audit.bytes_computed` count, the bytes of the game's returned arrays.
The audit now plays its game twice and keeps no array of it, so it calls
neither, and those metrics read 0 (ROADMAP item 18): what the tracer shows
of an audit is the `audit.run_audit` span, with the Clopper-Pearson limits
and the bound computed inside it.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_MARKER = "PERFBENCH_TRACE "
_TRIALS = 20_000


@pytest.mark.parametrize("tau", ["1", "0.5"])
def test_tracer_shows_the_audit_layers(tau):
    result = subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / "tracer.py"), "0", "audit",
         "--base", f"dpsgd:sigma=10.4,tau={tau},n=100", "--xi",
         "tnb:eta=1,nu=1e-2", "--trials", str(_TRIALS), "--seed", "5",
         "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout)
    assert sum(counts[k] for k in ("tp", "fp", "tn", "fn")) == _TRIALS
    (line,) = [
        line for line in result.stderr.splitlines() if line.startswith(_MARKER)
    ]
    trace = json.loads(line[len(_MARKER) :])
    spans = trace["spans"]
    (audit,) = [i for i, span in enumerate(spans) if span[0] == "audit.run_audit"]
    assert spans[audit][2] > spans[audit][1]
    for name in ("audit.clopper_pearson_upper", "audit.eps_lower_bound"):
        (inner,) = [span for span in spans if span[0] == name]
        assert inner[3] == audit, name
    # The game's arrays are never made: no span reads them.
    names = {span[0] for span in spans}
    assert not names & {"audit.simulate_game", "audit.sweep_thresholds"}
    assert "audit.bytes_computed" not in trace["counts"]
