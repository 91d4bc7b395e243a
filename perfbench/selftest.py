"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks two things and exits non-zero if either fails:

1. Every workload, untraced and traced, ends with a result line that
   has exactly the keys `correct`, `attempted`, `failed` and `metrics`,
   is correct, and emits exactly the metrics BENCHMARK.json declares,
   each with its declared unit.
2. Every oracle accepts a real output of the program and rejects the
   same output with one field perturbed.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import run

SEED = 1


def check_result_lines() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                 "--scale", "tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{label}: not correct: {proc.stderr[-300:]}")
            emitted = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if emitted != declared[trace]:
                problems.append(f"{label}: metrics {emitted} != declared {declared[trace]}")
            print(f"selftest: {label}: {len(emitted)} metrics", flush=True)
    return problems


def _set(path, value):
    """A perturbation that replaces output[path...] with value(old)."""

    def apply(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])

    return apply


def _shift_eps_base(factor):
    def apply(out):
        out["eps_base"] *= factor
        out["eps_h"] = out["eps_base"] + out["log_ratio"]

    return apply


def _shift_log_ratio(delta):
    def apply(out):
        out["log_ratio"] += delta
        out["eps_h"] = out["eps_base"] + out["log_ratio"]

    return apply


def _unbalance(out):
    moved = out["tn"] // 2
    out["tn"] -= moved
    out["tp"] += moved


def check_oracles() -> list[str]:
    bench = run.Bench(SEED, run.SCALES["tiny"])
    eps_h = bench.refs["accountant"][
        run.oracles.accountant_key(run.AUDIT_EXACT_BASE, run.AUDIT_XI, "1e-5")
    ]
    cases = [
        (bench.accountant("gdp:mu=1", "tnb:eta=1,nu=1e-2", "1e-3"), [
            _shift_eps_base(1 + 1e-6), _shift_eps_base(1 - 1e-6),
            _shift_log_ratio(-1e-3), _set(["eps_h"], lambda v: v * (1 - 1e-6)),
        ]),
        (bench.accountant("epsdelta:eps=1,delta=1e-9", "tnb:eta=0,nu=1e-2", "1e-5"), [
            _shift_eps_base(1 + 1e-6), _shift_log_ratio(-1e-3),
            _shift_log_ratio(100.0),
        ]),
        (bench.accountant("dpsgd:sigma=2,tau=0.1,n=500", "pointmass:k=2", "1e-5"), [
            _shift_eps_base(1 - 1e-6), _set(["argmax_a"], lambda v: 2.0),
        ]),
        (bench.compare(), [
            _set([0, "eps_ours"], lambda v: v * (1 - 1e-6)),
            _set([1, "eps_prior"], lambda v: v * (1 - 1e-6)),
            _set([2, "e_xi"], lambda v: v * 1.01),
        ]),
        (run.Command(["tightness", "--which", "pure", "--format", "json"],
                     run.oracles.check_tightness_pure), [
            _set(["tuned_q", 1], lambda v: v * (1 + 1e-6)),
            _set(["eps_tuned"], lambda v: v + 1e-6),
        ]),
        (run.Command(["tightness", "--which", "approx", "--format", "json"],
                     run.oracles.check_tightness_approx), [
            _set(["eps_tuned"], lambda v: v + 1e-6),
            _set(["eps_predicted"], lambda v: v - 1e-6),
        ]),
        (bench.theorem4(20), [_set(["passes"], lambda v: v - 1)]),
        (bench.audit(run.AUDIT_EXACT_BASE, 100_000, eps_h), [
            _set(["tp"], lambda v: v + 1),
            _unbalance,
            _set(["eps_lower"], lambda v: v * 1.001),
            _set(["fp_upper"], lambda v: 0.0),
        ]),
    ]
    problems = []
    for cmd, perturbations in cases:
        label = " ".join(cmd.argv[:3])
        result = bench.run(cmd)
        if result.problems:
            problems.append(f"{label}: real output rejected: {result.problems}")
            continue
        rejected = 0
        for i, perturb in enumerate(perturbations):
            out = copy.deepcopy(result.output)
            perturb(out)
            if cmd.check(out):
                rejected += 1
            else:
                problems.append(f"{label}: perturbation {i} accepted")
        print(f"selftest: {label}: {rejected} of {len(perturbations)} perturbations rejected", flush=True)
    return problems


def main() -> int:
    problems = check_oracles() + check_result_lines()
    for problem in problems:
        print(f"selftest: FAILED {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
