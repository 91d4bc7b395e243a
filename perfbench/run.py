"""privtune benchmark: runs one workload of `privtune` commands and checks them.

Usage, from the root of a checkout that holds `src/privtune`:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: one `privtune` process
at a time, with PRIVTUNE_THREADS pinned to the cores this process may
use. The seed generates the oneshot accountant commands and the order
of each oneshot pass, and the audit seeds; the program receives only the
generated command lines. Every command prints JSON, which `oracles.py`
checks without using the program's code.

With `--trace 0` the workload repeats for `--seconds` and the last line
of standard output is the result with the end-to-end metrics. With
`--trace 1` one pass runs untraced and the same pass runs again under
`tracer.py`, which times calls into each layer's public functions;
the audit and theorem4 commands then run once more on one thread. The
result holds the per-layer metrics. The line before the result records
the environment, sample counts and any failures.

Exit status is 0 when a result was printed, and 2 without a result when
the checkout has no privtune sources, `import privtune` fails, or the
metrics computed differ from those BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

import oracles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACER = BENCH_DIR / "tracer.py"
REFERENCE = BENCH_DIR / "reference.json"
# Declares each metric's name and unit.
SPEC = ROOT / "BENCHMARK.json"
TRACE_MARKER = "PERFBENCH_TRACE "
# A run must exit within 180 s; no command or iteration starts that
# could end after this many seconds.
TIME_LIMIT_S = 160.0
SETUP_REPEATS = 3

WORKLOADS = ("oneshot", "tables", "audit-exact", "audit-subsampled")

# Parameters the oneshot workload draws its accountant commands from.
# Every combination has a recorded upper bound in reference.json.
GDP_BASES = ("gdp:mu=0.5", "gdp:mu=1", "gdp:mu=2")
EPSDELTA_BASES = (
    "epsdelta:eps=0.5,delta=1e-9",
    "epsdelta:eps=1,delta=1e-9",
    "epsdelta:eps=2,delta=1e-10",
)
DPSGD_EXACT_BASES = (
    "dpsgd:sigma=20,tau=1,n=1000",
    "dpsgd:sigma=40,tau=1,n=1000",
    "dpsgd:sigma=60,tau=1,n=1000",
)
DPSGD_SUBSAMPLED_BASES = (
    "dpsgd:sigma=10.4,tau=0.5,n=100",
    "dpsgd:sigma=1,tau=0.01,n=1000",
    "dpsgd:sigma=2,tau=0.1,n=500",
)
TNB_XIS = ("tnb:eta=0,nu=1e-2", "tnb:eta=1,nu=1e-2", "tnb:eta=0.5,nu=1e-3")
POINTMASS_XIS = ("pointmass:k=2", "pointmass:k=4", "pointmass:k=10")
DELTA_HS = ("1e-5", "1e-3")

COMPARE_EPS_B = (1.0, 2.0)
COMPARE_TAU = (1.0, 0.1)
COMPARE_XIS = ("tnb:eta=0,nu=1e-2", "tnb:eta=1,nu=1e-2", "pointmass:k=10")

# The campaigns keep the CLI's default seed. About 2 in 10^5 random
# instances (all at Renyi order 8) make the program report a false
# violation: float error of 3e-12 to 2e-11 on divergences near 8 exceeds
# its absolute slack of 1e-12. A seeded campaign of 5000 instances would
# then fail one run in ten, from a defect outside this benchmark's scope.
THEOREM4_SEED = 7

AUDIT_XI = "tnb:eta=1,nu=1e-2"
AUDIT_EXACT_BASE = "dpsgd:sigma=60,tau=1,n=1000"
AUDIT_SUBSAMPLED_BASE = "dpsgd:sigma=10.4,tau=0.5,n=100"
AUDIT_DELTA = 1e-5


@dataclasses.dataclass(frozen=True)
class Scale:
    """Sizes of one workload pass; `tiny` is for the self-test."""

    oneshot_instances: int = 200
    tables_instances: int = 5000
    compare_tau: tuple[float, ...] = COMPARE_TAU
    exact_trials: int = 10**7
    subsampled_trials: int = 200_000
    # The game must find at least this much of the privacy loss it is
    # built to show; at the seed commit full-size audits conclude 2.1-2.4.
    min_eps_lower: float = 1.0


SCALES = {
    "full": Scale(),
    "tiny": Scale(
        oneshot_instances=20,
        tables_instances=50,
        compare_tau=(1.0,),
        exact_trials=100_000,
        subsampled_trials=2_000,
        min_eps_lower=0.0,
    ),
}


def compare_argv(taus: tuple[float, ...]) -> list[str]:
    argv = ["compare"]
    for eps_b in COMPARE_EPS_B:
        argv += ["--eps-b", repr(eps_b)]
    for tau in taus:
        argv += ["--tau", repr(tau)]
    for xi in COMPARE_XIS:
        argv += ["--xi", xi]
    return argv


def compare_cells(taus: tuple[float, ...]) -> list[tuple[float, float, str]]:
    """(eps_b, tau, xi) of each compare row, in the program's row order."""
    return [(e, t, x) for e in COMPARE_EPS_B for t in taus for x in COMPARE_XIS]


class SpawnError(RuntimeError):
    """A process could not be started."""


@dataclasses.dataclass
class Command:
    """One privtune invocation and the check of its JSON output."""

    argv: list[str]
    check: Callable[[object], list[str]]
    # Randomized units the command runs: game trials or theorem4 instances.
    trials: int = 0


@dataclasses.dataclass
class Result:
    command: Command
    wall_s: float
    rss_mb: float
    problems: list[str]
    output: object = None
    trace: dict | None = None


class Bench:
    """Runs commands for one benchmark invocation and keeps their results."""

    def __init__(self, seed: int, scale: Scale):
        self.rng = random.Random(seed)
        self.scale = scale
        self.refs = json.loads(REFERENCE.read_text())
        self.threads = len(os.sched_getaffinity(0))
        # Children import cached bytecode, as from an installed package.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PRIVTUNE_THREADS=str(self.threads))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.start = time.perf_counter()
        self.results: list[Result] = []
        self.next_id = 0

    def remaining(self) -> float:
        return TIME_LIMIT_S - (time.perf_counter() - self.start)

    def spawn(self, argv: list[str], env: dict) -> tuple[float, float, int, str, str]:
        """Runs argv to completion: (wall s, max RSS MB, exit code, out, err)."""
        started = time.perf_counter()
        try:
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
            )
        except OSError as exc:
            raise SpawnError(f"cannot start {argv[:3]}: {exc}") from None
        streams: dict[str, bytes] = {}

        def drain(name: str, stream) -> None:
            streams[name] = stream.read()

        readers = [
            threading.Thread(target=drain, args=("out", proc.stdout)),
            threading.Thread(target=drain, args=("err", proc.stderr)),
        ]
        for reader in readers:
            reader.start()
        killer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        for reader in readers:
            reader.join()
        proc.stdout.close()
        proc.stderr.close()
        return (
            wall,
            usage.ru_maxrss / 1024.0,
            proc.returncode,
            streams["out"].decode(errors="replace"),
            streams["err"].decode(errors="replace"),
        )

    def run(self, cmd: Command, traced: bool = False, threads: int | None = None) -> Result:
        """Runs one command, checks its output and records the result."""
        env = self.env if threads is None else dict(self.env, PRIVTUNE_THREADS=str(threads))
        if traced:
            argv = [sys.executable, str(TRACER), str(self.next_id), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "privtune.cli", *cmd.argv]
        self.next_id += 1
        wall, rss, code, out, err = self.spawn(argv, env)
        problems, output, trace = [], None, None
        if code != 0:
            problems.append(f"exit code {code}: {err.strip()[-300:]}")
        else:
            try:
                output = json.loads(out)
                problems = cmd.check(output)
            except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
                problems = [f"unreadable output ({exc!r}): {out[:200]!r}"]
        if traced:
            lines = [l for l in err.splitlines() if l.startswith(TRACE_MARKER)]
            if lines:
                trace = json.loads(lines[-1][len(TRACE_MARKER):])
            else:
                problems.append("no trace written")
        problems = [f"{' '.join(cmd.argv)}: {p}" for p in problems]
        result = Result(cmd, wall, rss, problems, output, trace)
        self.results.append(result)
        return result

    def setup_seconds(self) -> list[float]:
        """Wall of `import privtune` in a fresh interpreter, several times."""
        self.spawn([sys.executable, "-m", "compileall", "-q", str(SRC / "privtune")], self.env)
        walls = []
        for _ in range(SETUP_REPEATS):
            wall, _, code, _, err = self.spawn([sys.executable, "-c", "import privtune"], self.env)
            if code != 0:
                raise SpawnError(f"import privtune failed: {err.strip()[-300:]}")
            walls.append(wall)
        return walls

    def accountant(self, base: str, xi: str, delta_h: str) -> Command:
        ref = self.refs["accountant"].get(oracles.accountant_key(base, xi, delta_h))
        return Command(
            ["accountant", "--base", base, "--xi", xi, "--delta-h", delta_h, "--format", "json"],
            lambda out: oracles.check_accountant(out, base, xi, float(delta_h), ref),
        )

    def theorem4(self, instances: int) -> Command:
        return Command(
            ["theorem4", "--instances", str(instances), "--seed", str(THEOREM4_SEED),
             "--format", "json"],
            lambda out: oracles.check_theorem4(out, instances),
            trials=instances,
        )

    def audit(self, base: str, trials: int, eps_h: float) -> Command:
        seed = self.rng.randrange(2**32)
        return Command(
            ["audit", "--base", base, "--xi", AUDIT_XI, "--trials", str(trials),
             "--seed", str(seed), "--format", "json"],
            lambda out: oracles.check_audit(
                out, trials, AUDIT_DELTA, eps_h, self.scale.min_eps_lower
            ),
            trials=trials,
        )

    def compare(self) -> Command:
        taus = self.scale.compare_tau
        cells = compare_cells(taus)
        return Command(
            compare_argv(taus) + ["--format", "json"],
            lambda rows: oracles.check_compare(rows, cells, self.refs["compare"]),
        )

    def workload(self, name: str) -> Callable[[], list[Command]]:
        """Runs the workload's set-up and returns its pass generator."""
        if name == "oneshot":
            return self.oneshot_pass
        if name == "tables":
            return lambda: [self.compare(), self.theorem4(self.scale.tables_instances)]
        base, trials = (
            (AUDIT_EXACT_BASE, self.scale.exact_trials)
            if name == "audit-exact"
            else (AUDIT_SUBSAMPLED_BASE, self.scale.subsampled_trials)
        )
        # The bracket's upper end is computed once, by the program itself,
        # and checked like any accountant output.
        bound = self.run(self.accountant(base, AUDIT_XI, "1e-5"))
        eps_h = bound.output["eps_h"] if not bound.problems else math.inf
        return lambda: [self.audit(base, trials, eps_h)]

    def oneshot_pass(self) -> list[Command]:
        """Four accountant bases, two run counts of each kind, two
        tightness variants and one short theorem4 campaign, shuffled."""
        rng = self.rng
        xis = [rng.choice(TNB_XIS) for _ in range(2)] + [
            rng.choice(POINTMASS_XIS) for _ in range(2)
        ]
        rng.shuffle(xis)
        bases = [
            rng.choice(group)
            for group in (GDP_BASES, EPSDELTA_BASES, DPSGD_EXACT_BASES, DPSGD_SUBSAMPLED_BASES)
        ]
        cmds = [self.accountant(b, x, rng.choice(DELTA_HS)) for b, x in zip(bases, xis)]
        cmds += [
            Command(["tightness", "--which", "pure", "--format", "json"], oracles.check_tightness_pure),
            Command(["tightness", "--which", "approx", "--format", "json"], oracles.check_tightness_approx),
            self.theorem4(self.scale.oneshot_instances),
        ]
        rng.shuffle(cmds)
        return cmds

    def run_pass(self, cmds: list[Command], traced: bool = False) -> float:
        """Runs one pass of a workload; returns its wall time."""
        started = time.perf_counter()
        for cmd in cmds:
            self.run(cmd, traced)
        return time.perf_counter() - started


def end_to_end(bench: Bench, next_pass, seconds: float) -> tuple[dict, dict]:
    """Repeats the workload for `seconds`; returns metrics and counts."""
    setup = bench.setup_seconds()
    first = len(bench.results)
    walls: list[float] = []
    peaks: list[float] = []
    measured = time.perf_counter()
    # Start a pass only if a typical pass still ends within the run.
    while not walls or (
        time.perf_counter() - measured + statistics.median(walls) <= seconds
        and bench.remaining() > 1.5 * max(walls)
    ):
        start = len(bench.results)
        walls.append(bench.run_pass(next_pass()))
        peaks.append(max(r.rss_mb for r in bench.results[start:]))
    timed = bench.results[first:]
    rates = [r.command.trials / r.wall_s for r in timed if r.command.trials]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cmd_p50_s": statistics.median(r.wall_s for r in timed),
        "trials_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(peaks),
        "pass_frac": sum(1 for r in bench.results if not r.problems) / len(bench.results),
    }
    samples = {
        "setup_runs": len(setup),
        "passes": len(walls),
        "cmd_p50_samples": len(timed),
        "trials_per_s_samples": len(rates),
    }
    return metrics, samples


def span_seconds(traces: list[dict]) -> dict[str, float]:
    """Total seconds inside each span name, summed over every command."""
    totals: dict[str, float] = defaultdict(float)
    for trace in traces:
        for name, start, end, _ in trace["spans"]:
            totals[name] += (end - start) / 1e9
    return totals


def cli_self_seconds(trace: dict) -> float:
    """cli.main's duration minus the part its child spans cover."""
    spans = trace["spans"]
    main = next(i for i, s in enumerate(spans) if s[0] == "cli.main")
    covered, reach = 0, spans[main][1]
    children = sorted((s for s in spans if s[3] == main), key=lambda s: s[1])
    for _, start, end, _ in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return (spans[main][2] - spans[main][1] - covered) / 1e9


def per_layer(traces: list[dict], single: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass and its one-thread reruns."""
    secs = span_seconds(traces)
    one_thread = span_seconds(single)
    counts: Counter = Counter()
    calibrations = []
    for trace in traces:
        counts.update(trace["counts"])
        calibrations += [tuple(args) for args in trace["calibrations"]]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    game, campaign = secs["audit.simulate_game"], secs["discrete.theorem4_campaign"]
    return {
        "cli.import_s": sum(t["import_s"] for t in traces),
        "cli.import_modules": statistics.median_low(t["import_modules"] for t in traces),
        "cli.self_s": sum(cli_self_seconds(t) for t in traces),
        "tradeoff.fdp_to_eps_delta_s": secs["tradeoff.fdp_to_eps_delta"],
        "tradeoff.fdp_to_eps_delta_calls": counts["tradeoff.fdp_to_eps_delta"],
        "tradeoff.curve_points": counts["tradeoff.curve_points"],
        "runcount.omega_s": secs["runcount.omega"],
        "runcount.omega_points": counts["runcount.omega_points"],
        "runcount.sample_s": secs["runcount.sample"],
        "runcount.sample_draws": counts["runcount.sample_draws"],
        "accountant.select_epsilon_fdp_s": secs["accountant.select_epsilon_fdp"],
        "accountant.log_ratio_max_s": secs["accountant.log_ratio_max"],
        "accountant.select_epsilon_rdp_s": secs["accountant.select_epsilon_rdp"],
        "accountant.calibrate_sigma_rdp_s": secs["accountant.calibrate_sigma_rdp"],
        "accountant.calibrate_sigma_rdp_calls": len(calibrations),
        "accountant.rdp_gaussian_curve_calls": counts["accountant.rdp_gaussian_curve"],
        "accountant.calibrate_useful_ratio": ratio(len(set(calibrations)), len(calibrations)),
        "discrete.theorem4_campaign_s": campaign,
        "discrete.instances_per_s": ratio(counts["discrete.instances"], campaign),
        "discrete.thread_speedup": ratio(one_thread["discrete.theorem4_campaign"], campaign),
        "discrete.approx_dp_delta_calls": counts["discrete.approx_dp_delta"],
        "discrete.selection_distribution_calls": counts["discrete.selection_distribution"],
        "audit.simulate_game_s": game,
        "audit.trials_per_s": ratio(counts["audit.trials"], game),
        "audit.thread_speedup": ratio(one_thread["audit.simulate_game"], game),
        "audit.sweep_thresholds_s": secs["audit.sweep_thresholds"],
        "audit.bytes_computed": counts["audit.bytes_computed"],
        "trace.overhead_s": overhead_s,
    }


def traced(bench: Bench, next_pass) -> tuple[dict, dict]:
    """One untraced pass, the same pass traced, then one-thread reruns."""
    cmds = next_pass()
    untraced_wall = bench.run_pass(cmds)
    first = len(bench.results)
    traced_wall = bench.run_pass(cmds, traced=True)
    traces = [r.trace for r in bench.results[first:] if r.trace]
    single = []
    for cmd in cmds:
        if cmd.trials:
            result = bench.run(cmd, traced=True, threads=1)
            if result.trace:
                single.append(result.trace)
    metrics = per_layer(traces, single, traced_wall - untraced_wall)
    samples = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "traced_commands": len(traces),
        "one_thread_commands": len(single),
    }
    return metrics, samples


def environment(bench: Bench) -> dict:
    return {
        "nproc": bench.threads,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "PRIVTUNE_THREADS": bench.env["PRIVTUNE_THREADS"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "privtune" / "cli.py").is_file():
        print(f"perfbench: no privtune sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    bench = Bench(args.seed, SCALES[args.scale])
    try:
        next_pass = bench.workload(args.workload)
        if args.trace:
            metrics, samples = traced(bench, next_pass)
        else:
            metrics, samples = end_to_end(bench, next_pass, args.seconds)
    except SpawnError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(metrics)} != {SPEC.name}", file=sys.stderr)
        return 2
    problems = [p for r in bench.results for p in r.problems]
    failed = sum(1 for r in bench.results if r.problems)
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "env": environment(bench),
        "samples": samples,
        "fail_frac": failed / len(bench.results),
        "failures": problems[:20],
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": len(bench.results),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
