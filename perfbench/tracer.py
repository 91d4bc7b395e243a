"""Runs one privtune command with each layer's public functions timed.

Usage, with the checkout's `src` on PYTHONPATH:

    python3 perfbench/tracer.py COMMAND_ID PRIVTUNE_ARGS...

Imports `privtune.cli`, wraps every public function of the layer modules
(and the run-count `omega` and `sample` methods) in a timing span, then
calls `privtune.cli.main(PRIVTUNE_ARGS)`. A wrapper replaces every name
an importer bound, so `accountant.fdp_to_eps_delta` is counted as well
as `tradeoff.fdp_to_eps_delta`. The command's output goes to standard
output as usual; the trace is written as one line
`PERFBENCH_TRACE {json}` on standard error after the command ends, and
the exit code is the command's.

A span is [name, start ns, end ns, parent index]; the parent is the
innermost open span of the same thread, or -1. Functions called inside
the inner loops of others are counted without spans, to keep tracing
cheap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

_T0 = time.perf_counter_ns()
_MODULES_BEFORE = len(sys.modules)

import privtune.cli  # noqa: E402  (timed: this is the import wall)

_IMPORT_NS = time.perf_counter_ns() - _T0
_IMPORT_MODULES = len(sys.modules) - _MODULES_BEFORE

import numpy as np  # noqa: E402  (already imported by privtune)

from privtune import runcount, tradeoff  # noqa: E402

LAYERS = ("tradeoff", "runcount", "accountant", "discrete", "audit")
# Called from inner loops; counted only.
COUNT_ONLY = {
    "accountant.rdp_gaussian_curve",
    "accountant.rdp_to_eps",
    "tradeoff.gdp_delta_of_eps",
}


class Recorder:
    """Keeps spans and counts in memory until the command ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.calibrations: list[list[float]] = []
        self.lock = threading.Lock()
        self.local = threading.local()

    def count(self, name: str, n: int = 1) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn, args, kwargs):
        stack = self.local.__dict__.setdefault("stack", [])
        with self.lock:
            index = len(self.spans)
            record = [name, time.perf_counter_ns() - _T0, 0, stack[-1] if stack else -1]
            self.spans.append(record)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns() - _T0
            stack.pop()


REC = Recorder()


def _probe(name: str, fn, args, kwargs, result) -> None:
    """Counts the work a call did, where its arguments or result show it."""
    if name == "accountant.calibrate_sigma_rdp":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        with REC.lock:
            REC.calibrations.append(list(bound.arguments.values()))
    elif name == "audit.simulate_game":
        REC.count("audit.trials", args[0].trials)
        REC.count("audit.bytes_computed", sum(int(a.nbytes) for a in result))
    elif name == "discrete.theorem4_campaign":
        REC.count("discrete.instances", int(args[0]))


def _wrap(name: str, fn):
    if name in COUNT_ONLY:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            REC.count(name)
            return fn(*args, **kwargs)

        return counted

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        REC.count(name)
        result = REC.span(name, fn, args, kwargs)
        _probe(name, fn, args, kwargs, result)
        return result

    return spanned


def install() -> None:
    """Replaces each public layer function under every name bound to it."""
    modules = [m for n, m in sys.modules.items() if n == "privtune" or n.startswith("privtune.")]
    for layer in LAYERS:
        module = sys.modules[f"privtune.{layer}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapper = _wrap(f"{layer}.{attr}", fn)
            for importer in modules:
                for bound, value in list(vars(importer).items()):
                    if value is fn:
                        setattr(importer, bound, wrapper)
    for cls in (runcount.PointMass, runcount.TruncatedNegativeBinomial):
        omega, sample = cls.omega, cls.sample

        @functools.wraps(omega)
        def omega_spanned(self, x, _omega=omega):
            REC.count("runcount.omega_points", int(np.size(x)))
            return REC.span("runcount.omega", _omega, (self, x), {})

        @functools.wraps(sample)
        def sample_spanned(self, rng, size=None, _sample=sample):
            REC.count("runcount.sample_draws", 1 if size is None else int(size))
            return REC.span("runcount.sample", _sample, (self, rng, size), {})

        cls.omega, cls.sample = omega_spanned, sample_spanned
    call = tradeoff.TradeoffCurve.__call__

    @functools.wraps(call)
    def curve(self, x):
        REC.count("tradeoff.curve_points", int(np.size(x)))
        return call(self, x)

    tradeoff.TradeoffCurve.__call__ = curve


def main() -> int:
    command_id, argv = sys.argv[1], sys.argv[2:]
    install()
    code = REC.span("cli.main", privtune.cli.main, (argv,), {})
    sys.stdout.flush()
    trace = {
        "command_id": int(command_id),
        "import_s": _IMPORT_NS / 1e9,
        "import_modules": _IMPORT_MODULES,
        "spans": REC.spans,
        "counts": REC.counts,
        "calibrations": REC.calibrations,
    }
    sys.stderr.write("PERFBENCH_TRACE " + json.dumps(trace) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
