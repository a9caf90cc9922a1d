"""Set-up, timed rounds, traced rounds and metric assembly for one run.

Every timed call is scaled by the machine speed probed just before and just
after it, and between the stages of a library decompose. On a host shared
with other tenants the speed drifts by +-25 % within tens of seconds and
slows pure-Python and LAPACK code alike; the probe runs a fixed Python loop
and a fixed batched eigh, and the speed is the geometric mean of their
reference to measured times. A reported time is therefore in seconds at the
reference speed (about this host's fast clock). The medians of the raw
times and of the speed go to stderr.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from checks import Tally
from layers import Tracer, per_layer_metrics

MODULES = ("linalg", "dynamics", "sections", "holonomy", "lambda_system",
           "instances", "config", "cli")
SETUP_REPEATS = 5

PROBE_LOOP = 40_000
_PROBE_MATS = np.random.default_rng(0).standard_normal((8, 32, 32, 2)).view(complex)[..., 0]
_PROBE_MATS = _PROBE_MATS + _PROBE_MATS.conj().swapaxes(1, 2)
PROBE_REF = (1.5e-3, 1.1e-3)  # loop and eigh seconds at the reference speed


def machine_speed() -> float:
    """Relative machine speed: 1 at the reference, below 1 when slower.
    Each probe kernel runs three times and keeps its fastest time, so that
    one interruption does not count as a slow machine."""
    loop = eig = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i
        t1 = time.perf_counter()
        np.linalg.eigh(_PROBE_MATS)
        t2 = time.perf_counter()
        loop, eig = min(loop, t1 - t0), min(eig, t2 - t1)
    return math.sqrt(PROBE_REF[0] / loop * PROBE_REF[1] / eig)


class ScaledClock:
    """Times a sequence of calls, probing the machine speed between them;
    each call's wall time is scaled by the mean of the probes around it."""

    def __init__(self):
        self.speed = machine_speed()
        self.raw = self.scaled = 0.0

    def __call__(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        after = machine_speed()
        self.raw += seconds
        self.scaled += seconds * (self.speed + after) / 2
        self.speed = after
        return result


def scaled_call(fn, *args, staged: bool = False):
    """Run fn(*args); returns (result, scaled seconds, mean speed). A staged
    fn takes the clock as its ``step`` keyword and times its own stages."""
    clock = ScaledClock()
    result = fn(*args, step=clock) if staged else clock(fn, *args)
    return result, clock.scaled, clock.scaled / clock.raw if clock.raw > 0 else 1.0


def import_package() -> SimpleNamespace:
    """Import holosplit afresh (dropping any earlier import), so that each
    set-up repetition pays the import again."""
    for name in [n for n in sys.modules if n == "holosplit" or n.startswith("holosplit.")]:
        del sys.modules[name]
    importlib.import_module("holosplit")
    return SimpleNamespace(**{m: importlib.import_module(f"holosplit.{m}") for m in MODULES})


@dataclass
class Recorder:
    """Collects the timings, accuracy figures and check results of a run.

    While ``memory`` is on, a call records its allocation high-water mark
    through tracemalloc instead of its time; that is done only for the one
    call outside the timed rounds.
    """

    tally: Tally = field(default_factory=Tally)
    speeds: list[float] = field(default_factory=list)
    decompose: list[float] = field(default_factory=list)
    export: list[float] = field(default_factory=list)
    to_accuracy: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)
    product: list[float] = field(default_factory=list)
    memory: bool = False
    peak_bytes: int = 0

    def op(self, name: str, fn, *args, staged: bool = False):
        """Timed call of the program: returns its result and scaled seconds
        (NaN while ``memory`` is on, since tracemalloc slows the probe and
        the call alike). A call that raises is a failed operation."""
        try:
            if not self.memory:
                result, seconds, speed = scaled_call(fn, *args, staged=staged)
                self.speeds.append(speed)
                return result, seconds
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1] - base)
            return result, math.nan
        except Exception as exc:  # the run must go on and count the failure
            self.tally.check(f"{name}: raised", False, f"{type(exc).__name__}: {exc}")
            return None, None


def _rounds(workload, mods, inputs, refs, rec, work, seconds: float, tracer=None):
    """Whole rounds within `seconds` (at least one): a round starts only if
    one more round as long as the last still ends in time. Returns each
    round's scaled time and, when traced, the span range of each round."""
    times, bounds = [], []
    start = time.perf_counter()
    elapsed = took = 0.0
    while not times or elapsed + took <= seconds:
        t0 = time.perf_counter()
        lo = tracer.mark() if tracer else 0
        _, scaled, _ = scaled_call(workload.round, mods, inputs, refs, rec, work)
        times.append(scaled)
        bounds.append((lo, tracer.mark() if tracer else 0))
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
    return times, bounds


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def run(workload, seed: int, seconds: float, trace: bool, work: Path, trace_path: Path) -> dict:
    def setup():
        mods = import_package()
        return mods, workload.build(mods, seed, work)

    machine_speed()  # the first probe of a process also loads LAPACK code
    setup_times = []
    for _ in range(SETUP_REPEATS):
        (mods, inputs), scaled, _ = scaled_call(setup)
        setup_times.append(scaled)
    refs = workload.reference(mods, inputs)

    # the heaviest single call, once under tracemalloc; it also warms up
    # the code paths the timed rounds take
    rec = Recorder(memory=True)
    tracemalloc.start()
    try:
        workload.peak_call(mods, inputs, rec, work)
    finally:
        tracemalloc.stop()
        rec.memory = False

    if not trace:
        _rounds(workload, mods, inputs, refs, rec, work, seconds)
        metrics = {
            "setup_s": (_median(setup_times), "s"),
            "decompose_s": (_median(rec.decompose), "s"),
            "export_s": (_median(rec.export), "s"),
            "time_to_accuracy_s": (_median(rec.to_accuracy), "s"),
            "accuracy_dev": (max(rec.accuracy, default=float("nan")), "1"),
            "product_residual": (max(rec.product, default=float("nan")), "1"),
            "peak_mb": (rec.peak_bytes / 1e6, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        plain, _ = _rounds(workload, mods, inputs, refs, rec, work, seconds / 2)
        tracer = Tracer()
        with tracer:
            workload.build(mods, seed, work)
            setup_table = tracer.layer_table(0, tracer.mark())
            traced, bounds = _rounds(workload, mods, inputs, refs, rec, work, seconds / 2, tracer)
        tables = [tracer.layer_table(lo, hi) for lo, hi in bounds]
        metrics = per_layer_metrics(tables, setup_table)
        overhead = _median(traced) - _median(plain)
        trace_path.write_text(json.dumps({
            "workload": workload.name,
            "seed": seed,
            "rounds": {"untraced": len(plain), "traced": len(traced)},
            "round_s": {"untraced_median": _median(plain), "traced_median": _median(traced)},
            "overhead_s": overhead,
            "overhead_share": overhead / _median(plain),
            "absent": tracer.absent,
            "setup_layers": setup_table,
            "round_layers": tables,
            "last_round_spans": tracer.span_dump(*bounds[-1]),
        }))
        print(f"trace written to {trace_path}; overhead {overhead:+.3f} s per round "
              f"({overhead / _median(plain):+.1%})", file=sys.stderr)
        if tracer.absent:
            print(f"absent from the package: {', '.join(tracer.absent)}", file=sys.stderr)

    if rec.speeds:
        speed = _median(rec.speeds)
        print(f"machine speed median {speed:.3f} (min {min(rec.speeds):.3f}, "
              f"max {max(rec.speeds):.3f}); raw decompose median "
              f"{_median([t / speed for t in rec.decompose]):.4f} s", file=sys.stderr)
    for failure in rec.tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    finite = True
    for entry in metrics.values():
        if not math.isfinite(entry["value"]):
            entry["value"], finite = None, False
    return {"correct": finite, "attempted": rec.tally.attempted,
            "failed": rec.tally.failed, "metrics": metrics}
