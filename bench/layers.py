"""Per-layer tracing taken from outside the package.

While a Tracer is installed, each listed public holosplit function is
replaced, in every ``holosplit`` namespace that binds it, by a thin wrapper
that records a span (name, start, end, parent) and the computed bytes of the
arrays it returns. ``remove()`` puts every original object back. Nothing in
the package changes; a listed function the package no longer defines is
reported as absent.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
import time

import numpy as np

# (defining module, function, span name); the span name is the layer name
# used by the per-layer metrics
TARGETS = (
    ("dynamics", "propagate_frame", "dynamics.propagate_frame"),
    ("dynamics", "hamiltonian_path", "dynamics.hamiltonian_path"),
    ("dynamics", "restricted_generator_path", "dynamics.restricted_generator_path"),
    ("dynamics", "projector_path", "dynamics.projector_path"),
    ("linalg", "loewdin_orthonormalize", "linalg.loewdin_orthonormalize"),
    ("sections", "build_section", "sections.build_section"),
    ("sections", "w_path", "sections.w_path"),
    ("sections", "overlap_path", "sections.overlap_path"),
    ("holonomy", "connection_path", "holonomy.connection_path"),
    ("holonomy", "k_path", "holonomy.k_path"),
    ("holonomy", "solve_anandan", "holonomy.solve_anandan"),
    ("holonomy", "ordered_factor", "holonomy.ordered_factor"),
    ("holonomy", "max_commutator_scan", "holonomy.max_commutator_scan"),
    ("holonomy", "separability_report", "holonomy.separability_report"),
    ("instances", "cosine_drive", "instances.cosine_drive"),
    ("instances", "refutation_instance", "instances.refutation_instance"),
    ("config", "load_run_config", "config.load_run_config"),
    ("config", "report_to_json", "config.report_to_json"),
    ("cli", "cmd_decompose", "cli.decompose"),
    ("cli", "cmd_separability", "cli.separability"),
    ("cli", "cmd_export", "cli.export"),
    ("cli", "cmd_gauge_check", "cli.gauge_check"),
)

# per-layer metric -> (span name, statistic); "self" is the span's duration
# minus that of its traced children
METRICS = (
    ("dynamics.propagate_frame.s", "dynamics.propagate_frame", "s"),
    ("linalg.loewdin_orthonormalize.calls", "linalg.loewdin_orthonormalize", "calls"),
    ("dynamics.hamiltonian_path.s", "dynamics.hamiltonian_path", "s"),
    ("dynamics.hamiltonian_path.calls", "dynamics.hamiltonian_path", "calls"),
    ("dynamics.hamiltonian_path.bytes", "dynamics.hamiltonian_path", "bytes"),
    ("dynamics.restricted_generator_path.s", "dynamics.restricted_generator_path", "s"),
    ("holonomy.k_path.s", "holonomy.k_path", "s"),
    ("dynamics.projector_path.calls", "dynamics.projector_path", "calls"),
    ("dynamics.projector_path.bytes", "dynamics.projector_path", "bytes"),
    ("sections.w_path.s", "sections.w_path", "s"),
    ("sections.build_section.s", "sections.build_section", "s"),
    ("holonomy.classify.s", "holonomy.separability_report", "self"),
    ("holonomy.solve_anandan.s", "holonomy.solve_anandan", "s"),
    ("holonomy.ordered_factor.s", "holonomy.ordered_factor", "s"),
    ("holonomy.ordered_factor.calls", "holonomy.ordered_factor", "calls"),
    ("holonomy.connection_path.s", "holonomy.connection_path", "s"),
    ("sections.overlap_path.s", "sections.overlap_path", "s"),
    ("holonomy.separability_report.s", "holonomy.separability_report", "s"),
    ("holonomy.max_commutator_scan.s", "holonomy.max_commutator_scan", "s"),
    ("instances.cosine_drive.s", "instances.cosine_drive", "s"),
    ("instances.refutation_instance.s", "instances.refutation_instance", "s"),
    ("config.load_run_config.s", "config.load_run_config", "s"),
    ("config.load_run_config.calls", "config.load_run_config", "calls"),
    ("config.report_to_json.s", "config.report_to_json", "s"),
    ("cli.export.write.s", "cli.export", "self"),
    ("cli.separability.s", "cli.separability", "s"),
    ("cli.gauge_check.s", "cli.gauge_check", "s"),
)

UNITS = {"s": "s", "self": "s", "calls": "count", "bytes": "B"}


def computed_bytes(value, depth: int = 3) -> int:
    """Bytes of the numpy arrays reachable from a return value through
    tuples, lists and dataclass fields (computed from shapes, not measured)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if depth == 0:
        return 0
    if isinstance(value, (tuple, list)):
        return sum(computed_bytes(v, depth - 1) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(computed_bytes(getattr(value, f.name), depth - 1)
                   for f in dataclasses.fields(value))
    return 0


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    nbytes: int


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "holosplit" or name.startswith("holosplit."))]


class Tracer:
    """Span recorder that patches the TARGETS while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, 0.0, 0.0, parent, 0))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = self.spans[idx]
                span.start, span.end = start, end
            span.nbytes = computed_bytes(result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = _namespaces()
        for module, func, name in TARGETS:
            home = sys.modules.get(f"holosplit.{module}")
            original = getattr(home, func, None) if home is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def remove(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def mark(self) -> int:
        return len(self.spans)

    def layer_table(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Calls, computed bytes, inclusive and self seconds per span name
        over spans[lo:hi]."""
        spans = self.spans[lo:hi]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= lo:
                child_time[span.parent - lo] += span.end - span.start
        table: dict[str, dict[str, float]] = {}
        for span, inner in zip(spans, child_time):
            row = table.setdefault(span.name, {"calls": 0, "bytes": 0, "s": 0.0, "self": 0.0})
            row["calls"] += 1
            row["bytes"] += span.nbytes
            row["s"] += span.end - span.start
            row["self"] += span.end - span.start - inner
        return table

    def span_dump(self, lo: int, hi: int) -> list[list]:
        """Spans[lo:hi] as [name, start, end, parent, bytes] rows, times and
        parent indices relative to the first span of the range."""
        if hi <= lo:
            return []
        t0 = self.spans[lo].start
        return [[s.name, round(s.start - t0, 9), round(s.end - t0, 9),
                 s.parent - lo if s.parent >= lo else -1, s.nbytes]
                for s in self.spans[lo:hi]]


def per_layer_metrics(tables: list[dict], setup_table: dict) -> dict[str, dict]:
    """Median per round of every per-layer metric; the instances.* layers are
    taken from the traced set-up instead of the rounds."""
    out = {}
    for metric, span, stat in METRICS:
        source = [setup_table] if span.startswith("instances.") else tables
        values = [t.get(span, {}).get(stat, 0) for t in source]
        value = statistics.median(values) if values else 0
        out[metric] = {"value": float(value) if UNITS[stat] == "s" else int(value),
                       "unit": UNITS[stat]}
    return out
