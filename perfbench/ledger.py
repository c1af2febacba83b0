"""The traced-run ledger: timing shims around each layer's entry points,
in-memory spans, and self times derived from them.

The shims live here, outside ``src/``: :func:`install` replaces each layer
function or method with a wrapper that records a span and calls the
original.  A module-level function is replaced in every ``repro`` module
that holds a reference to it, because callers look the name up in their own
module (``repro.experiments.analyses.basic_bounds_graph``, not only
``repro.core.bounds_graph.basic_bounds_graph``).  The program's own
``span()`` phases (``sweep.scan``, ``analysis.<name>``, ``serve.request``)
are captured by wrapping ``span`` where those modules look it up.

Spans stay in memory and are written once, when the traced process ends
(:func:`Recorder.dump`).  A span's self time is its duration minus the time
its child spans cover; summed per layer, self times plus the unaccounted
share add up to the traced wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``span()`` names of the program mapped to ledger layers.  Names not
#: listed pass through unrecorded.
PROGRAM_SPANS = {
    "sweep.scan": "runner.scan",
    "sweep.execute": "executors.execute",
    "cell": "runner.cell",
    "analysis.summary": "analyses.summary",
    "analysis.bounds_graph": "analyses.bounds_graph",
    "analysis.bounds_stats": "analyses.bounds_stats",
    "analysis.coordination": "analyses.coordination",
    "analysis.knowledge": "analyses.knowledge",
    "serve.request": "serve.request",
    "serve.sweep": "serve.sweep",
    "serve.recompute": "serve.recompute",
}

#: Module-level functions, by defining module, and their layers.
FUNCTION_SHIMS = (
    ("repro.experiments.runner", "expand_grid", "runner.expand"),
    ("repro.experiments.runner", "build_base_scenario", "scenarios.build"),
    ("repro.experiments.runner", "decorate_scenario", "scenarios.build"),
    ("repro.core.bounds_graph", "basic_bounds_graph", "bounds_graph.build"),
    ("repro.experiments.reporting", "cell_records", "reporting.report"),
    ("repro.experiments.reporting", "report_payload", "reporting.report"),
)

#: Methods, by class, and their layers.
METHOD_SHIMS = (
    ("repro.scenarios.base", "Scenario", "run", "simulation.run"),
    ("repro.simulation.runs", "Run", "validate", "simulation.validate"),
    ("repro.core.longest_paths", "LongestPathEngine", "row", "longest_paths.rows"),
    ("repro.core.longest_paths", "LongestPathEngine", "rows", "longest_paths.rows"),
    ("repro.core.longest_paths", "LongestPathEngine", "weight", "longest_paths.rows"),
    ("repro.core.longest_paths", "LongestPathEngine", "set_overlay", "longest_paths.overlay"),
    ("repro.core.longest_paths", "LongestPathEngine", "overlay_weight", "longest_paths.overlay"),
    ("repro.core.longest_paths", "LongestPathEngine", "overlay_row", "longest_paths.overlay"),
    ("repro.core.knowledge_session", "KnowledgeSession", "advance", "knowledge_session.advance"),
    ("repro.core.knowledge_session", "KnowledgeSession", "advance_many", "knowledge_session.advance"),
    ("repro.core.knowledge_session", "KnowledgeSession", "max_known_gap", "knowledge_session.query"),
    ("repro.core.knowledge_session", "KnowledgeSession", "max_known_gaps", "knowledge_session.query"),
    ("repro.core.knowledge_session", "KnowledgeSession", "knows", "knowledge_session.query"),
    ("repro.core.knowledge_session", "KnowledgeSession", "find_go_node", "knowledge_session.query"),
    ("repro.coordination.optimal", "OptimalCoordinationProtocol", "should_act", "optimal.guard"),
    ("repro.experiments.store", "ResultStore", "get", "store.get"),
    ("repro.experiments.store", "ResultStore", "put", "store.put"),
    ("repro.experiments.store", "ResultStore", "records", "store.records"),
    ("repro.experiments.serve", "SweepService", "result", "serve.handle.results"),
    ("repro.experiments.serve", "SweepService", "report", "serve.handle.report"),
    ("repro.experiments.serve", "SweepService", "submit", "serve.handle.sweeps"),
)

#: Modules whose ``span`` name is wrapped to capture :data:`PROGRAM_SPANS`.
SPAN_MODULES = ("repro.experiments.runner", "repro.experiments.analyses", "repro.experiments.serve")

#: Program counters whose deltas the traced process reports.
COUNTERS = (
    "engine.rows_computed",
    "session.resets",
    "store.lookups",
    "store.index_hits",
    "sweep.cells_executed",
)

#: Per-layer metrics read from the process that computed the cells: the
#: self time of each layer.
COMPUTE_LAYERS = {
    "scenarios.build_s": "scenarios.build",
    "simulation.run_self_s": "simulation.run",
    "simulation.validate_s": "simulation.validate",
    "bounds_graph.build_s": "bounds_graph.build",
    "longest_paths.rows_s": "longest_paths.rows",
    "longest_paths.overlay_s": "longest_paths.overlay",
    "knowledge_session.advance_s": "knowledge_session.advance",
    "knowledge_session.query_s": "knowledge_session.query",
    "optimal.guard_s": "optimal.guard",
    "analyses.summary_s": "analyses.summary",
    "analyses.bounds_graph_s": "analyses.bounds_graph",
    "analyses.bounds_stats_s": "analyses.bounds_stats",
    "analyses.coordination_s": "analyses.coordination",
    "analyses.knowledge_s": "analyses.knowledge",
}

#: Every per-layer metric and its unit, in BENCHMARK.json order.  A layer a
#: workload does not exercise reads 0.
METRIC_UNITS = {
    "startup.boot_s": "s",
    "startup.import_s": "s",
    "runner.expand_s": "s",
    "runner.scan_s": "s",
    "runner.scan_probes": "count",
    "scenarios.build_s": "s",
    "simulation.run_self_s": "s",
    "simulation.validate_s": "s",
    "bounds_graph.build_s": "s",
    "bounds_graph.builds_per_cell": "count",
    "longest_paths.rows_s": "s",
    "longest_paths.rows_computed": "count",
    "longest_paths.overlay_s": "s",
    "knowledge_session.advance_s": "s",
    "knowledge_session.query_s": "s",
    "knowledge_session.resets": "count",
    "optimal.guard_s": "s",
    "optimal.guard_evals": "count",
    "analyses.summary_s": "s",
    "analyses.bounds_graph_s": "s",
    "analyses.bounds_stats_s": "s",
    "analyses.coordination_s": "s",
    "analyses.knowledge_s": "s",
    "executors.busy_share": "1",
    "executors.overhead_s": "s",
    "executors.shards": "count",
    "store.open_s": "s",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.index_hit_ratio": "1",
    "serve.handle_s.results": "s",
    "serve.handle_s.report": "s",
    "serve.handle_s.sweeps": "s",
    "serve.wire_s": "s",
    "reporting.report_s": "s",
    "reporting.cache_hit_ratio": "1",
    "trace.overhead_ratio": "1",
    "ledger.unaccounted_share": "1",
}

Span = Tuple[int, int, str, float, float, int]  # id, parent, layer, start, end, thread


class Recorder:
    """Collects spans in memory; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.results: Dict[str, List[Any]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, layer: str, start: float, end: float) -> None:
        """Record a finished top-level span measured by the caller."""
        self.spans.append((next(self._ids), 0, layer, start, end, threading.get_ident()))

    def wrap(self, fn: Callable, layer: str, keep_result: bool = False) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = recorder._stack()
            sid = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep_result:
                    recorder.results[layer].append(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((sid, parent, layer, start, end, threading.get_ident()))

        return shim

    def wrap_span(self, original: Callable) -> Callable:
        """Wrap the program's ``span`` factory, recording mapped phases."""
        recorder = self

        class _Traced:
            __slots__ = ("inner", "layer", "sid", "start")

            def __init__(self, inner, layer):
                self.inner = inner
                self.layer = layer

            @property
            def duration_s(self):
                return self.inner.duration_s

            def __enter__(self):
                stack = recorder._stack()
                self.sid = next(recorder._ids)
                parent = stack[-1] if stack else 0
                stack.append(self.sid)
                self.start = (time.perf_counter(), parent)
                self.inner.__enter__()
                return self

            def __exit__(self, *exc):
                self.inner.__exit__(*exc)
                end = time.perf_counter()
                recorder._stack().pop()
                start, parent = self.start
                recorder.spans.append(
                    (self.sid, parent, self.layer, start, end, threading.get_ident())
                )
                return False

        def traced_span(name, **attrs):
            inner = original(name, **attrs)
            layer = PROGRAM_SPANS.get(name)
            return inner if layer is None else _Traced(inner, layer)

        return traced_span

    def dump(self, path: str, **extra: Any) -> None:
        payload = {"spans": self.spans, **extra}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def counters() -> Dict[str, float]:
    from repro.obs.metrics import registry

    values = registry().snapshot()["counters"]
    return {name: values.get(name, 0) for name in COUNTERS}


def install(recorder: Recorder) -> None:
    """Replace every layer entry point in the loaded ``repro`` modules."""
    import importlib

    modules = [m for name, m in list(sys.modules.items()) if name.startswith("repro") and m]
    for module_name, name, layer in FUNCTION_SHIMS:
        original = getattr(importlib.import_module(module_name), name)
        shim = recorder.wrap(original, layer)
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, shim)
    for module_name, class_name, method, layer in METHOD_SHIMS:
        cls = getattr(importlib.import_module(module_name), class_name)
        keep = (class_name, method) == ("SweepService", "report")
        setattr(cls, method, recorder.wrap(cls.__dict__[method], layer, keep_result=keep))
    store_cls = importlib.import_module("repro.experiments.store").ResultStore
    load = store_cls.__dict__["_ensure_loaded"]
    timed_load = recorder.wrap(load, "store.open")

    # The store opens lazily on first access; only that first call is an open.
    def ensure_loaded(self):
        return load(self) if self._loaded else timed_load(self)

    store_cls._ensure_loaded = ensure_loaded
    for module_name in SPAN_MODULES:
        module = importlib.import_module(module_name)
        module.span = recorder.wrap_span(module.span)


# ---------------------------------------------------------------------------
# Deriving the ledger from spans.
# ---------------------------------------------------------------------------


def merge(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Sorted, disjoint intervals covering the same time as ``intervals``."""
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    return sum(end - start for start, end in merge(intervals))


def overlap(a: Sequence[Tuple[float, float]], b: Sequence[Tuple[float, float]]) -> float:
    """Time covered by both of two :func:`merge`-d interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def clip(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> List[Tuple[float, float]]:
    return [(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi]


class Ledger:
    """Per-layer self time and span counts of one traced process."""

    def __init__(self, spans: Sequence[Sequence[Any]]):
        self.spans = [tuple(span) for span in spans]
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        self.self_s: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        for sid, _, layer, start, end, _ in self.spans:
            self.self_s[layer] += (end - start) - child_time.get(sid, 0.0)
            self.count[layer] += 1
        self._by_id = {span[0]: span for span in self.spans}

    def _has_ancestor(self, span: Tuple, layer: str) -> bool:
        parent = span[1]
        while parent:
            up = self._by_id.get(parent)
            if up is None:
                return False
            if up[2] == layer:
                return True
            parent = up[1]
        return False

    def within(self, layer: str, ancestor: str) -> int:
        """Spans of ``layer`` nested (at any depth) inside an ``ancestor`` span."""
        return sum(1 for s in self.spans if s[2] == layer and self._has_ancestor(s, ancestor))

    def inclusive(self, layer: str) -> float:
        """Total duration of the outermost spans of ``layer``."""
        return sum(
            s[4] - s[3] for s in self.spans if s[2] == layer and not self._has_ancestor(s, layer)
        )

    def intervals(self) -> List[Tuple[float, float]]:
        return [(span[3], span[4]) for span in self.spans]

    def covered(self, lo: float, hi: float) -> float:
        return union_length(clip(self.intervals(), lo, hi))

    def compute_layers(self) -> Dict[str, float]:
        return {metric: self.self_s[layer] for metric, layer in COMPUTE_LAYERS.items()}
