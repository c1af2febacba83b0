"""Benchmarks for the vectorized longest-path kernels on large bounds graphs.

The ``bounds_stats`` analysis pass asks the engine for a row per final node
-- dozens of sources against thousands of constraint edges on the grid and
torus workloads a sweep produces.  The list kernel pays Python-interpreter
cost per edge relaxation; the numpy kernels relax whole dst-sorted edge
blocks per operation (chunked ``maximum.reduceat`` sweeps in alternating
directions, see :mod:`repro.core.longest_paths`), and the multi-source batch
entry point (:meth:`LongestPathEngine.rows`) settles every requested row
against one ``(nodes, sources)`` matrix.

These benchmarks build the basic bounds graph of large grid/torus flooding
runs (both above ``VECTOR_MIN_EDGES``, so the auto kernel choice also picks
numpy), compute all final-node rows through a forced-vectorized and a
forced-list engine, assert bit-identical results, and gate a >= 5x speedup.
Numbers are appended to ``BENCH_vector.json``, which CI diffs against the
committed ``BENCH_vector.baseline.json`` via
``scripts/check_bench_regression.py``.

Without numpy installed the forced-vectorized engine silently degrades to
the list kernel, so the gate is skipped (the agreement assertions still
run); the CI bench-smoke job installs numpy precisely to keep this gate
live.
"""

import time
from pathlib import Path

import pytest

from _bench_utils import record, report

from repro.core.bounds_graph import basic_bounds_graph
from repro.core.longest_paths import VECTOR_MIN_EDGES, LongestPathEngine, _numpy
from repro.scenarios import get_scenario
from repro.simulation.interning import intern_pool

#: Where the measured trajectory is written (diffed against the committed
#: ``BENCH_vector.baseline.json`` by ``scripts/check_bench_regression.py``).
ARTIFACT = Path(__file__).resolve().parent / "BENCH_vector.json"

#: The acceptance criterion: vectorized multi-source rows >= 5x faster than
#: the list kernel on large grid/torus bounds graphs.
REQUIRED_SPEEDUP = 5.0

#: ``(name, scenario, params)``.  Sized so the bounds graphs comfortably
#: exceed ``VECTOR_MIN_EDGES`` (the auto-mode threshold) while the whole
#: file stays a few seconds on slow CI hardware.
WORKLOADS = [
    ("grid-bounds", "grid-flood", {"rows": 7, "cols": 7, "horizon": 20}),
    ("torus-bounds", "torus-flood", {"rows": 5, "cols": 5, "horizon": 24}),
]


def bounds_workload(scenario, params):
    """The bounds graph and final-node sources of one flooding run."""
    run = get_scenario(scenario).build(**params).run()
    graph = basic_bounds_graph(run)
    finals = sorted(
        (run.final_node(process) for process in run.processes),
        key=lambda node: node.process,
    )
    return graph, finals


def timed_rows(graph, finals, vectorized, repetitions):
    """Min-of-N wall time of a cold engine answering all final-node rows."""
    best = float("inf")
    rows = None
    for _ in range(repetitions):
        engine = LongestPathEngine(graph, vectorized=vectorized)
        started = time.perf_counter()
        rows = engine.rows(finals)
        best = min(best, time.perf_counter() - started)
    return rows, best


@pytest.mark.parametrize(
    "name,scenario,params", WORKLOADS, ids=[w[0] for w in WORKLOADS]
)
def test_bench_vectorized_rows(name, scenario, params):
    """Vectorized multi-source rows >= 5x faster than the list kernel."""
    with intern_pool():
        graph, finals = bounds_workload(scenario, params)
        edges = graph.edge_count()
        assert edges >= VECTOR_MIN_EDGES, (
            f"{name}: workload too small ({edges} edges) to exercise the "
            "auto-vectorization threshold"
        )

        list_rows, list_s = timed_rows(graph, finals, False, repetitions=2)
        vector_rows, vector_s = timed_rows(graph, finals, True, repetitions=3)

    assert vector_rows == list_rows, "vectorized rows disagree with list rows"

    speedup = list_s / vector_s if vector_s > 0 else float("inf")
    report(
        f"vectorized kernels ({name})",
        "matrix relaxation beats per-edge Python loops on GB(r) at sweep scale",
        f"{len(graph)} nodes, {edges} edges, {len(finals)} sources: "
        f"list {list_s * 1e3:.1f}ms, vector {vector_s * 1e3:.1f}ms, "
        f"speedup {speedup:.1f}x",
    )
    record(
        ARTIFACT,
        name,
        {
            "horizon": params["horizon"],
            "nodes": len(graph),
            "edges": edges,
            "sources": len(finals),
            "list_s": round(list_s, 6),
            "vector_s": round(vector_s, 6),
            "vector_speedup": round(speedup, 1),
        },
    )

    if _numpy() is None:
        pytest.skip("numpy unavailable: forced-vectorized degraded to list kernel")
    assert speedup >= REQUIRED_SPEEDUP, (
        f"{name}: vectorized rows only {speedup:.1f}x faster "
        f"({list_s * 1e3:.1f}ms vs {vector_s * 1e3:.1f}ms)"
    )


def test_bench_vectorized_rows_throughput(benchmark):
    """pytest-benchmark timing of the batched vectorized rows (grid workload)."""
    name, scenario, params = WORKLOADS[0]
    with intern_pool():
        graph, finals = bounds_workload(scenario, params)
        expected = LongestPathEngine(graph, vectorized=False).rows(finals)

        def batch():
            return LongestPathEngine(graph, vectorized=True).rows(finals)

        rows = benchmark(batch)
    assert rows == expected
