"""Self times, coverage and the timing shims of the traced-run ledger."""

import json
import os
import subprocess
import sys
import threading

from perfbench import ledger

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_subtracts_children_and_nested_same_layer():
    spans = [
        (1, 0, "simulation.run", 0.0, 10.0, 1),
        (2, 1, "optimal.guard", 1.0, 4.0, 1),
        (3, 2, "knowledge_session.query", 2.0, 3.0, 1),
        (4, 1, "simulation.validate", 5.0, 6.0, 1),
        (5, 0, "knowledge_session.advance", 11.0, 15.0, 1),
        (6, 5, "knowledge_session.advance", 12.0, 14.0, 1),
    ]
    book = ledger.Ledger(spans)
    assert book.self_s["simulation.run"] == 6.0
    assert book.self_s["optimal.guard"] == 2.0
    assert book.self_s["knowledge_session.query"] == 1.0
    assert book.self_s["knowledge_session.advance"] == 4.0  # no double count
    assert book.inclusive("knowledge_session.advance") == 4.0
    assert book.count["knowledge_session.advance"] == 2
    assert book.within("knowledge_session.query", "simulation.run") == 1
    assert book.within("simulation.validate", "optimal.guard") == 0
    assert book.covered(0.0, 20.0) == 14.0
    assert sum(book.self_s.values()) == book.covered(0.0, 20.0)


def test_interval_helpers():
    assert ledger.merge([(3, 4), (0, 1), (0.5, 2)]) == [(0, 2), (3, 4)]
    assert ledger.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3
    assert ledger.overlap([(0, 2), (3, 4)], [(1, 3.5)]) == 1.5
    assert ledger.clip([(0, 5), (6, 7)], 1, 6.5) == [(1, 5), (6, 6.5)]


def test_wrap_records_nesting_per_thread_and_keeps_results():
    recorder = ledger.Recorder()

    def inner(x):
        return x + 1

    wrapped_inner = recorder.wrap(inner, "inner")
    outer = recorder.wrap(lambda x: wrapped_inner(x) * 2, "outer", keep_result=True)
    assert outer(1) == 4
    worker = threading.Thread(target=wrapped_inner, args=(5,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_layer = {}
    for sid, parent, layer, *_ in recorder.spans:
        by_layer.setdefault(layer, []).append((sid, parent))
    (outer_id, outer_parent), = by_layer["outer"]
    assert outer_parent == 0
    assert sorted(parent for _, parent in by_layer["inner"]) == [0, outer_id]
    assert recorder.results["outer"] == [4]


def test_wrapped_span_keeps_the_program_timing():
    recorder = ledger.Recorder()

    class FakeSpan:
        def __init__(self, name, **attrs):
            self.duration_s = 0.0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.duration_s = 1.5

    traced = recorder.wrap_span(FakeSpan)
    with traced("sweep.scan") as scan:
        pass
    assert scan.duration_s == 1.5  # the runner reads it back
    with traced("not.a.layer"):
        pass
    assert [span[2] for span in recorder.spans] == ["runner.scan"]


def test_traced_command_records_every_layer(tmp_path):
    """``traced.py`` runs a real command with the shims installed."""
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "traced.py"), str(spans_path),
         "--", "run", "figure6", "--store", str(tmp_path / "results.jsonl")],
        env=env, cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(spans_path.read_text())
    book = ledger.Ledger(payload["spans"])
    # analyses.py looks basic_bounds_graph up in its own module: both the
    # bounds_graph and the bounds_stats pass build it.
    assert book.count["bounds_graph.build"] == 2
    assert book.count["simulation.run"] == 1
    assert book.count["simulation.validate"] == 1
    assert book.count["scenarios.build"] == 2
    assert book.count["store.put"] == 1
    for name in ("summary", "bounds_graph", "bounds_stats", "coordination"):
        assert book.count[f"analyses.{name}"] == 1
    assert book.count["startup.import"] == 1
    assert payload["counters"]["engine.rows_computed"] > 0
    assert payload["started"] < payload["imported"] < payload["ended"]
