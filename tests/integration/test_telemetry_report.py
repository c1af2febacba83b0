"""Acceptance tests for sweep telemetry and the report/export surfaces.

The tentpole invariants:

* a sharded multi-worker sweep persists one ``sweep_telemetry`` record whose
  metrics section merges counters shipped back by fabric workers (engine memo
  hit rates, shard cells/s, store append counts);
* in-process execution (serial, and the fabric coordinator's inline drain)
  contributes its metrics exactly once (no double counting between the
  parent registry delta and worker payloads);
* ``REPRO_TRACE`` deep mode attaches structured span events to telemetry;
* ``repro report --html`` renders the dashboard and ``--telemetry`` emits
  machine-readable JSON.
"""

import json

from repro.experiments.cli import main as cli_main
from repro.experiments.faults import FAULTS_ENV
from repro.experiments.remote import RemoteExecutor
from repro.experiments.runner import (
    TELEMETRY_KIND,
    TELEMETRY_STATUS,
    expand_grid,
    run_sweep,
    sweep_telemetry_key,
)
from repro.experiments.store import ResultStore
from repro.obs.trace import drain_trace_events, set_tracing


def _cells(seeds=4):
    return expand_grid(
        ["line-flood"],
        adversaries=["earliest", "random"],
        seeds=list(range(seeds)),
        horizon=6,
    )


class TestSweepTelemetry:
    def test_sharded_sweep_persists_merged_worker_metrics(self, tmp_path):
        cells = _cells()
        store = ResultStore(str(tmp_path / "results.jsonl"))
        outcome = run_sweep(
            cells, store=store, workers=2, backend="fabric", shard_size=2
        )
        assert outcome.errors == 0
        assert outcome.telemetry is not None

        persisted = store.get(sweep_telemetry_key(cells))
        assert persisted == outcome.telemetry
        assert persisted["kind"] == TELEMETRY_KIND
        assert persisted["status"] == TELEMETRY_STATUS
        assert persisted["backend"] == "fabric"
        assert persisted["workers"] == 2
        assert persisted["cells"]["executed"] == len(cells)

        # A healthy fabric sweep: no retries, and the clean shutdown is not
        # a worker death.
        counters = persisted["fabric"]["counters"]
        assert counters["leases_granted"] == len(persisted["shards"])
        assert "shard_retries" not in counters and "workers_dead" not in counters

        # Metrics were shipped back by out-of-process workers and merged.
        assert persisted["worker_payloads"] > 0
        counters = persisted["metrics"]["counters"]
        assert counters["engine.rows_computed"] > 0
        assert counters["sweep.cells_executed"] == len(cells)
        # Store appends happen in the parent: one per executed cell.
        assert counters["store.appends"] == len(cells)
        assert counters["intern.objects_interned"] > 0

        # Shard throughput metadata: one entry per dispatched shard.
        assert persisted["shards"]
        for shard in persisted["shards"]:
            assert shard["cells"] >= 1
            assert shard["wall_s"] >= 0
            assert shard["cells_per_s"] is None or shard["cells_per_s"] > 0

        # Derived headline rates are computable from the merged counters.
        derived = persisted["derived"]
        assert derived["engine_row_hit_rate"] is not None
        assert derived["store_appends"] == len(cells)
        assert derived["base_scenario_hit_rate"] is not None

        # Phase timings cover the whole sweep.
        timings = persisted["timings"]
        assert 0 <= timings["scan_s"] <= timings["total_s"]
        assert 0 < timings["execute_s"] <= timings["total_s"]

        # The telemetry record is JSON-clean (it round-trips the store).
        json.dumps(persisted)

    def test_no_double_counting_across_backends(self, tmp_path, monkeypatch):
        """In-process execution must not absorb worker payload metrics twice.

        The fabric runs cells in worker processes, except for the
        coordinator's inline drain: every local worker here dies on its
        first shard, so the coordinator runs the whole sweep in-process.
        """
        cells = _cells(seeds=2)

        def inline_drain():
            monkeypatch.setenv(FAULTS_ENV, "kill@worker.shard:1")
            return RemoteExecutor(
                workers_hint=2, local_workers=2, local_fallback_after_s=None
            )

        runs = {
            "serial": (lambda: "serial", 1),
            "fabric-1": (lambda: "fabric", 1),
            "fabric-2": (lambda: "fabric", 2),
            "inline-drain": (inline_drain, 2),
        }
        merged = {}
        for label, (backend, workers) in runs.items():
            store = ResultStore(str(tmp_path / f"{label}.jsonl"))
            outcome = run_sweep(cells, store=store, workers=workers, backend=backend())
            assert outcome.errors == 0
            merged[label] = outcome.telemetry["metrics"]["counters"]
            if label == "inline-drain":
                fabric = outcome.telemetry["fabric"]
                assert fabric["counters"]["local_fallback_cells"] == len(cells)
                assert outcome.telemetry["worker_payloads"] == 0
        for label in ("fabric-1", "fabric-2", "inline-drain"):
            for counter in ("engine.rows_computed", "sweep.cells_executed"):
                assert merged[label][counter] == merged["serial"][counter], (
                    label,
                    counter,
                )

    def test_cached_rerun_and_telemetry_key_stability(self, tmp_path):
        cells = _cells(seeds=2)
        store = ResultStore(str(tmp_path / "results.jsonl"))
        first = run_sweep(cells, store=store, workers=1)
        second = run_sweep(cells, store=store, workers=1)
        # Telemetry records are keyed by the grid: the rerun overwrites
        # rather than accumulating, and never pollutes the cell cache scan.
        assert second.cached == len(cells) and second.executed == 0
        assert first.telemetry["key"] == second.telemetry["key"]
        telemetry_records = [
            r for r in store.records() if r.get("kind") == TELEMETRY_KIND
        ]
        assert len(telemetry_records) == 1
        assert telemetry_records[0]["cells"]["cached"] == len(cells)

    def test_trace_mode_attaches_span_events(self, tmp_path):
        cells = _cells(seeds=1)
        store = ResultStore(str(tmp_path / "results.jsonl"))
        previous = set_tracing(True)
        try:
            drain_trace_events()
            outcome = run_sweep(cells, store=store, workers=1)
        finally:
            set_tracing(previous)
            drain_trace_events()
        events = outcome.telemetry["trace"]
        names = {event["name"] for event in events}
        assert "cell" in names
        assert "sweep.scan" in names
        assert any(name.startswith("analysis.") for name in names)

    def test_untraced_sweep_has_no_trace_section(self, tmp_path):
        cells = _cells(seeds=1)
        outcome = run_sweep(cells, store=ResultStore(str(tmp_path / "r.jsonl")))
        assert "trace" not in outcome.telemetry


class TestReportSurfaces:
    def _sweep(self, tmp_path):
        store_path = str(tmp_path / "results.jsonl")
        assert cli_main(
            ["sweep", "--scenario", "figure1,flooding",
             "--adversary", "earliest,latest", "--seeds", "2",
             "--workers", "2", "--backend", "fabric", "--store", store_path]
        ) == 0
        return store_path

    def test_report_html_renders_dashboard(self, tmp_path, capsys):
        store_path = self._sweep(tmp_path)
        html_path = str(tmp_path / "report.html")
        capsys.readouterr()
        assert cli_main(
            ["report", "--store", store_path, "--html", html_path,
             "--diagrams", "2"]
        ) == 0
        html = open(html_path, encoding="utf-8").read()
        assert html.startswith("<!DOCTYPE html>")
        assert "<h2>Sweep results</h2>" in html
        assert "<h2>Sweep telemetry</h2>" in html
        assert "<h2>Space-time diagrams</h2>" in html
        assert "engine.rows_computed" in html
        # Deterministic: rendering the same store twice is byte-identical.
        html_path2 = str(tmp_path / "report2.html")
        assert cli_main(
            ["report", "--store", store_path, "--html", html_path2,
             "--diagrams", "2"]
        ) == 0
        assert html == open(html_path2, encoding="utf-8").read()

    def test_report_telemetry_json(self, tmp_path, capsys):
        store_path = self._sweep(tmp_path)
        capsys.readouterr()
        assert cli_main(["report", "--store", store_path, "--telemetry"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["kind"] == TELEMETRY_KIND
        assert payload[0]["metrics"]["counters"]["sweep.cells_executed"] == 8
