"""Benchmarks for the serve hub's report path.

* ``cached-report``: the service exists so repeat queries never pay
  compute: a ``/report`` over an unchanged store is answered from the
  in-process cache — no records re-read, no cells re-run.  This computes a
  small grid cold (the price a cacheless client pays), then serves the
  warmed store over real HTTP and times repeat cached ``/report`` fetches
  end-to-end (socket, chunk, JSON).
* ``delta-report``: after a few appends, a ``/report`` miss refreshes the
  service's store view by the tail delta and re-flattens only the appended
  records.  This times that miss against the cold miss that builds the
  report memo from a ~2k-record segmented store.
* ``warm-resubmit``: a finished ~300-cell grid POSTed again and again over
  a ~2k-record segmented store.  Each job refreshes the one long-lived job
  store by delta and its scan probes each cell once, so a re-POST costs
  what its cells cost, not what the store holds.  ``lookups_per_cell`` is
  gated exactly at 1; the median time from POST to the end of the event
  stream (``resubmit_s``) only warns.

Each speedup gate is a >= 5x win; ``scripts/check_bench_regression.py``
ratio-gates the recorded speedups against the committed baseline so the
wins cannot silently erode.
"""

import http.client
import json
import random
import statistics
import time
import urllib.request
from pathlib import Path

from _bench_utils import record, report

from repro.experiments.runner import expand_grid, run_sweep
from repro.experiments.serve import SweepService
from repro.experiments.store import ResultStore
from repro.obs import metrics as obs_metrics

ARTIFACT = Path(__file__).resolve().parent / "BENCH_serve.json"

SEEDS = 8
HORIZON = 12
FETCHES = 25
REQUIRED_SPEEDUP = 5.0


def test_bench_cached_report_vs_cold_compute(tmp_path):
    cells = expand_grid(["line-flood"], seeds=list(range(SEEDS)), horizon=HORIZON)

    # Cold: what answering the same question costs without the store/cache —
    # compute every cell of the grid.
    store_path = str(tmp_path / "results.jsonl")
    cold_started = time.perf_counter()
    outcome = run_sweep(cells, store=ResultStore(store_path), backend="serial")
    cold_compute_s = time.perf_counter() - cold_started
    assert outcome.errors == 0
    assert outcome.executed == len(cells)

    # Warm: serve the store over real HTTP; the first fetch builds the
    # report cache entry, repeats are pure cache hits.
    service = SweepService(store_path)
    host, port = service.start("127.0.0.1", 0)
    url = f"http://{host}:{port}/report?group_by=scenario,adversary"
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            first = json.loads(response.read())
        assert first["served_from_cache"] is False
        assert first["records"] == len(cells)

        cached_started = time.perf_counter()
        for _ in range(FETCHES):
            with urllib.request.urlopen(url, timeout=60) as response:
                body = json.loads(response.read())
            assert body["served_from_cache"] is True
        cached_report_s = (time.perf_counter() - cached_started) / FETCHES
    finally:
        service.stop()

    speedup = cold_compute_s / cached_report_s if cached_report_s > 0 else float("inf")
    report(
        "Serve hub: cached /report fetch vs cold grid compute",
        "no measurement in the paper (serving-layer cost)",
        f"{len(cells)} cells: cold compute {cold_compute_s * 1e3:.1f}ms, "
        f"cached HTTP /report {cached_report_s * 1e3:.2f}ms ({speedup:.0f}x)",
    )
    record(
        ARTIFACT,
        "cached-report",
        {
            "cells": len(cells),
            "fetches": FETCHES,
            "cold_compute_s": round(cold_compute_s, 6),
            "cached_report_s": round(cached_report_s, 6),
            "report_cache_speedup": round(speedup, 1),
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"cached /report only {speedup:.1f}x faster than cold compute "
        f"(required >= {REQUIRED_SPEEDUP}x)"
    )


DELTA_RECORDS = 2000
DELTA_APPENDS = 6
DELTA_ROUNDS = 3
DELTA_ROTATE_BYTES = 256 * 1024


def _synthetic_record(index: int, rng: random.Random) -> dict:
    """A cell record shaped like a stored default-grid sweep cell (~1 KB)."""
    sends = rng.randrange(10, 400)
    nodes = rng.randrange(20, 300)
    edges = rng.randrange(50, 900)
    return {
        "key": f"{index:064x}",
        "status": "ok",
        "scenario": f"scenario-{index % 4}",
        "adversary": ("earliest", "latest", "random")[index % 3],
        "seed": index,
        "horizon": None,
        "params": {
            "horizon": 12,
            "lower": 1,
            "num_inputs": 2,
            "num_processes": 4 + index % 5,
            "seed": 0,
            "upper": 2 + index % 3,
        },
        "analysis_versions": {
            "bounds_graph": 1,
            "bounds_stats": 1,
            "coordination": 1,
            "summary": 1,
        },
        "duration_s": round(rng.random() / 100, 6),
        "analyses": {
            "bounds_graph": {
                "edges": edges,
                "edges_by_label": {"lower": edges // 3, "succ": edges // 4, "upper": edges // 3},
                "nodes": nodes,
            },
            "bounds_stats": {
                "edges": edges,
                "has_positive_cycle": False,
                "max_pair_gap": rng.randrange(-5, 5),
                "min_pair_gap": rng.randrange(-9, -5),
                "nodes": nodes,
                "queried_pairs": 12,
                "reachable_pairs": rng.randrange(13),
                "rows_computed": 4,
            },
            "coordination": {
                "actor_a": None,
                "actor_b": None,
                "applicable": index % 5 != 0,
                "go_sender": f"p{index % 3}",
            },
            "summary": {
                "actions": rng.randrange(3),
                "channels": 6,
                "deliveries": sends - rng.randrange(0, 10),
                "external_deliveries": 2,
                "first_action_times": {"a": rng.randrange(50)} if index % 2 else {},
                "horizon": 12,
                "max_timeline_steps": rng.randrange(5, 40),
                "pending": rng.randrange(10),
                "processes": 4 + index % 5,
                "sends": sends,
            },
        },
    }


def _timed_report(conn: http.client.HTTPConnection) -> tuple:
    started = time.perf_counter()
    conn.request("GET", "/report")
    response = conn.getresponse()
    body = json.loads(response.read())
    assert response.status == 200
    return time.perf_counter() - started, body


def test_bench_delta_report_vs_cold_report(tmp_path):
    rng = random.Random(14)
    store_path = str(tmp_path / "results.jsonl")
    ResultStore(store_path, rotate_bytes=DELTA_ROTATE_BYTES).put_many(
        [_synthetic_record(i, rng) for i in range(DELTA_RECORDS)]
    )
    assert ResultStore(store_path).info()["segments"]

    # Each round is a new service: its first /report is cold, and the one
    # after the appends is a delta miss.  Medians over the rounds keep one
    # slow request on a shared host from deciding the ratio.
    colds, deltas = [], []
    stored = DELTA_RECORDS
    for _ in range(DELTA_ROUNDS):
        service = SweepService(store_path, rotate_bytes=DELTA_ROTATE_BYTES)
        host, port = service.start("127.0.0.1", 0)
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            elapsed, cold = _timed_report(conn)
            assert cold["served_from_cache"] is False
            assert cold["records"] == stored
            colds.append(elapsed)

            # A second writer appends without rotating, as a sweep sharing
            # the store would between two reports.
            ResultStore(store_path, rotate_bytes=None).put_many(
                [_synthetic_record(stored + i, rng) for i in range(DELTA_APPENDS)]
            )
            stored += DELTA_APPENDS
            elapsed, delta = _timed_report(conn)
            assert delta["served_from_cache"] is False
            assert delta["records"] == stored
            deltas.append(elapsed)
        finally:
            conn.close()
            service.stop()
    cold_report_s = statistics.median(colds)
    delta_report_s = statistics.median(deltas)

    speedup = cold_report_s / delta_report_s if delta_report_s > 0 else float("inf")
    report(
        "Serve hub: /report miss after appends vs cold /report miss",
        "no measurement in the paper (serving-layer cost)",
        f"{DELTA_RECORDS} records + {DELTA_APPENDS} appended, median of "
        f"{DELTA_ROUNDS} rounds: cold miss "
        f"{cold_report_s * 1e3:.1f}ms, delta miss {delta_report_s * 1e3:.1f}ms "
        f"({speedup:.1f}x)",
    )
    record(
        ARTIFACT,
        "delta-report",
        {
            "records": DELTA_RECORDS,
            "appended": DELTA_APPENDS,
            "rounds": DELTA_ROUNDS,
            "cold_report_s": round(cold_report_s, 6),
            "delta_report_s": round(delta_report_s, 6),
            "delta_report_speedup": round(speedup, 1),
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"delta /report only {speedup:.1f}x faster than the cold report "
        f"(required >= {REQUIRED_SPEEDUP}x)"
    )


RESUBMIT_SPEC = {
    "scenarios": ["line-flood"],
    "adversaries": ["earliest", "latest", "random"],
    "seeds": 100,
    "horizon": 4,
    "analyses": ["summary"],
}
RESUBMITS = 5


def _lookups() -> int:
    return obs_metrics.registry().snapshot()["counters"].get("store.lookups", 0)


def _post_and_stream(conn: http.client.HTTPConnection) -> dict:
    """POST the grid, then read its event stream to the end; the
    ``complete`` event's cell counts."""
    conn.request("POST", "/sweeps", body=json.dumps(RESUBMIT_SPEC))
    response = conn.getresponse()
    sweep = json.loads(response.read())["sweep"]
    assert response.status == 201
    conn.request("GET", f"/sweeps/{sweep}/events")
    response = conn.getresponse()
    events = [json.loads(line) for line in response.read().splitlines()]
    assert events[-1] == {"event": "end", "status": "done", "sweep": sweep}
    return next(event for event in events if event["event"] == "complete")["cells"]


def test_bench_warm_resubmit(tmp_path):
    rng = random.Random(21)
    store_path = str(tmp_path / "results.jsonl")
    ResultStore(store_path, rotate_bytes=DELTA_ROTATE_BYTES).put_many(
        [_synthetic_record(i, rng) for i in range(DELTA_RECORDS)]
    )
    assert ResultStore(store_path).info()["segments"]

    service = SweepService(store_path, rotate_bytes=DELTA_ROTATE_BYTES)
    host, port = service.start("127.0.0.1", 0)
    try:
        conn = http.client.HTTPConnection(host, port, timeout=120)
        cold = _post_and_stream(conn)
        cells = cold["total"]
        assert cold["executed"] == cells and cold["errors"] == 0
        times = []
        before = _lookups()
        for _ in range(RESUBMITS):
            conn.close()  # the event stream ends its connection
            started = time.perf_counter()
            warm = _post_and_stream(conn)
            times.append(time.perf_counter() - started)
            assert (warm["cached"], warm["executed"]) == (cells, 0)
        lookups = _lookups() - before
        conn.close()
    finally:
        service.stop()
    resubmit_s = statistics.median(times)
    per_cell = lookups / (RESUBMITS * cells)

    report(
        "Serve hub: re-POST of a finished grid over a segmented store",
        "no measurement in the paper (serving-layer cost)",
        f"{cells} cells over {DELTA_RECORDS} records, median of {RESUBMITS} "
        f"re-POSTs: {resubmit_s * 1e3:.1f}ms, {per_cell:g} store lookups per cell",
    )
    record(
        ARTIFACT,
        "warm-resubmit",
        {
            "cells": cells,
            "records": DELTA_RECORDS,
            "resubmits": RESUBMITS,
            "lookups_per_cell": per_cell,
            "resubmit_s": round(resubmit_s, 6),
        },
    )
    assert per_cell == 1, f"{per_cell} store lookups per posted cell (expected 1)"
