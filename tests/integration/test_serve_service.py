"""Integration tests for the serve service's system-level invariants.

* Two concurrent clients POSTing *overlapping* grids execute each distinct
  cell exactly once (the scheduler dedup + sequential job draining), and
  the records match a serial :func:`run_sweep` byte-for-byte (minus
  wall-clock fields).
* ``/results`` stays correct with the advisory index deleted, and a
  damaged (torn/corrupt) tail record degrades to recompute-and-supersede
  instead of a wrong answer — the store-level PR 9 semantics surfaced over
  HTTP.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments import ResultStore, expand_grid, run_sweep
from repro.experiments.cli import main as cli_main
from repro.experiments.reporting import DEFAULT_REPORT_METRICS, cell_records, report_payload
from repro.experiments.serve import SweepService
from repro.obs import metrics as obs_metrics
from repro.obs.collect import registry_baseline, registry_delta


@pytest.fixture()
def service(tmp_path):
    svc = SweepService(str(tmp_path / "results.jsonl"))
    host, port = svc.start("127.0.0.1", 0)
    svc.base = f"http://{host}:{port}"
    try:
        yield svc
    finally:
        svc.stop()


def _get(svc, path):
    try:
        with urllib.request.urlopen(svc.base + path, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(svc, payload):
    request = urllib.request.Request(
        svc.base + "/sweeps",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def _wait_done(svc, sweep_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _, body = _get(svc, f"/sweeps/{sweep_id}")
        if body["status"] in ("done", "failed"):
            return body
        time.sleep(0.05)
    raise AssertionError(f"sweep {sweep_id} never finished")


SPEC_A = {
    "scenarios": ["line-flood"],
    "adversaries": ["earliest", "latest"],
    "seeds": [0, 1],
    "horizon": 4,
}
SPEC_B = {
    "scenarios": ["line-flood"],
    "adversaries": ["latest", "random"],  # `latest` x {0,1} overlaps SPEC_A
    "seeds": [0, 1],
    "horizon": 4,
}


def _strip(record):
    return {k: v for k, v in record.items() if k not in ("duration_s", "cached")}


def test_concurrent_overlapping_sweeps_execute_each_cell_exactly_once(
    service, tmp_path
):
    union_keys = {
        cell.key()
        for spec in (SPEC_A, SPEC_B)
        for cell in expand_grid(
            spec["scenarios"],
            adversaries=spec["adversaries"],
            seeds=spec["seeds"],
            horizon=spec["horizon"],
        )
    }
    overlap = 2  # latest x seeds {0, 1}
    assert len(union_keys) == 6

    baseline = registry_baseline()
    accepted = []
    errors = []

    def client(spec):
        try:
            accepted.append(_post(service, spec))
        except Exception as exc:  # noqa: BLE001 - surfaced via the assert below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(spec,)) for spec in (SPEC_A, SPEC_B)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    finals = [_wait_done(service, body["sweep"]) for body in accepted]
    assert all(final["status"] == "done" for final in finals)
    assert all(final["cells"]["errors"] == 0 for final in finals)

    # Exactly-once across both clients: the union executed, the overlap
    # served as cache hits to whichever job ran second.
    delta = registry_delta(baseline)["counters"]
    assert delta.get("sweep.cells_executed", 0) == len(union_keys)
    assert delta.get("sweep.cells_cached", 0) == overlap
    executed = sum(final["cells"]["executed"] for final in finals)
    cached = sum(final["cells"]["cached"] for final in finals)
    assert executed == len(union_keys)
    assert cached == overlap

    # The store holds exactly one record per distinct cell...
    store = ResultStore(service.store_path)
    served = {
        record["key"]: _strip(record)
        for record in store.records()
        if record.get("status") == "ok"
    }
    assert set(served) == union_keys

    # ... identical to a serial sweep of the same union on a fresh store.
    serial_store = ResultStore(str(tmp_path / "serial.jsonl"))
    cells = [
        cell
        for spec in (SPEC_A, SPEC_B)
        for cell in expand_grid(
            spec["scenarios"],
            adversaries=spec["adversaries"],
            seeds=spec["seeds"],
            horizon=spec["horizon"],
        )
    ]
    outcome = run_sweep(cells, store=serial_store, backend="serial")
    assert outcome.errors == 0
    serial = {
        record["key"]: _strip(record)
        for record in outcome.records
        if record.get("status") == "ok"
    }
    assert served == serial


def test_results_survive_index_deletion_and_recompute_damaged_records(service):
    body = _post(
        service,
        {
            "scenarios": ["line-flood"],
            "adversaries": ["earliest"],
            "seeds": 2,
            "horizon": 4,
        },
    )
    _wait_done(service, body["sweep"])
    store = ResultStore(service.store_path)
    keys = sorted(
        record["key"] for record in store.records() if record.get("status") == "ok"
    )
    assert len(keys) == 2

    # The index is advisory: /results must stay correct without it.
    import os

    if os.path.exists(store.index_path):
        os.unlink(store.index_path)
    status, record = _get(service, f"/results/{keys[0]}")
    assert status == 200
    assert record["key"] == keys[0]

    # Damage the tail line of a known cell: the parse-or-drop read makes it
    # a miss, and serve degrades to recompute-and-supersede (never a wrong
    # or half-parsed record).
    victim = keys[1]
    with open(service.store_path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    damaged = [
        line if victim not in line else '{"torn": \n' for line in lines
    ]
    assert damaged != lines
    with open(service.store_path, "w", encoding="utf-8") as handle:
        handle.writelines(damaged)

    recomputes_before = obs_metrics.registry().snapshot()["counters"].get(
        "serve.recomputes", 0
    )
    status, record = _get(service, f"/results/{victim}")
    assert status == 200
    assert record["key"] == victim
    assert record["status"] == "ok"
    after = obs_metrics.registry().snapshot()["counters"]["serve.recomputes"]
    assert after == recomputes_before + 1

    # The recompute superseded the damaged line: the next read is a plain
    # store hit again.
    assert ResultStore(service.store_path).get(victim)["status"] == "ok"


GROUPINGS = ("scenario,adversary", "adversary", "seed")


def _reference_groups(path, group_by, keys=None):
    records = cell_records(ResultStore(path).records())
    if keys is not None:
        records = [record for record in records if record["key"] in keys]
    return len(records), report_payload(records, group_by.split(","), DEFAULT_REPORT_METRICS)


def _assert_reports_match_a_fresh_scan(svc, sweeps):
    for sweep in (None, *sweeps):
        keys = None
        if sweep is not None:
            keys = {cell.key() for cell in svc.job(sweep).cells}
        for group_by in GROUPINGS:
            query = f"/report?group_by={group_by}" + (f"&sweep={sweep}" if sweep else "")
            status, body = _get(svc, query)
            assert status == 200
            count, groups = _reference_groups(svc.store_path, group_by, keys)
            assert body["records"] == count, (query, body["records"], count)
            assert json.dumps(body["groups"], sort_keys=True) == json.dumps(
                groups, sort_keys=True
            ), query


def test_report_stays_identical_to_a_fresh_scan_across_store_mutations(tmp_path):
    """The delta-refreshed view and its report memo against a full re-scan,
    after every kind of change a store can see while a service reads it."""
    path = str(tmp_path / "results.jsonl")
    svc = SweepService(path, rotate_bytes=4096)
    host, port = svc.start("127.0.0.1", 0)
    svc.base = f"http://{host}:{port}"
    try:
        first = _post(svc, {**SPEC_A, "seeds": [0, 1, 2]})
        _wait_done(svc, first["sweep"])
        sweeps = [first["sweep"]]
        _assert_reports_match_a_fresh_scan(svc, sweeps)  # startup: the cold memo

        # Own appends: a second sweep's runner writes new cells and telemetry.
        second = _post(svc, SPEC_B)
        _wait_done(svc, second["sweep"])
        sweeps.append(second["sweep"])
        _assert_reports_match_a_fresh_scan(svc, sweeps)

        # An external writer supersedes keys with different analyses.  The
        # fractional values make a group's float sums depend on row order,
        # which the report must keep.
        external = ResultStore(path, rotate_bytes=None)
        victims = [r for r in external.records() if r.get("status") == "ok"][:3]
        for victim, fraction in zip(victims, (0.1, 0.2, 0.7)):
            analyses = json.loads(json.dumps(victim["analyses"]))
            analyses["summary"]["sends"] += 1000 + fraction
            external.put({**victim, "analyses": analyses})
        _assert_reports_match_a_fresh_scan(svc, sweeps)

        # A rotation by another store seals the tail into a segment.
        assert ResultStore(path, rotate_bytes=4096).rotate(force=True) is not None
        _assert_reports_match_a_fresh_scan(svc, sweeps)

        # Compaction drops the superseded record.
        assert ResultStore(path, rotate_bytes=4096).compact() >= 1
        _assert_reports_match_a_fresh_scan(svc, sweeps)

        # An in-place write damages a sealed cell record (same inode, same
        # size, a later mtime): the record fails its CRC and drops out,
        # then `repro store verify --repair` rewrites the segment without it.
        store = ResultStore(path, rotate_bytes=4096)
        store.rotate(force=True)
        _assert_reports_match_a_fresh_scan(svc, sweeps)
        for name in store.info()["segments"]:
            segment = os.path.join(store.segments_dir, name)
            with open(segment, "r+b") as handle:
                raw = bytearray(handle.read())
                if b'"status":"ok"' not in raw:
                    continue  # telemetry only
                raw[raw.index(b'"status":"ok"') + 3] ^= 0xFF  # inside a cell's body
                handle.seek(0)
                handle.write(bytes(raw))
            break
        stat = os.stat(segment)
        os.utime(segment, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000))
        _assert_reports_match_a_fresh_scan(svc, sweeps)
        assert cli_main(["store", "verify", "--repair", "--store", path]) == 0
        _assert_reports_match_a_fresh_scan(svc, sweeps)

        status, cached = _get(svc, "/report?group_by=adversary")
        assert cached["served_from_cache"] is True
    finally:
        svc.stop()


@pytest.mark.parametrize(
    "group_by, clash", [("cells,scenario", "cells"), ("scenario,summary.sends", "summary.sends")]
)
def test_report_rejects_a_group_field_that_would_lose_its_value(service, group_by, clash):
    """A group field named like the ``cells`` count or a requested metric is
    a 400 naming the field, not a payload with the group value overwritten."""
    assert _post(service, SPEC_A)
    status, body = _get(service, f"/report?group_by={group_by}")
    assert status == 400
    assert body["field"] == "group_by"
    assert repr(clash) in body["error"]
    status, body = _get(service, "/report?group_by=scenario")
    assert status == 200


# ---------------------------------------------------------------------------
# The one job store: loaded once, refreshed before each job, one probe per
# posted cell.
# ---------------------------------------------------------------------------


def _lookups():
    return obs_metrics.registry().snapshot()["counters"].get("store.lookups", 0)


def _cells(spec):
    return expand_grid(
        spec["scenarios"],
        adversaries=spec["adversaries"],
        seeds=spec["seeds"],
        horizon=spec["horizon"],
    )


def test_reposts_load_the_job_store_once_and_probe_each_cell_once(service, monkeypatch):
    loads = []
    real_load = ResultStore._ensure_loaded

    def counting_load(store):
        if not store._loaded:
            loads.append(store)
        real_load(store)

    # A tail that exists before the first job: the job store's first load
    # sees it, so no later refresh finds a new tail file to reload.
    ResultStore(service.store_path).put({"key": "unrelated", "status": "ok"})
    monkeypatch.setattr(ResultStore, "_ensure_loaded", counting_load)
    cells = len(_cells(SPEC_A))
    for attempt in range(4):
        before = _lookups()
        body = _post(service, SPEC_A)
        final = _wait_done(service, body["sweep"])
        assert final["status"] == "done"
        # The job's scan is the only probe of each posted cell.
        assert _lookups() - before == cells
        if attempt:
            assert (final["cells"]["cached"], final["cells"]["executed"]) == (cells, 0)
    # One load for four jobs; submitting reads no store at all.
    assert loads == [service._job_store]


def test_a_job_store_opened_on_an_empty_path_loads_once_in_four_jobs(service, monkeypatch):
    loads = []
    real_load = ResultStore._ensure_loaded

    def counting_load(store):
        if not store._loaded:
            loads.append(store)
        real_load(store)

    # No tail file before the first job: the first job's appends create it,
    # and the next refreshes read them as a delta, not as a new file.
    assert not os.path.exists(service.store_path)
    monkeypatch.setattr(ResultStore, "_ensure_loaded", counting_load)
    cells = len(_cells(SPEC_A))
    for attempt in range(4):
        final = _wait_done(service, _post(service, SPEC_A)["sweep"])
        expected = (cells, 0) if attempt else (0, cells)
        assert (final["cells"]["cached"], final["cells"]["executed"]) == expected
    assert loads == [service._job_store]


def test_an_external_sweep_between_jobs_is_cached_by_the_next_job(service):
    first = _post(service, SPEC_A)
    _wait_done(service, first["sweep"])  # the job store is loaded
    outcome = run_sweep(_cells(SPEC_B), store=ResultStore(service.store_path), backend="serial")
    assert (outcome.executed, outcome.cached) == (2, 2)  # `random` is new
    body = _post(service, SPEC_B)
    final = _wait_done(service, body["sweep"])
    assert (final["cells"]["cached"], final["cells"]["executed"]) == (4, 0)


def _flip_sealed_record(path, key):
    """Flip one byte inside the sealed record of ``key``, in place."""
    segments = path + ".segments"
    needle = f'"key":"{key}"'.encode("utf-8")
    for name in sorted(os.listdir(segments)):
        with open(os.path.join(segments, name), "r+b") as handle:
            raw = bytearray(handle.read())
            at = raw.find(needle)
            if at < 0:
                continue
            raw[at + len(needle) + 20] ^= 0xFF
            handle.seek(0)
            handle.write(bytes(raw))
            return
    raise AssertionError(f"{key} is not sealed")


@pytest.mark.parametrize("change", ["compact", "flip"])
def test_the_next_job_is_exact_after_an_external_compaction_or_damage(tmp_path, change):
    path = str(tmp_path / "results.jsonl")
    svc = SweepService(path, rotate_bytes=4096)
    host, port = svc.start("127.0.0.1", 0)
    svc.base = f"http://{host}:{port}"
    try:
        for spec in (SPEC_A, SPEC_B):
            _wait_done(svc, _post(svc, spec)["sweep"])
        keys = sorted(cell.key() for cell in _cells(SPEC_A))
        originals = {key: _strip(ResultStore(path).get(key)) for key in keys}
        victim = keys[0]
        ResultStore(path, rotate_bytes=4096).rotate(force=True)  # seal every cell
        if change == "compact":
            external = ResultStore(path, rotate_bytes=4096)
            external.put(ResultStore(path).get(keys[1]))  # a duplicate to drop
            assert external.compact() >= 1
            expected = (4, 0)
        else:
            _flip_sealed_record(path, victim)
            expected = (3, 1)  # the damaged cell recomputes

        final = _wait_done(svc, _post(svc, SPEC_A)["sweep"])
        assert (final["cells"]["cached"], final["cells"]["executed"]) == expected
        for key in keys:
            status, record = _get(svc, f"/results/{key}")
            assert status == 200
            assert _strip(record) == originals[key]
            assert _strip(ResultStore(path).get(key)) == originals[key]
    finally:
        svc.stop()
