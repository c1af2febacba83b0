"""Benchmarks for the segmented result store (PR 9).

The sidecar index exists for one reason: resuming a large sweep must not
re-parse the whole store just to learn which cells are already done.  This
bench builds a ~10^4-record segmented store (~1 KiB per record, so tens of
sealed segments) and times the *resume probe* — a cold open followed by a
membership check for every cell — through the O(1) index against the same
cold open followed by a full CRC-verifying scan of every record
(``iter_records``) and the same membership checks against the scanned keys.
The acceptance gate is a >= 5x speedup;
``scripts/check_bench_regression.py`` ratio-gates the recorded number
against the committed baseline so the win cannot silently erode.

Both probes are timed with the cyclic garbage collector off (as ``timeit``
does), after one untimed warm-up of each, in interleaved repetitions whose
per-side medians make the speedup.  A single shot inside a full ``pytest
benchmarks/`` run used to read 3-4x: one full collection traversing the
objects earlier benchmarks left alive landed in the ~9 ms indexed probe
and tripled it, a cost of the test process's heap and not of the store.

Sealing throughput (``migrate()`` on the same store) is recorded as an
ungated absolute timing, and the deterministic layout counters (records,
segments) are gated exactly — they drift only when the workload itself
changes.
"""

import time
from pathlib import Path

from _bench_utils import interleaved_medians, record, report

from repro.experiments.store import ResultStore

ARTIFACT = Path(__file__).resolve().parent / "BENCH_store.json"

RECORDS = 10_000
PAD = 900  # ~1 KiB per JSONL line once keyed and wrapped
ROTATE_BYTES = 256 * 1024  # tens of segments at ~1 KiB per record
PROBES = 2_000
REPETITIONS = 5  # timed runs of each probe, interleaved
REQUIRED_SPEEDUP = 5.0


def _key(i):
    return f"bench-{i:08d}"


def _build_store(path):
    store = ResultStore(path, rotate_bytes=ROTATE_BYTES)
    store.put_many(
        [
            {"key": _key(i), "status": "ok", "value": i, "pad": "x" * PAD}
            for i in range(RECORDS)
        ]
    )
    return store


def _probe(path, keys):
    """The resume scan's store half: cold open + one membership per cell."""
    started = time.perf_counter()
    store = ResultStore(path, rotate_bytes=ROTATE_BYTES)
    hits = sum(1 for key in keys if key in store)
    return time.perf_counter() - started, hits


def _probe_full_scan(path, keys):
    """The reference: cold open, scan every record, then the same probes."""
    started = time.perf_counter()
    scanned = {record["key"] for record in ResultStore(path).iter_records()}
    hits = sum(1 for key in keys if key in scanned)
    return time.perf_counter() - started, hits


def test_bench_resume_probe_indexed_vs_full_scan(tmp_path):
    path = str(tmp_path / "results.jsonl")
    store = _build_store(path)
    seal_started = time.perf_counter()
    info = store.migrate()  # seal the tail so every record is segment-resident
    seal_s = time.perf_counter() - seal_started
    assert info["tail_records"] == 0
    assert info["index"] == "fresh"
    segments = len(info["segments"])
    assert segments >= 10

    probe_keys = [_key(i) for i in range(0, RECORDS, RECORDS // PROBES)]
    probe_keys += [f"missing-{i}" for i in range(len(probe_keys) // 10)]

    (indexed_s, indexed_hits), (fullscan_s, fullscan_hits) = interleaved_medians(
        [lambda: _probe(path, probe_keys), lambda: _probe_full_scan(path, probe_keys)],
        REPETITIONS,
    )
    assert indexed_hits == fullscan_hits == PROBES

    speedup = fullscan_s / indexed_s if indexed_s > 0 else float("inf")
    report(
        "Segmented store: indexed resume probe vs full scan",
        "no measurement in the paper (harness cost)",
        f"{RECORDS} records / {segments} segments, {len(probe_keys)} probes: "
        f"full scan {fullscan_s * 1e3:.1f}ms, indexed {indexed_s * 1e3:.1f}ms "
        f"({speedup:.0f}x)",
    )
    record(
        ARTIFACT,
        "resume-probe",
        {
            "records": RECORDS,
            "segments": segments,
            "probes": len(probe_keys),
            "seal_s": round(seal_s, 6),
            "fullscan_probe_s": round(fullscan_s, 6),
            "indexed_probe_s": round(indexed_s, 6),
            "probe_speedup": round(speedup, 1),
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"indexed resume probe only {speedup:.1f}x faster than the full scan "
        f"(required >= {REQUIRED_SPEEDUP}x)"
    )
