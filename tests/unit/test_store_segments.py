"""Tests for the segmented result store: rotation, index, CRC, migration.

The durability contract this file pins down:

* small stores stay bit-for-bit the legacy single-file layout (no sidecars);
* rotation seals CRC-checksummed segments and the sidecar index makes
  lookups O(1) — and the index is *advisory*: deleting or staling it only
  costs a rebuild, never an answer;
* per-record corruption degrades to a cache miss (recompute-and-supersede),
  never to garbage served;
* legacy stores read transparently and ``migrate()`` round-trips records
  bit-identically;
* several OS processes can share one store under the flock protocol
  without losing records (the multi-writer satellite).
"""

import json
import multiprocessing
import os

import pytest

from repro.experiments import faults
from repro.experiments.store import (
    DEFAULT_ROTATE_BYTES,
    ResultStore,
    StoreError,
    canonical_json,
)


def _record(key, value=0, pad=0):
    record = {"key": key, "status": "ok", "value": value}
    if pad:
        record["pad"] = "x" * pad
    return record


def _fill(store, count, pad=40, prefix="k"):
    for i in range(count):
        store.put(_record(f"{prefix}{i}", i, pad=pad))


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.reset()
    yield
    faults.reset()


class TestLegacyCompatibility:
    def test_small_stores_never_grow_sidecars(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        _fill(store, 10)
        assert sorted(os.listdir(tmp_path)) == ["results.jsonl", "results.jsonl.lock"]
        # The tail is plain legacy JSONL: every line parses directly.
        with open(store.path, "rb") as handle:
            for line in handle.read().strip().split(b"\n"):
                assert json.loads(line)["key"].startswith("k")

    def test_rotation_disabled_with_none(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=None)
        _fill(store, 50, pad=200)
        assert not os.path.exists(store.segments_dir)
        assert len(ResultStore(store.path)) == 50

    def test_rejects_bad_rotate_bytes(self, tmp_path):
        with pytest.raises(StoreError):
            ResultStore(str(tmp_path / "r.jsonl"), rotate_bytes=0)

    def test_default_rotate_threshold_is_sane(self):
        assert DEFAULT_ROTATE_BYTES >= 1024 * 1024


class TestRotation:
    def test_rotation_seals_segments_and_keeps_every_record(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=512)
        _fill(store, 50)
        info = store.info()
        assert info["segments"], "rotation never happened"
        assert info["keys"] == 50
        reopened = ResultStore(store.path, rotate_bytes=512)
        assert len(reopened) == 50
        for i in range(50):
            assert reopened.get(f"k{i}") == _record(f"k{i}", i, pad=40)

    def test_sealed_lines_are_crc_wrapped(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=256)
        _fill(store, 20)
        name = store.info()["segments"][0]
        with open(os.path.join(store.segments_dir, name), "rb") as handle:
            meta_line, first, *_ = handle.read().split(b"\n")
        meta = json.loads(meta_line)["seg"]
        assert meta["format"] == 2 and ":" in meta["owner"]
        wrapper = json.loads(first)
        assert set(wrapper) == {"c", "r"} and isinstance(wrapper["c"], int)

    def test_force_rotate_seals_any_size(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        _fill(store, 3)
        assert store.rotate(force=True) is not None
        assert store.info()["tail_records"] == 0
        assert len(ResultStore(store.path)) == 3

    def test_rotate_below_threshold_is_a_no_op(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        _fill(store, 3)
        assert store.rotate() is None
        assert not os.path.exists(store.segments_dir)

    def test_appends_after_rotation_win_over_sealed_records(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        store.put(_record("hot", 1))
        store.rotate(force=True)
        store.put(_record("hot", 2))
        assert store.get("hot")["value"] == 2
        assert ResultStore(store.path).get("hot")["value"] == 2
        assert len(ResultStore(store.path)) == 1


class TestIndex:
    def _segmented(self, tmp_path, count=50):
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=512)
        _fill(store, count)
        assert store.info()["segments"]
        return store

    def test_index_is_fresh_after_rotation(self, tmp_path):
        store = self._segmented(tmp_path)
        assert ResultStore(store.path, rotate_bytes=512).info()["index"] == "fresh"

    def test_deleted_index_is_rebuilt_and_persisted(self, tmp_path):
        store = self._segmented(tmp_path)
        os.unlink(store.index_path)
        fresh = ResultStore(store.path, rotate_bytes=512)
        assert fresh.get("k7")["value"] == 7
        assert os.path.exists(store.index_path)
        assert ResultStore(store.path, rotate_bytes=512).info()["index"] == "fresh"

    def test_stale_index_is_detected_and_rebuilt(self, tmp_path):
        store = self._segmented(tmp_path)
        with open(store.index_path, "rb") as handle:
            index = json.loads(handle.read())
        index["segments"] = index["segments"][:-1]  # lie about the disk
        with open(store.index_path, "w") as handle:
            handle.write(canonical_json(index))
        fresh = ResultStore(store.path, rotate_bytes=512)
        assert fresh.info()["index"] == "fresh"  # info reloads post-rebuild
        assert all(fresh.get(f"k{i}") is not None for i in range(50))

    def test_corrupt_index_file_is_rebuilt(self, tmp_path):
        store = self._segmented(tmp_path)
        with open(store.index_path, "wb") as handle:
            handle.write(b"not json{{{")
        fresh = ResultStore(store.path, rotate_bytes=512)
        assert all(fresh.get(f"k{i}") is not None for i in range(50))

    def test_indexed_lookups_match_the_full_scan(self, tmp_path):
        store = self._segmented(tmp_path)
        # The reference never consults the index: records() CRC-checks every
        # line of every sealed segment, then overlays the tail.
        full_scan = {record["key"]: record for record in store.records()}
        assert len(full_scan) == 50
        # The writer that sealed the records and a fresh open both serve them
        # through the index alone.
        for indexed in (store, ResultStore(store.path, rotate_bytes=512)):
            assert sorted(indexed.keys()) == sorted(full_scan)
            assert len(indexed) == len(full_scan)
            for key, record in full_scan.items():
                assert indexed.get(key) == record


class TestCorruptionSelfHealing:
    def _corrupt_one_byte(self, store):
        name = store.info()["segments"][0]
        path = os.path.join(store.segments_dir, name)
        with open(path, "rb") as handle:
            raw = bytearray(handle.read())
        raw[len(raw) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(raw))

    def test_crc_mismatch_degrades_to_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=512)
        _fill(store, 50)
        self._corrupt_one_byte(store)
        fresh = ResultStore(store.path, rotate_bytes=512)
        missing = [f"k{i}" for i in range(50) if fresh.get(f"k{i}") is None]
        assert len(missing) == 1  # exactly the record the flipped byte hit
        served = [f"k{i}" for i in range(50) if f"k{i}" not in missing]
        for key in served:
            assert fresh.get(key)["key"] == key  # everyone else intact

    def test_recomputed_record_supersedes_the_corrupt_one(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=512)
        _fill(store, 50)
        self._corrupt_one_byte(store)
        fresh = ResultStore(store.path, rotate_bytes=512)
        missing = [f"k{i}" for i in range(50) if fresh.get(f"k{i}") is None]
        fresh.put(_record(missing[0], 999, pad=40))  # the "recompute"
        assert fresh.get(missing[0])["value"] == 999
        assert ResultStore(store.path).get(missing[0])["value"] == 999

    def test_verify_reports_and_repair_heals(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=512)
        _fill(store, 50)
        assert store.verify()["ok"]
        self._corrupt_one_byte(store)
        damaged = ResultStore(store.path, rotate_bytes=512)
        report = damaged.verify()
        assert not report["ok"] and report["corrupt_records"] == 1
        repaired = damaged.verify(repair=True)
        assert repaired["repaired"] and repaired["corrupt_dropped"] == 1
        final = ResultStore(store.path, rotate_bytes=512)
        assert final.verify()["ok"]
        assert len(final) == 49  # the corrupt record is gone, not resurrected

    def test_repair_heals_a_truncated_segment(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=512)
        _fill(store, 50)
        name = store.info()["segments"][0]
        path = os.path.join(store.segments_dir, name)
        with open(path, "rb+") as handle:
            handle.truncate(os.path.getsize(path) - 17)  # tear the last record
        damaged = ResultStore(store.path, rotate_bytes=512)
        assert not damaged.verify()["ok"]
        damaged.verify(repair=True)
        assert ResultStore(store.path, rotate_bytes=512).verify()["ok"]

    def test_verify_flags_a_torn_tail(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        _fill(store, 3)
        with open(store.path, "ab") as handle:
            handle.write(b'{"key": "torn')
        report = ResultStore(store.path).verify()
        assert not report["ok"] and report["tail_torn_lines"] == 1
        ResultStore(store.path).verify(repair=True)
        assert ResultStore(store.path).verify()["ok"]


class TestRecoverStaysShallow:
    def test_recover_drops_tail_lines_and_heals_the_index(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=512)
        _fill(store, 50)
        with open(store.path, "ab") as handle:
            handle.write(b'{"key": "torn-partial')
        os.unlink(store.index_path)
        fresh = ResultStore(store.path, rotate_bytes=512)
        assert fresh.recover() == 1  # only the torn tail line counts
        assert os.path.exists(store.index_path)  # freshness check rebuilt it
        assert len(fresh) == 50
        assert fresh.recover() == 0

    def test_recover_does_not_drop_corrupt_sealed_records(self, tmp_path):
        """recover() is shallow by contract: segment damage heals lazily at
        fetch time, so resume cost stays independent of store size."""
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=512)
        _fill(store, 50)
        name = store.info()["segments"][0]
        path = os.path.join(store.segments_dir, name)
        with open(path, "rb") as handle:
            raw = bytearray(handle.read())
        raw[len(raw) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        fresh = ResultStore(store.path, rotate_bytes=512)
        assert fresh.recover() == 0
        with open(path, "rb") as handle:
            assert handle.read() == bytes(raw)  # segment untouched


class TestMigration:
    def _legacy_store(self, tmp_path, count=30):
        """A store laid out exactly as the pre-segment format wrote it."""
        path = str(tmp_path / "legacy.jsonl")
        with open(path, "w") as handle:
            for i in range(count):
                handle.write(canonical_json(_record(f"c{i}", i, pad=25)) + "\n")
        return path

    def test_legacy_stores_read_transparently(self, tmp_path):
        path = self._legacy_store(tmp_path)
        store = ResultStore(path)
        assert len(store) == 30
        assert store.get("c4") == _record("c4", 4, pad=25)
        assert store.info()["segments"] == []

    def test_migrate_round_trips_records_bit_identically(self, tmp_path):
        path = self._legacy_store(tmp_path)
        before = {
            record["key"]: canonical_json(record)
            for record in ResultStore(path).records()
        }
        info = ResultStore(path).migrate()
        assert info["segments"] and info["index"] == "fresh"
        assert info["tail_records"] == 0
        migrated = ResultStore(path)
        after = {
            record["key"]: canonical_json(record) for record in migrated.records()
        }
        assert after == before
        for key, encoded in before.items():
            assert canonical_json(migrated.get(key)) == encoded

    def test_migrate_is_idempotent(self, tmp_path):
        path = self._legacy_store(tmp_path)
        first = ResultStore(path).migrate()
        second = ResultStore(path).migrate()
        assert second["segments"] == first["segments"]
        assert second["keys"] == first["keys"] == 30

    def test_appends_after_migration_land_in_the_tail(self, tmp_path):
        path = self._legacy_store(tmp_path)
        ResultStore(path).migrate()
        store = ResultStore(path)
        store.put(_record("new", 1))
        assert store.info()["tail_records"] == 1
        assert ResultStore(path).get("new") == _record("new", 1)


class TestSegmentedCompaction:
    def test_compact_collapses_small_segmented_stores_to_legacy(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=512)
        for i in range(50):
            store.put(_record(f"k{i % 10}", i, pad=40))
        assert store.info()["segments"]
        collapsed = ResultStore(store.path, rotate_bytes=None)
        assert collapsed.compact() == 40
        assert not os.path.exists(store.segments_dir)
        assert not os.path.exists(store.index_path)
        final = ResultStore(store.path)
        assert len(final) == 10
        assert final.get("k3")["value"] == 43  # newest per key won

    def test_compact_reseal_numbers_new_segments_after_old(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=512)
        for i in range(100):
            store.put(_record(f"k{i % 40}", i, pad=40))
        old = set(store.info()["segments"])
        compactor = ResultStore(store.path, rotate_bytes=512)
        assert compactor.compact() > 0
        new = set(compactor.info()["segments"])
        assert new and not (new & old)
        # A crash mid-compaction would leave old+new mixed: new names sort
        # after every old name, so newest records still win the scan order.
        assert min(new) > max(old)
        final = ResultStore(store.path, rotate_bytes=512)
        assert len(final) == 40
        assert final.get("k0")["value"] == 80
        assert final.compact() == 0  # idempotent


class TestStorageFaultInjection:
    def test_torn_write_loses_exactly_that_record(self, tmp_path):
        faults.mark_storage("torn-write@store.append:2")
        store = ResultStore(str(tmp_path / "results.jsonl"))
        store.put(_record("a"))
        store.put(_record("b"))  # torn mid-line
        store.put(_record("c"))  # folds a newline over the fragment
        assert "b" not in store  # the writer does not lie to itself either
        fresh = ResultStore(store.path)
        assert sorted(fresh.keys()) == ["a", "c"]
        assert fresh.recover() == 1

    def test_corrupt_segment_at_seal_is_caught_by_verify(self, tmp_path):
        faults.mark_storage("corrupt-segment@store.seal:1")
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=256)
        _fill(store, 20)
        faults.reset()
        report = ResultStore(store.path, rotate_bytes=256).verify()
        assert not report["ok"] and report["corrupt_records"] >= 1
        ResultStore(store.path, rotate_bytes=256).verify(repair=True)
        assert ResultStore(store.path, rotate_bytes=256).verify()["ok"]

    def test_partial_fsync_tears_the_segment_end(self, tmp_path):
        faults.mark_storage("partial-fsync@store.seal:1")
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=256)
        _fill(store, 20)
        faults.reset()
        report = ResultStore(store.path, rotate_bytes=256).verify()
        assert not report["ok"]
        ResultStore(store.path, rotate_bytes=256).verify(repair=True)
        assert ResultStore(store.path, rotate_bytes=256).verify()["ok"]

    def test_stale_index_heals_on_next_open(self, tmp_path):
        faults.mark_storage("stale-index@store.rotate:*")
        store = ResultStore(str(tmp_path / "results.jsonl"), rotate_bytes=256)
        _fill(store, 20)
        faults.reset()
        # Every index write was suppressed, so the sidecar never landed ...
        assert store.info()["segments"]
        assert not os.path.exists(store.index_path)
        # ... and the next open self-heals: rebuild, serve, persist.
        fresh = ResultStore(store.path, rotate_bytes=256)
        assert all(fresh.get(f"k{i}") is not None for i in range(20))
        assert ResultStore(store.path, rotate_bytes=256).info()["index"] == "fresh"

    def test_no_faults_without_a_mark(self, tmp_path):
        faults.install_plan(faults.parse_plan("torn-write@store.append:1"))
        store = ResultStore(str(tmp_path / "results.jsonl"))
        store.put(_record("a"))
        assert ResultStore(store.path).get("a") == _record("a")


def _mp_put_many(path, prefix, count, rotate_bytes):
    store = ResultStore(path, rotate_bytes=rotate_bytes)
    store.put_many([_record(f"{prefix}-{i}", i, pad=30) for i in range(count)])


def _mp_compact_loop(path, rounds, rotate_bytes):
    store = ResultStore(path, rotate_bytes=rotate_bytes)
    for _ in range(rounds):
        store.compact()
        store.reload()


def _mp_append_hot_keys(path, count, rotate_bytes):
    store = ResultStore(path, rotate_bytes=rotate_bytes)
    for i in range(count):
        store.put(_record(f"hot-{i % 5}", i, pad=30))


class TestMultiWriterProcesses:
    """Several OS processes sharing one store under the flock protocol."""

    def _run_all(self, processes):
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60.0)
        assert all(process.exitcode == 0 for process in processes)

    def test_two_processes_interleave_put_many_without_loss(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        ctx = multiprocessing.get_context("spawn")
        self._run_all(
            [
                ctx.Process(target=_mp_put_many, args=(path, "alpha", 60, 1024)),
                ctx.Process(target=_mp_put_many, args=(path, "beta", 60, 1024)),
            ]
        )
        final = ResultStore(path, rotate_bytes=1024)
        expected = sorted(
            [f"alpha-{i}" for i in range(60)] + [f"beta-{i}" for i in range(60)]
        )
        assert sorted(final.keys()) == expected
        assert final.verify()["ok"] or final.verify()["index"] in ("stale", "missing")
        for i in range(60):
            assert final.get(f"alpha-{i}")["value"] == i
            assert final.get(f"beta-{i}")["value"] == i

    def test_compaction_racing_a_live_appender_loses_nothing(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        seed = ResultStore(path, rotate_bytes=None)
        for i in range(30):
            seed.put(_record(f"hot-{i % 5}", i, pad=30))
        ctx = multiprocessing.get_context("spawn")
        self._run_all(
            [
                ctx.Process(target=_mp_append_hot_keys, args=(path, 80, None)),
                ctx.Process(target=_mp_compact_loop, args=(path, 15, None)),
            ]
        )
        final = ResultStore(path)
        # No record loss: every hot key survives, and last-write-wins holds
        # (the appender's final values are 75..79 for hot-0..hot-4).
        assert sorted(final.keys()) == [f"hot-{i}" for i in range(5)]
        for i in range(5):
            assert final.get(f"hot-{i}")["value"] == 75 + i
        final.compact()
        assert sorted(ResultStore(path).keys()) == [f"hot-{i}" for i in range(5)]
