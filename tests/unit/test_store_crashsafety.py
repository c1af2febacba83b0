"""Crash-safety tests for the result store.

The store is the source of truth for resumable sweeps, so this file pins the
three guarantees resume relies on: appends are single atomic writes (a crash
tears at most the final line), :meth:`ResultStore.recover` drops torn tails
via an atomic temp-file + rename rewrite, and compaction/recovery are
idempotent.
"""

import contextlib
import errno
import json
import os

import pytest

from repro.experiments import ResultStore, StoreError


def _record(key, value=0):
    return {"key": key, "status": "ok", "value": value}


def _raw_lines(path):
    with open(path, "rb") as handle:
        return handle.read().split(b"\n")


def _segment_seal(tmp_path):
    """``rotate()`` seals the tail into a segment before emptying the tail."""
    store = ResultStore(str(tmp_path / "results.jsonl"))
    store.put(_record("a"))
    store.put(_record("b"))
    return store, store.path, lambda: store.rotate(force=True)


def _index_write(tmp_path):
    """A fresh open rebuilds a corrupt index and writes it (best-effort)."""
    store = ResultStore(str(tmp_path / "results.jsonl"))
    store.put(_record("a"))
    store.rotate(force=True)
    with open(store.index_path, "wb") as handle:
        handle.write(b"not json{{{")
    return store, store.index_path, lambda: ResultStore(store.path).info()


class TestTornTailRecovery:
    def _store_with_torn_tail(self, tmp_path, records=3):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        for i in range(records):
            store.put(_record(f"k{i}", i))
        with open(store.path, "ab") as handle:
            handle.write(b'{"key": "torn-partial-rec')  # kill -9 mid-append
        return ResultStore(store.path)

    def test_torn_tail_ignored_on_load(self, tmp_path):
        store = self._store_with_torn_tail(tmp_path)
        assert len(store) == 3
        assert store.get("k1") == _record("k1", 1)

    def test_recover_drops_exactly_the_torn_tail(self, tmp_path):
        store = self._store_with_torn_tail(tmp_path)
        assert store.recover() == 1
        assert len(store) == 3
        # The file itself is clean again: parseable, newline-terminated.
        raw = open(store.path, "rb").read()
        assert raw.endswith(b"\n")
        for line in raw.strip().split(b"\n"):
            json.loads(line)

    def test_recover_is_idempotent(self, tmp_path):
        store = self._store_with_torn_tail(tmp_path)
        assert store.recover() == 1
        assert store.recover() == 0
        assert store.recover() == 0

    def test_recover_on_clean_store_rewrites_nothing(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        store.put(_record("a"))
        mtime = os.stat(store.path).st_mtime_ns
        assert store.recover() == 0
        assert os.stat(store.path).st_mtime_ns == mtime

    def test_recover_missing_file(self, tmp_path):
        store = ResultStore(str(tmp_path / "absent.jsonl"))
        assert store.recover() == 0

    def test_recover_drops_interior_corruption_too(self, tmp_path):
        path = tmp_path / "results.jsonl"
        lines = [
            json.dumps(_record("a")),
            "not json at all",
            json.dumps({"no-key": True}),
            json.dumps(_record("b")),
        ]
        path.write_text("\n".join(lines) + "\n")
        store = ResultStore(str(path))
        assert store.recover() == 2
        assert store.keys() == ("a", "b")

    def test_put_after_torn_tail_starts_a_fresh_line(self, tmp_path):
        store = self._store_with_torn_tail(tmp_path)
        store.put(_record("k3", 3))
        reloaded = ResultStore(store.path)
        assert reloaded.get("k3") == _record("k3", 3)
        assert len(reloaded) == 4  # torn fragment swallowed nothing


class TestAtomicWrites:
    def test_put_is_a_single_append_write(self, tmp_path, monkeypatch):
        """One record == one write(2): a crash can never interleave records."""
        store = ResultStore(str(tmp_path / "results.jsonl"))
        store.put(_record("warmup"))
        writes = []
        real_write = os.write

        def counting_write(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", counting_write)
        store.put(_record("observed"))
        assert len(writes) == 1
        assert writes[0].endswith(b"\n")
        json.loads(writes[0])

    def test_rewrite_leaves_no_temp_file(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        for i in range(3):
            store.put(_record("same-key", i))
        assert store.compact() == 2
        # Only the store and its advisory-lock sidecar remain: no temp file.
        assert sorted(os.listdir(tmp_path)) == ["results.jsonl", "results.jsonl.lock"]

    def test_failed_rewrite_preserves_the_original(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        for i in range(3):
            store.put(_record("same-key", i))
        before = open(store.path, "rb").read()

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            store.compact()
        monkeypatch.undo()
        assert open(store.path, "rb").read() == before  # old file intact
        assert sorted(os.listdir(tmp_path)) == [  # temp cleaned up
            "results.jsonl",
            "results.jsonl.lock",
        ]

    @pytest.mark.parametrize(
        "writer, raises",
        [(_segment_seal, True), (_index_write, False)],
        ids=["rotate", "index"],
    )
    def test_failed_seal_or_index_write_preserves_the_original(
        self, tmp_path, monkeypatch, writer, raises
    ):
        """The segment seal and the index write go through the tail
        rewrite's atomic writer: a failing ``os.replace`` leaves the
        target's bytes, every record, and no temp file behind."""
        store, path, write = writer(tmp_path)
        before = open(path, "rb").read()
        records = store.records()

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        # The index write is best-effort: its failure is swallowed.
        with pytest.raises(OSError) if raises else contextlib.nullcontext():
            write()
        monkeypatch.undo()
        assert open(path, "rb").read() == before  # old file intact
        leftovers = [
            name
            for _, _, names in os.walk(tmp_path)
            for name in names
            if name.endswith(".tmp")
        ]
        assert leftovers == []  # temp cleaned up
        assert ResultStore(store.path).records() == records

    def test_unwritable_index_still_serves_every_sealed_record(self, tmp_path, monkeypatch):
        """A read-only directory refuses the index's temp file: the writer
        and a fresh reader both serve every sealed record through locators
        held in memory, and the next open that can write the index does."""
        path = str(tmp_path / "results.jsonl")
        real_open = os.open

        def read_only_index(name, flags, *args):
            if ".index.json." in os.fspath(name) and flags & os.O_CREAT:
                raise PermissionError(errno.EACCES, "read-only directory", name)
            return real_open(name, flags, *args)

        monkeypatch.setattr(os, "open", read_only_index)
        writer = ResultStore(path, rotate_bytes=256)
        records = [_record(f"k{i}", i) for i in range(20)]
        writer.put_many(records)
        reader = ResultStore(path, rotate_bytes=256)
        for store in (writer, reader):
            assert store.info()["segments"]
            assert store.info()["index"] == "missing"
            for record in records:
                assert store.get(record["key"]) == record
        monkeypatch.undo()
        reopened = ResultStore(path, rotate_bytes=256)
        assert reopened.info()["index"] == "fresh"
        assert [reopened.get(record["key"]) for record in records] == records

    def test_rejects_keyless_records(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        with pytest.raises(StoreError):
            store.put({"status": "ok"})
        with pytest.raises(StoreError):
            store.put({"key": ""})


class TestCompactionIdempotence:
    def test_compact_drops_superseded_then_nothing(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        for i in range(5):
            store.put(_record("hot-key", i))
        store.put(_record("other"))
        assert store.compact() == 4
        assert store.compact() == 0
        reloaded = ResultStore(store.path)
        assert reloaded.get("hot-key") == _record("hot-key", 4)
        assert len(reloaded) == 2

    def test_compact_also_drops_torn_tail(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        store.put(_record("a"))
        with open(store.path, "ab") as handle:
            handle.write(b'{"torn')
        store = ResultStore(store.path)
        assert store.compact() == 1
        assert store.compact() == 0

    def test_compact_missing_file(self, tmp_path):
        assert ResultStore(str(tmp_path / "absent.jsonl")).compact() == 0


class TestAdvisoryLocking:
    """Advisory flock: appends and rewrites from multiple writers coexist."""

    def test_compact_keeps_records_from_other_writers(self, tmp_path):
        """A compacting process must not drop records another process
        appended after it last loaded its index."""
        path = str(tmp_path / "results.jsonl")
        ours = ResultStore(path)
        ours.put(_record("ours", 1))
        ours.put(_record("ours", 2))  # superseded: something to compact away
        assert len(ours) == 1

        theirs = ResultStore(path)  # a second writer sharing the file
        theirs.put(_record("theirs"))

        assert ours.compact() == 1  # drops only our superseded duplicate
        survivors = ResultStore(path)
        assert sorted(survivors.keys()) == ["ours", "theirs"]
        assert survivors.get("ours")["value"] == 2

    def test_recover_keeps_records_from_other_writers(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        ours = ResultStore(path)
        ours.put(_record("ours"))
        with open(path, "ab") as handle:
            handle.write(b'{"key": "torn-')  # torn tail from a killed writer
        theirs = ResultStore(path)
        # The other writer's append folds a newline over the torn fragment.
        theirs.put(_record("theirs"))

        assert ours.recover() == 1  # the torn fragment, nothing else
        assert sorted(ours.keys()) == ["ours", "theirs"]

    def test_append_blocks_while_rewrite_holds_the_lock(self, tmp_path):
        """A put() started during a compact() waits for the exclusive lock
        instead of interleaving with the rewrite."""
        import threading
        import time

        store = ResultStore(str(tmp_path / "results.jsonl"))
        store.put(_record("first"))

        entered = threading.Event()
        release = threading.Event()
        appended = threading.Event()

        def hold_exclusive():
            with store._locked(exclusive=True):
                entered.set()
                release.wait(timeout=5.0)

        def append_under_shared():
            entered.wait(timeout=5.0)
            # A separate handle, as a second process would use.
            ResultStore(store.path).put(_record("second"))
            appended.set()

        holder = threading.Thread(target=hold_exclusive)
        writer = threading.Thread(target=append_under_shared)
        holder.start()
        writer.start()
        entered.wait(timeout=5.0)
        time.sleep(0.1)
        assert not appended.is_set()  # still blocked on the flock
        release.set()
        holder.join(timeout=5.0)
        writer.join(timeout=5.0)
        assert appended.is_set()
        assert "second" in ResultStore(store.path).keys()

    def test_concurrent_appends_and_compactions_lose_nothing(self, tmp_path):
        """Hammer one store from appender and compactor threads; every
        record must survive (the regression the flock exists to prevent)."""
        import threading

        path = str(tmp_path / "results.jsonl")

        def append_range(start):
            store = ResultStore(path)
            for i in range(start, start + 20):
                store.put(_record(f"cell-{i}"))

        def keep_compacting():
            store = ResultStore(path)
            for _ in range(10):
                store.compact()

        threads = [
            threading.Thread(target=append_range, args=(0,)),
            threading.Thread(target=append_range, args=(20,)),
            threading.Thread(target=keep_compacting),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        final = ResultStore(path)
        assert sorted(final.keys()) == sorted(f"cell-{i}" for i in range(40))
