"""Tests for ``ResultStore.refresh``: a long-lived view kept current by delta.

The contract: a refresh reads only the tail bytes appended since the last
load or refresh, never a half-written line, and reloads in full (returning
``None``) whenever the on-disk layout changed under it.  After every refresh
the view reads exactly what a freshly opened store reads.
"""

import os

import pytest

from repro.experiments import store as store_module
from repro.experiments.store import ResultStore, canonical_json


def _record(key, value=0, pad=40):
    return {"key": key, "status": "ok", "value": value, "pad": "x" * pad}


def _line(record):
    return (canonical_json(record) + "\n").encode("utf-8")


def _fresh(path):
    return ResultStore(path, rotate_bytes=None).records()


@pytest.fixture()
def path(tmp_path):
    return str(tmp_path / "results.jsonl")


@pytest.fixture()
def segmented(path):
    """A store with sealed segments and a short tail, plus a loaded view."""
    writer = ResultStore(path, rotate_bytes=1024)
    for i in range(40):
        writer.put(_record(f"k{i}", i))
    assert writer.info()["segments"]
    view = ResultStore(path, rotate_bytes=None)
    assert view.refresh() is None  # the first refresh is the load
    return view


def test_unchanged_store_refreshes_to_nothing(segmented):
    assert segmented.refresh() == ()
    assert segmented.records() == _fresh(segmented.path)


def test_append_is_read_as_a_suffix_only(segmented, monkeypatch):
    writer = ResultStore(segmented.path, rotate_bytes=None)
    writer.put(_record("new1", 1))
    writer.put(_record("k3", 33))  # supersedes a sealed record
    parsed = []
    real_parse = store_module._parse_line

    def counting_parse(line):
        parsed.append(line)
        return real_parse(line)

    monkeypatch.setattr(store_module, "_parse_line", counting_parse)
    assert segmented.refresh() == ("new1", "k3")
    assert len([line for line in parsed if line.strip()]) == 2
    monkeypatch.undo()
    assert segmented.get("k3")["value"] == 33
    assert segmented.records() == _fresh(segmented.path)


def test_half_written_line_waits_for_its_newline(segmented):
    line = _line(_record("late", 7))
    with open(segmented.path, "ab") as handle:
        handle.write(line[:-10])
    assert segmented.refresh() == ()
    assert segmented.get("late") is None
    with open(segmented.path, "ab") as handle:
        handle.write(line[-10:])
    assert segmented.refresh() == ("late",)
    assert segmented.get("late")["value"] == 7
    assert segmented.records() == _fresh(segmented.path)


def test_torn_line_then_a_later_append(segmented):
    with open(segmented.path, "ab") as handle:
        handle.write(_line(_record("torn", 1))[:25])  # a crash mid-append
    assert segmented.refresh() == ()
    # The next append starts a fresh line, so the fragment stays a torn
    # line of its own and never becomes a record.
    ResultStore(segmented.path, rotate_bytes=None).put(_record("after", 2))
    assert segmented.refresh() == ("after",)
    assert segmented.get("torn") is None
    assert segmented.records() == _fresh(segmented.path)


@pytest.mark.parametrize("rewrite", ["rotate", "compact"])
def test_rotation_or_compaction_by_another_store_reloads_in_full(segmented, rewrite):
    other = ResultStore(segmented.path, rotate_bytes=1024)
    other.put(_record("k5", 55))  # a duplicate for compaction to drop
    if rewrite == "rotate":
        assert other.rotate(force=True) is not None
    else:
        assert other.compact() >= 1
    assert segmented.refresh() is None
    assert segmented.get("k5")["value"] == 55
    assert segmented.records() == _fresh(segmented.path)
    assert segmented.refresh() == ()


def test_segment_rewrite_alone_reloads_in_full(segmented):
    segment = os.path.join(segmented.segments_dir, segmented.info()["segments"][0])
    with open(segment, "r+b") as handle:  # damage one sealed record
        raw = bytearray(handle.read())
        raw[raw.index(b'"key":"k1"') + 8] ^= 0xFF
        handle.seek(0)
        handle.write(bytes(raw))
    report = ResultStore(segmented.path, rotate_bytes=None).verify(repair=True)
    assert report["corrupt_dropped"] == 1
    assert segmented.refresh() is None  # the tail never changed
    assert segmented.get("k1") is None
    assert segmented.records() == _fresh(segmented.path)


def test_in_place_shrink_reloads_in_full(path):
    writer = ResultStore(path, rotate_bytes=None)
    for i in range(5):
        writer.put(_record(f"k{i}", i))
    view = ResultStore(path, rotate_bytes=None)
    view.refresh()
    with open(path, "r+b") as handle:  # same inode, fewer bytes
        lines = handle.read().splitlines(keepends=True)
        handle.seek(0)
        handle.truncate()
        handle.writelines(lines[:2])
    assert view.refresh() is None
    assert view.get("k4") is None
    assert view.records() == _fresh(path)


def test_in_place_rewrite_that_grows_reloads_in_full(path):
    writer = ResultStore(path, rotate_bytes=None)
    writer.put(_record("a", 1))
    view = ResultStore(path, rotate_bytes=None)
    view.refresh()
    with open(path, "r+b") as handle:  # same inode, longer first line
        handle.write(_line(_record("b", 2, pad=80)))
    assert view.refresh() is None
    assert view.get("a") is None
    assert view.records() == _fresh(path)


def test_a_tail_that_appears_after_the_load_is_read_as_a_delta(path):
    view = ResultStore(path, rotate_bytes=None)
    assert view.refresh() is None  # the load finds no tail file
    assert not os.path.exists(path)
    writer = ResultStore(path, rotate_bytes=None)
    writer.put(_record("a", 1))
    writer.put(_record("b", 2))
    assert view.refresh() == ("a", "b")
    fresh = ResultStore(path, rotate_bytes=None)
    assert [view.get(key) for key in "ab"] == [fresh.get(key) for key in "ab"]
    assert view.records() == _fresh(path)
    writer.put(_record("a", 11))
    assert view.refresh() == ("a",)
    assert view.get("a")["value"] == 11


def test_a_rotation_after_the_tail_appears_still_reloads_in_full(path):
    view = ResultStore(path, rotate_bytes=None)
    assert view.refresh() is None  # the load finds no tail file
    writer = ResultStore(path, rotate_bytes=1024)
    writer.put(_record("a", 1))
    assert writer.rotate(force=True) is not None
    writer.put(_record("b", 2))
    assert view.refresh() is None
    fresh = ResultStore(path, rotate_bytes=None)
    assert [view.get(key) for key in "ab"] == [fresh.get(key) for key in "ab"]
    assert view.records() == _fresh(path)


def test_deleted_index_still_gives_correct_reads(segmented):
    os.unlink(segmented.index_path)
    writer = ResultStore(segmented.path, rotate_bytes=None)
    writer.put(_record("k1", 11))
    assert segmented.refresh() == ("k1",)
    assert [segmented.get(f"k{i}")["value"] for i in range(4)] == [0, 11, 2, 3]
    assert segmented.records() == _fresh(segmented.path)
    # A reload without the index rebuilds it from the segments.
    ResultStore(segmented.path, rotate_bytes=1024).rotate(force=True)
    os.unlink(segmented.index_path)
    assert segmented.refresh() is None
    assert all(segmented.get(f"k{i}") is not None for i in range(40))
    assert segmented.records() == _fresh(segmented.path)


def test_a_store_that_puts_and_refreshes_reads_what_a_fresh_open_reads(path):
    """The rule for a store that both appends and refreshes (``repro
    serve``'s job store): after every refresh, ``get`` and ``in`` equal a
    fresh open's, whatever a second writer did since."""
    from repro.experiments import faults

    mine = ResultStore(path, rotate_bytes=1024)
    keys = set()

    def mine_put(key, value):
        mine.put(_record(key, value))
        keys.add(key)

    def other_put(key, value):
        ResultStore(path, rotate_bytes=None).put(_record(key, value))
        keys.add(key)

    def check():
        mine.refresh()
        fresh = ResultStore(path, rotate_bytes=None)
        for key in sorted(keys):
            assert mine.get(key) == fresh.get(key), key
            assert (key in mine) == (key in fresh), key

    seed = ResultStore(path, rotate_bytes=1024)
    for i in range(30):
        seed.put(_record(f"k{i}", i))
        keys.add(f"k{i}")
    assert seed.info()["segments"]
    check()

    # An older and a newer record of one key around this store's own put:
    # the file's last line wins, not the put this store remembers.
    mine_put("m1", 1)
    other_put("dup", 1)
    mine_put("dup", 5)
    other_put("dup", 2)
    check()
    assert mine.get("dup")["value"] == 2
    mine_put("dup", 6)
    check()
    assert mine.get("dup")["value"] == 6

    mine_put("r1", 1)
    other_put("r0", 0)
    assert ResultStore(path, rotate_bytes=1024).rotate(force=True) is not None
    mine_put("r2", 2)
    check()

    other_put("k3", 33)
    mine_put("c1", 1)
    assert ResultStore(path, rotate_bytes=1024).compact() >= 1
    check()

    # This store's own rotation, with another writer's append in its tail.
    sealed = len(os.listdir(mine.segments_dir))
    other_put("k4", 44)
    for i in range(15):
        mine_put(f"own{i}", i)
    assert len(os.listdir(mine.segments_dir)) > sealed
    check()

    segment = os.path.join(mine.segments_dir, sorted(os.listdir(mine.segments_dir))[0])
    with open(segment, "r+b") as handle:  # damage one sealed record
        raw = bytearray(handle.read())
        raw[raw.index(b'"key":"k1",') + 8] ^= 0xFF
        handle.seek(0)
        handle.write(bytes(raw))
    mine_put("v1", 1)
    assert ResultStore(path, rotate_bytes=1024).verify(repair=True)["corrupt_dropped"] == 1
    check()
    assert mine.get("k1") is None

    try:
        faults.mark_storage("torn-write@store.append:1")
        other_put("torn", 1)  # a crash mid-append: most of the line lands
    finally:
        faults.reset()
    check()
    mine_put("after", 2)
    other_put("k2", 22)
    check()
    assert mine.get("torn") is None
    assert mine.get("after")["value"] == 2 and mine.get("k2")["value"] == 22
