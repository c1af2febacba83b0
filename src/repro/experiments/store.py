"""A persistent, content-addressed, segmented JSONL store for sweep results.

Each record is one JSON object, keyed by a stable SHA-256 digest of the
cell's identity: scenario name, full parameter assignment, delivery
adversary, seed, horizon override, and the versions of every analysis pass
applied.  Repeated sweeps therefore become incremental — a cell whose key is
already present is a cache hit and is never re-simulated — while bumping an
analysis version re-runs exactly the cells it affects.

Layout.  The store is a single *active tail* file at ``path`` (plain JSONL,
exactly the original single-file format, so legacy stores open unchanged)
plus, once the tail outgrows ``rotate_bytes``, *sealed segments* under
``<path>.segments/``:

* ``<path>`` — the active tail.  All appends land here; it is always
  scanned in full on load, so appends can never stale the index.
* ``<path>.segments/seg-NNNNNN.jsonl`` — sealed segments.  One meta line
  (format version, record count, sealing owner), then one record per line
  wrapped as ``{"c": CRC32, "r": {record}}`` — every fetch is verified
  against its checksum, so a corrupt record degrades to a cache miss (the
  cell is recomputed and the fresh record supersedes it) instead of serving
  garbage.
* ``<path>.index.json`` — a sidecar index over the *sealed segments only*:
  cell key -> ``(segment, offset, length)``.  It is the one way to find a
  sealed record: resume and cache probes are O(1) dictionary hits plus one
  CRC-checked ``pread`` instead of a full-store scan, and a process that
  sealed a record reads it back the same way a fresh open does.  The index
  is advisory: when missing, stale (the on-disk segment list or sizes
  disagree), or corrupt it is rebuilt from the segments themselves.  Its
  write is best-effort — where it cannot land (a read-only directory) the
  rebuilt locators still serve the process that built them.

Small stores (under ``rotate_bytes``) never grow sidecars: they stay a
single tail file, bit-for-bit the legacy layout.

Crash safety:

* *appends* (:meth:`ResultStore.put`) are a single ``write(2)`` on an
  ``O_APPEND`` descriptor, so a record is either entirely on disk or not at
  all — a crash can tear at most the final line, never interleave two;
* *whole-file writes* (tail rewrites by :meth:`ResultStore.compact` and
  :meth:`ResultStore.recover`, segment seals, index writes) all go through
  :func:`_atomic_write`: a temp file in the same directory, fsynced, then an
  atomic ``os.replace``, so readers always observe either the old file or
  the complete new one;
* *rotation* seals (writes + fsyncs) the segment **before** truncating the
  tail: a crash between the two leaves harmless duplicates (the tail always
  wins over segments on lookup), never a lost record.

A torn final line (from a ``kill -9`` mid-append) is ignored on load;
:meth:`ResultStore.recover` additionally rewrites the tail without the torn
tail line and re-checks index freshness — it stays *shallow* (no segment
re-read) so resume cost is independent of store size.  The deep pass is
:meth:`ResultStore.verify`, which CRC-checks every sealed record and can
``repair=True`` (drop corrupt records, recover the tail, rebuild the
index).  :meth:`ResultStore.migrate` upgrades a legacy single-file store in
place by force-sealing its tail; records read back identically.

Multiple processes may share one store (several sweep coordinators, a
resumed sweep racing a report): appends take a *shared* advisory ``flock``
and rewrites/rotations an *exclusive* one on a sidecar ``<path>.lock``
file, so a rewrite can never interleave with (and silently drop) a live
append.  The sidecar — rather than the store file itself — is locked
because rewrites swap the store's inode via ``os.replace``, which would
strand any lock held on the old inode.  Rewrites re-read the disk under the
lock, so records appended by other processes after this process last loaded
its view survive compaction.  Each sealed segment records the owner
(``host:pid``) that sealed it; concurrent coordinators each seal their own
segments, and before writing an index a rotation folds in segments sealed
by other coordinators, so a persisted index always covers every segment it
declares — a reader never loads a "fresh" index that silently misses
another writer's records.  Anything that still goes stale (a racing index
write losing to an older one) fails the freshness check and is rebuilt.
A long-lived store (``repro serve``'s read view and its job store) is kept
current with :meth:`ResultStore.refresh`: appends reach it as a tail delta,
and every rewrite (rotation, compaction, recovery, repair) changes a file
identity it checks, which forces a full reload.

Storage fault injection (``repro sweep --chaos`` with storage kinds, see
:mod:`repro.experiments.faults`) is consulted cooperatively at three
points: ``store.append`` (``torn-write`` truncates the append mid-line),
``store.seal`` (``corrupt-segment`` flips a byte in the sealed file,
``partial-fsync`` skips the fsync and tears the segment's last record), and
``store.rotate`` (``stale-index`` suppresses the index write).  All of them
are recoverable by construction: the damage surfaces as cache misses or an
index rebuild, never as wrong records.
"""

from __future__ import annotations

import binascii
import contextlib
import hashlib
import json
import os
import re
import socket
import time
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

try:  # advisory locking is POSIX-only; the store degrades gracefully
    import fcntl

    _HAS_FLOCK = True
except ImportError:  # pragma: no cover - non-POSIX platforms
    _HAS_FLOCK = False

from ..obs import metrics as _metrics
from . import faults as _faults

#: Version stamp of the store's record layout; part of every cache key.
STORE_FORMAT_VERSION = 1

#: Version stamp of the sealed-segment line format (meta line + CRC wrappers).
SEGMENT_FORMAT_VERSION = 2

#: Version stamp of the sidecar index file.
INDEX_FORMAT_VERSION = 2

#: Tail size at which an append triggers rotation into a sealed segment.
DEFAULT_ROTATE_BYTES = 4 * 1024 * 1024

_SEGMENT_RE = re.compile(r"^seg-(\d{6})\.jsonl$")

_C_APPENDS = _metrics.counter("store.appends")
_C_LOOKUPS = _metrics.counter("store.lookups")
_C_RECOVER_DROPPED = _metrics.counter("store.recover_dropped_lines")
_C_COMPACT_DROPPED = _metrics.counter("store.compact_dropped_lines")
_C_ROTATIONS = _metrics.counter("store.rotations")
_C_SEGMENTS_SEALED = _metrics.counter("store.segments_sealed")
_C_INDEX_REBUILDS = _metrics.counter("store.index_rebuilds")
_C_INDEX_HITS = _metrics.counter("store.index_hits")
_C_SEGMENT_FETCHES = _metrics.counter("store.segment_fetches")
_C_CRC_FAILURES = _metrics.counter("store.crc_failures")

#: Default store location, relative to the current working directory.
DEFAULT_STORE_PATH = os.path.join(".repro-store", "results.jsonl")


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def cell_key(
    scenario: str,
    params: Mapping[str, Any],
    adversary: str,
    seed: int,
    analysis_versions: Mapping[str, int],
    horizon: Optional[int] = None,
) -> str:
    """The stable content address of one sweep cell."""
    material = canonical_json(
        {
            "format": STORE_FORMAT_VERSION,
            "scenario": scenario,
            "params": dict(params),
            "adversary": adversary,
            "seed": seed,
            "horizon": horizon,
            "analyses": dict(analysis_versions),
        }
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class StoreError(ValueError):
    """Raised on malformed store records."""


def _parse_line(line: bytes) -> Optional[Dict[str, Any]]:
    """One JSONL line -> record, or ``None`` for blank/torn/keyless lines."""
    stripped = line.strip()
    if not stripped:
        return None
    try:
        record = json.loads(stripped)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or not isinstance(record.get("key"), str):
        return None
    return record


def _crc32(payload: bytes) -> int:
    return binascii.crc32(payload) & 0xFFFFFFFF


def _wrap_record(record: Mapping[str, Any]) -> bytes:
    """One sealed-segment line: the record plus the CRC32 of its canonical form."""
    body = canonical_json(record)
    return ('{"c":%d,"r":%s}\n' % (_crc32(body.encode("utf-8")), body)).encode("utf-8")


def _unwrap_record(line: bytes) -> Optional[Dict[str, Any]]:
    """Decode and CRC-verify one sealed line; ``None`` on any mismatch.

    The CRC covers the stored ``"r"`` body bytes exactly as
    :func:`_wrap_record` wrote them, so a record is checked without being
    re-encoded.  Anything not shaped ``{"c":N,"r":...}`` is rejected.
    """
    stripped = line.strip()
    if not stripped.startswith(b'{"c":') or not stripped.endswith(b"}"):
        return None
    sep = stripped.find(b',"r":', 5)
    digits = stripped[5:sep]
    if sep < 0 or not digits.isdigit():
        return None
    body = stripped[sep + 5 : -1]
    if _crc32(body) != int(digits):
        return None
    try:
        record = json.loads(body)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        return None
    if not isinstance(record, dict) or not isinstance(record.get("key"), str):
        return None
    return record


def _atomic_write(path: str, chunks: Iterable[bytes], fsync: bool = True) -> None:
    """Replace ``path`` with ``chunks`` via temp file + ``os.replace``.

    The temp file lives next to ``path`` (same filesystem, so the rename is
    atomic) under a per-process name, so two writers never share one; it is
    fsynced before the rename and the directory after it, so a crash at any
    point leaves either the old complete file or the new one, and a failed
    write leaves the old file and no temp file behind.  ``fsync=False``
    skips both fsyncs (the injected ``partial-fsync`` fault).
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp_path = f"{path}.{os.getpid()}.tmp"
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    if not fsync:
        return
    try:
        dir_fd = os.open(directory or os.curdir, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; the rename is done
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class ResultStore:
    """An append-only, segmented JSONL result cache with an O(1) resume index.

    ``rotate_bytes`` is the tail size that triggers sealing (``None``
    disables rotation entirely — the store stays a legacy single file).
    Sealed records are found only through the sidecar index's CRC-checked
    locators; when the index cannot be written (a read-only directory) the
    locators rebuilt from the segments still serve this process.
    """

    def __init__(
        self,
        path: str = DEFAULT_STORE_PATH,
        rotate_bytes: Optional[int] = DEFAULT_ROTATE_BYTES,
    ):
        if rotate_bytes is not None and rotate_bytes < 1:
            raise StoreError(f"rotate_bytes must be >= 1 or None, got {rotate_bytes}")
        self.path = path
        self.rotate_bytes = rotate_bytes
        self._tail: Dict[str, Dict[str, Any]] = {}
        self._locators: Dict[str, Sequence[int]] = {}
        self._segments: List[str] = []
        # Segments whose records the locators actually cover.  With several
        # coordinators sealing into one store this can lag self._segments;
        # rotation folds the gap in before writing an index, so a written
        # index is always complete for the segment list it declares.
        self._covered: set = set()
        self._loaded = False
        # What :meth:`refresh` compares the disk against: the tail's identity
        # and the bytes consumed from it (up to its last newline), and the
        # sealed segments as loaded.  ``_segment_sig = None`` forces the
        # next refresh to reload in full; every rewrite by this instance
        # sets it.
        self._tail_inode: Optional[Tuple[int, int]] = None
        self._tail_offset = 0
        self._segment_sig: Optional[Tuple[Tuple[Any, ...], ...]] = None

    # -- layout ------------------------------------------------------------

    @property
    def segments_dir(self) -> str:
        return self.path + ".segments"

    @property
    def index_path(self) -> str:
        return self.path + ".index.json"

    def _segment_path(self, name: str) -> str:
        return os.path.join(self.segments_dir, name)

    def _list_segments(self) -> List[str]:
        try:
            names = os.listdir(self.segments_dir)
        except (FileNotFoundError, NotADirectoryError):
            return []
        return sorted(name for name in names if _SEGMENT_RE.match(name))

    def _segment_signature(self, names: Sequence[str]) -> Tuple[Tuple[Any, ...], ...]:
        """``(name, size, mtime_ns, inode)`` per sealed segment; no record read."""
        parts = []
        for name in names:
            try:
                info = os.stat(self._segment_path(name))
            except OSError:
                parts.append((name,))
                continue
            parts.append((name, info.st_size, info.st_mtime_ns, info.st_ino))
        return tuple(parts)

    def _next_segment_name(self) -> str:
        last = 0
        for name in self._segments:
            match = _SEGMENT_RE.match(name)
            if match:
                last = max(last, int(match.group(1)))
        return f"seg-{last + 1:06d}.jsonl"

    # -- loading -----------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        # The tail is opened before the segments are listed: a rotation
        # seals its segment before it replaces the tail, so the records of
        # the tail held open are either still in it or already listed.
        handle = self._open_tail()
        try:
            self._segments = self._list_segments()
            self._segment_sig = self._segment_signature(self._segments)
            if self._segments and not self._try_load_index():
                self._rebuild_index()
            self._load_tail(handle)
        finally:
            if handle is not None:
                handle.close()

    def _open_tail(self):
        try:
            return open(self.path, "rb")
        except FileNotFoundError:
            return None

    def _load_tail(self, handle) -> None:
        """Read the whole tail through an open ``handle`` (``None``: no tail)."""
        self._tail = {}
        self._tail_inode = None
        self._tail_offset = 0
        if handle is None:
            return
        info = os.fstat(handle.fileno())
        self._tail_inode = (info.st_dev, info.st_ino)
        for line in handle:
            if line.endswith(b"\n"):  # only the last line can lack one
                self._tail_offset += len(line)
            record = _parse_line(line)
            if record is not None:
                self._tail[record["key"]] = record

    def reload(self) -> None:
        """Drop every in-memory view and re-read the disk on next access."""
        self._tail = {}
        self._locators = {}
        self._segments = []
        self._covered = set()
        self._loaded = False
        self._segment_sig = None

    def refresh(self) -> Optional[Tuple[str, ...]]:
        """Bring the view up to date with the disk, by delta when possible.

        Re-stats the tail and every sealed segment and reads only the tail
        bytes appended since the last load or refresh, up to the last
        newline (a half-written line waits for its newline).  Returns the
        keys whose newest record those bytes changed, in first-seen order,
        or ``None`` after a full reload, which happens when a segment's
        name, size, mtime or inode changed, the tail has a different inode
        (rotation, compaction and recovery replace it), or the tail is
        smaller than the bytes consumed (an in-place rewrite).  A tail that
        did not exist at the last load is read as a delta from its start.

        A store may both refresh and :meth:`put`.  Its own appends lie past
        the consumed bytes too, so the next refresh reads them again with
        every other writer's, and it applies the delta in file order: the
        last line per key wins.  After a refresh, ``get`` and ``in`` are
        therefore exact, equal to a fresh ``ResultStore(path)``'s.  Only the
        order of :meth:`records` and :meth:`iter_records` may differ from
        file order, since a key this store put keeps the place its put gave
        it.  A view whose reports must match a fresh scan must never put.
        """
        if not self._loaded:
            self._ensure_loaded()
            return None
        handle = self._open_tail()
        try:
            info = os.fstat(handle.fileno()) if handle is not None else None
            inode = (info.st_dev, info.st_ino) if info is not None else None
            size = info.st_size if info is not None else 0
            # A tail that did not exist at the last load holds only appends.
            appeared = self._tail_inode is None and inode is not None
            stale = (
                (inode != self._tail_inode and not appeared)
                or size < self._tail_offset
                or self._segment_sig is None
                or self._segment_signature(self._list_segments()) != self._segment_sig
            )
            delta = b""
            if not stale and size > self._tail_offset:
                handle.seek(max(0, self._tail_offset - 1))
                delta = handle.read()
                if self._tail_offset:
                    # The last consumed byte must still be the newline the
                    # consumed bytes ended with.
                    stale = delta[:1] != b"\n"
                    delta = delta[1:]
        finally:
            if handle is not None:
                handle.close()
        if stale:
            self.reload()
            self._ensure_loaded()
            return None
        self._tail_inode = inode
        end = delta.rfind(b"\n") + 1
        self._tail_offset += end
        changed: Dict[str, None] = {}
        for line in delta[:end].split(b"\n"):
            record = _parse_line(line)
            if record is not None:
                self._tail[record["key"]] = record
                changed[record["key"]] = None
        return tuple(changed)

    # -- index -------------------------------------------------------------

    def _segment_stats(self) -> List[List[Any]]:
        stats = []
        for name in self._segments:
            try:
                size = os.path.getsize(self._segment_path(name))
            except OSError:
                size = -1
            stats.append([name, size])
        return stats

    def _try_load_index(self) -> bool:
        """Load the sidecar index; ``False`` when missing, stale, or corrupt.

        Staleness is a disk-truth check: the index must list exactly the
        sealed segments on disk, at their current sizes.  Appends only ever
        touch the tail (which is never indexed), so an index can go stale
        only through rotation, compaction, repair, or manual surgery — all
        of which change the segment list or a segment's size.
        """
        try:
            with open(self.index_path, "rb") as handle:
                data = json.loads(handle.read())
            if data.get("format") != INDEX_FORMAT_VERSION:
                return False
            if data.get("segments") != self._segment_stats():
                return False
            # The decoded [segment, offset, length] lists serve as locators
            # as they are; checking them column-wise keeps a cold open of a
            # large index cheap.
            locators = data["entries"]
            if locators:
                if set(map(len, locators.values())) != {3}:
                    return False
                segments = [loc[0] for loc in locators.values()]
                if min(segments) < 0 or max(segments) >= len(self._segments):
                    return False
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return False
        self._locators = locators
        self._covered = set(self._segments)
        return True

    def _rebuild_index(self) -> None:
        """Rebuild locators by scanning every sealed segment, CRC-verifying.

        Corrupt records are left out of the index (they would fail their
        fetch-time CRC anyway), so a rebuild after segment damage turns the
        damaged cells into cache misses — the self-healing path the
        corrupted-segment/deleted-index recovery tests pin down.  The index
        write is best-effort: on a read-only filesystem the in-memory
        locators still serve this process.
        """
        locators: Dict[str, Tuple[int, int, int]] = {}
        for si, name in enumerate(self._segments):
            for record, offset, length in self._iter_segment(name):
                if record is not None:
                    locators[record["key"]] = (si, offset, length)
        self._locators = locators
        self._covered = set(self._segments)
        _C_INDEX_REBUILDS.value += 1
        self._write_index()

    def _write_index(self) -> None:
        """Persist the locators, best-effort: an ``OSError`` is swallowed."""
        payload = {
            "format": INDEX_FORMAT_VERSION,
            "segments": self._segment_stats(),
            "entries": {key: list(loc) for key, loc in self._locators.items()},
        }
        with contextlib.suppress(OSError):
            _atomic_write(self.index_path, [(canonical_json(payload) + "\n").encode("utf-8")])

    def _index_state(self) -> str:
        """``none`` (no segments), ``missing``, ``stale`` or ``fresh`` (and loaded)."""
        if not self._segments:
            return "none"
        if not os.path.exists(self.index_path):
            return "missing"
        return "fresh" if self._try_load_index() else "stale"

    def _iter_segment(
        self, name: str
    ) -> Iterator[Tuple[Optional[Dict[str, Any]], int, int]]:
        """Yield ``(record_or_None, offset, length)`` per non-meta line.

        ``None`` marks a corrupt line (bad JSON, missing key, CRC mismatch).
        The meta line and blank lines are skipped entirely.
        """
        try:
            with open(self._segment_path(name), "rb") as handle:
                raw = handle.read()
        except OSError:
            return
        offset = 0
        for line in raw.split(b"\n"):
            length = len(line) + 1  # the split newline
            stripped = line.strip()
            if stripped and not stripped.startswith(b'{"seg"'):
                yield _unwrap_record(line), offset, min(length, len(raw) - offset)
            offset += length

    def _absorb_foreign_segments(self) -> None:
        """Fold in segments sealed by other coordinators since our last sync.

        Called under the exclusive lock with ``self._segments`` freshly
        re-listed.  Segment numbers only ever grow (the next name is chosen
        from the full on-disk listing under the same lock), so our previous
        view is a prefix of the new list and existing locator seg-indices
        stay valid; any listed segment we never scanned is scanned here, so
        an index written afterwards covers every segment it declares — a
        reader must never load a "fresh" index that silently misses another
        writer's records.  A foreign compaction (which deletes old segments)
        invalidates the prefix property, so that case starts the view over.
        """
        on_disk = set(self._segments)
        if not self._covered <= on_disk:
            self._locators = {}
            self._covered = set()
        for si, name in enumerate(self._segments):
            if name in self._covered:
                continue
            for record, offset, length in self._iter_segment(name):
                if record is None:
                    continue
                key = record["key"]
                existing = self._locators.get(key)
                if existing is None or existing[0] <= si:
                    self._locators[key] = (si, offset, length)
            self._covered.add(name)

    def _fetch(self, key: str) -> Optional[Dict[str, Any]]:
        """Materialise one sealed record through its locator, CRC-verified."""
        loc = self._locators.get(key)
        if loc is None:
            return None
        si, offset, length = loc
        if si >= len(self._segments):
            return None
        _C_SEGMENT_FETCHES.value += 1
        try:
            with open(self._segment_path(self._segments[si]), "rb") as handle:
                handle.seek(offset)
                raw = handle.read(length)
        except OSError:
            _C_CRC_FAILURES.value += 1
            return None
        record = _unwrap_record(raw)
        if record is None or record.get("key") != key:
            # Damage degrades to a cache miss: the cell recomputes and its
            # fresh tail record supersedes the corrupt sealed one.
            _C_CRC_FAILURES.value += 1
            return None
        return record

    # -- locking -----------------------------------------------------------

    @contextlib.contextmanager
    def _locked(self, exclusive: bool):
        """Advisory flock on the sidecar lock file (no-op without fcntl).

        Shared for appends (many appenders interleave safely at line
        granularity), exclusive for rewrites and rotations — so compaction
        waits out live appends instead of snapshotting around them.
        """
        if not _HAS_FLOCK:
            yield
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fd = os.open(self.path + ".lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        self._ensure_loaded()
        if not self._locators:
            return len(self._tail)
        if not self._tail:
            return len(self._locators)
        return len(set(self._locators) | set(self._tail))

    def __contains__(self, key: str) -> bool:
        self._ensure_loaded()
        if key in self._tail:
            return True
        if key in self._locators:
            _C_INDEX_HITS.value += 1
            return True
        return False

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        self._ensure_loaded()
        _C_LOOKUPS.value += 1
        record = self._tail.get(key)
        if record is not None:
            return record
        if key in self._locators:
            _C_INDEX_HITS.value += 1
            return self._fetch(key)
        return None

    def keys(self) -> Tuple[str, ...]:
        self._ensure_loaded()
        if not self._locators:
            return tuple(self._tail)
        merged = dict.fromkeys(self._locators)
        merged.update(dict.fromkeys(self._tail))
        return tuple(merged)

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Every stored record, one sealed segment at a time, then the tail.

        A key may repeat: a later record supersedes an earlier one with the
        same key, at the earlier one's position (see :meth:`records`).
        Corrupt sealed records are skipped; only one segment's bytes are
        held at a time.
        """
        self._ensure_loaded()
        for name in self._segments:
            for record, _, _ in self._iter_segment(name):
                if record is not None:
                    yield record
        yield from list(self._tail.values())

    def records(self) -> List[Dict[str, Any]]:
        """All current records (newest per key), in insertion order.

        A full scan by design — reports want every record body.  Sealed
        segments are read in order, then the tail overrides (tail records
        are always newer than sealed ones).
        """
        merged: Dict[str, Dict[str, Any]] = {}
        for record in self.iter_records():
            merged[record["key"]] = record
        return list(merged.values())

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.records())

    # -- writes ------------------------------------------------------------

    def put(self, record: Mapping[str, Any]) -> None:
        """Append one record; the newest record per key wins on lookup.

        The append is a single ``write(2)`` on an ``O_APPEND`` descriptor:
        either the whole line lands on disk or (on a crash) none of it, and
        concurrent appenders from different processes cannot interleave.  If
        a previous append was torn mid-line, a leading newline is folded into
        the same write so the fragment cannot swallow this record too.  In
        the degenerate short-write case (disk full, file-size limit) the
        remainder is completed by follow-up writes — our own line stays whole
        or the call raises, but interleave-safety against *other* appenders
        is forfeited for that one record.

        When the tail reaches ``rotate_bytes`` the append also rotates: the
        tail is sealed into a checksummed segment and emptied (see
        :meth:`rotate`).
        """
        key = record.get("key")
        if not isinstance(key, str) or not key:
            raise StoreError("store records must carry a non-empty string 'key'")
        self._ensure_loaded()
        payload = dict(record)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        torn = any(
            rule.kind == "torn-write" for rule in _faults.storage_fault("store.append")
        )
        tail_size = 0
        with self._locked(exclusive=False):
            line = (canonical_json(payload) + "\n").encode("utf-8")
            if not self._ends_with_newline():
                line = b"\n" + line
            if torn:
                # Injected crash-mid-append: most of the line lands, the end
                # (including the newline) never does.
                line = line[: max(1, len(line) * 2 // 3)]
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                # Normally one write(2); loop to finish a short write
                # (ENOSPC, RLIMIT_FSIZE) so a silently-truncated count cannot
                # leave a torn line behind while the index believes the
                # record landed.
                view = memoryview(line)
                while view:
                    view = view[os.write(fd, view) :]
                tail_size = os.fstat(fd).st_size
            finally:
                os.close(fd)
        if torn:
            # The record never fully landed: leaving the key out of the
            # in-memory view keeps this process honest too — the cell reads
            # as missing and is recomputed, exactly like after a real crash.
            return
        # Only reached when the whole line is durably appended: an exception
        # above leaves the key out of the index, so the cell is re-executed
        # rather than served from a record that never fully landed.
        self._tail[key] = payload
        _C_APPENDS.value += 1
        if self.rotate_bytes is not None and tail_size >= self.rotate_bytes:
            self.rotate()

    def put_many(self, records: Sequence[Mapping[str, Any]]) -> None:
        for record in records:
            self.put(record)

    def _ends_with_newline(self) -> bool:
        """Whether the file is empty or its last byte is a newline."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return True
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) == b"\n"
        except FileNotFoundError:
            return True

    def _read_tail(self) -> Tuple[bytes, List[Tuple[bytes, Optional[Dict[str, Any]]]]]:
        """The raw tail and its non-blank lines, each with its parsed record.

        The record is ``None`` for a torn or corrupt line.  A missing tail
        reads as empty.  Callers hold the exclusive lock (or, for a
        read-only :meth:`verify`, the shared one).
        """
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            raw = b""
        return raw, [(line, _parse_line(line)) for line in raw.split(b"\n") if line.strip()]

    # -- rotation and sealing ----------------------------------------------

    def _write_segment(
        self,
        name: str,
        records: Sequence[Mapping[str, Any]],
        fire_faults: bool = True,
    ) -> Dict[str, Tuple[int, int]]:
        """Write one sealed segment atomically; returns key -> (offset, length).

        The file is fsynced before the rename, so by the time the caller
        truncates the tail the segment is durable — a crash between seal and
        truncate leaves duplicates (tail wins), never a lost record.
        """
        owner = f"{socket.gethostname()}:{os.getpid()}"
        meta = {
            "seg": {
                "format": SEGMENT_FORMAT_VERSION,
                "name": name,
                "records": len(records),
                "owner": owner,
                "sealed_at": round(time.time(), 3),
            }
        }
        buf = bytearray((canonical_json(meta) + "\n").encode("utf-8"))
        meta_len = len(buf)
        entries: Dict[str, Tuple[int, int]] = {}
        for record in records:
            line = _wrap_record(record)
            entries[record["key"]] = (len(buf), len(line))
            buf += line
        seal_kinds = (
            {rule.kind for rule in _faults.storage_fault("store.seal")}
            if fire_faults
            else set()
        )
        if "corrupt-segment" in seal_kinds and len(buf) > meta_len:
            # Bit rot, deterministically: flip one byte in the middle of the
            # record region.  The hit record fails its CRC and degrades to a
            # cache miss; every other record still verifies.
            position = meta_len + (len(buf) - meta_len) // 2
            buf[position] ^= 0xFF
        partial = "partial-fsync" in seal_kinds
        if partial:
            # The fsync never happened and the page cache lost the end of the
            # file: the last record line is torn.
            del buf[max(meta_len, len(buf) - 16) :]
        _atomic_write(self._segment_path(name), [buf], fsync=not partial)
        _C_SEGMENTS_SEALED.value += 1
        return entries

    def rotate(self, force: bool = False) -> Optional[str]:
        """Seal the current tail into a checksummed segment; empty the tail.

        Returns the new segment's name, or ``None`` when there was nothing
        to seal (or another process rotated first — the size is re-checked
        under the exclusive lock).  ``force=True`` seals regardless of size
        (the migration path).  Ordering is seal-then-truncate: the segment
        is durable on disk before the tail shrinks, so a crash in between
        leaves duplicates the lookup order (tail over segments) resolves.
        """
        self._ensure_loaded()
        if not os.path.exists(self.path):
            return None
        with self._locked(exclusive=True):
            raw, lines = self._read_tail()
            threshold = self.rotate_bytes
            if not force and (threshold is None or len(raw) < threshold):
                return None  # another process rotated while we waited
            sealed = [record for _, record in lines if record is not None]
            if not sealed:
                return None
            self._segments = self._list_segments()
            self._absorb_foreign_segments()
            name = self._next_segment_name()
            rotate_kinds = {rule.kind for rule in _faults.storage_fault("store.rotate")}
            entries = self._write_segment(name, sealed)
            _atomic_write(self.path, [])
            si = len(self._segments)
            self._segments.append(name)
            self._covered.add(name)
            # From here on the sealed records are served only through their
            # locators, CRC-checked, exactly as a fresh open would serve them.
            for key, (offset, length) in entries.items():
                self._locators[key] = (si, offset, length)
            if "stale-index" not in rotate_kinds:
                self._write_index()
            self._tail = {}
            self._segment_sig = None
        _C_ROTATIONS.value += 1
        return name

    def migrate(self) -> Dict[str, Any]:
        """Upgrade a legacy single-file store in place; idempotent.

        Seals the whole tail into a segment (regardless of size) and writes
        the sidecar index, so subsequent opens take the O(1) probe path.
        Records read back bit-identically — the layout changes, the record
        bytes do not (``canonical_json`` round-trip).  Returns :meth:`info`.
        """
        self._ensure_loaded()
        if self._tail:
            self.rotate(force=True)
        elif self._segments and not self._try_load_index():
            self._rebuild_index()
        return self.info()

    # -- maintenance ---------------------------------------------------------

    def recover(self) -> int:
        """Drop torn/corrupt tail lines, atomically; idempotent and *shallow*.

        Scans the raw tail JSONL, keeps every parseable keyed record line
        (torn tails from a ``kill -9`` mid-append and any other corrupt
        lines are dropped), and rewrites the tail via temp-file + rename
        only when something actually needs dropping.  Returns the number of
        lines dropped.  This is the entry point resumable sweeps call before
        trusting the store as the source of truth for completed cells.

        Sealed segments are *not* re-read (resume cost must not scale with
        store size): a stale or missing index is rebuilt, and per-record
        damage inside segments surfaces lazily as CRC-failed fetches — i.e.
        cache misses that recompute and supersede.  The deep scan is
        :meth:`verify`.  Runs under the exclusive advisory lock and re-reads
        the file inside it, so concurrent appenders neither tear the scan
        nor lose records.
        """
        self._ensure_loaded()
        dropped = 0
        if os.path.exists(self.path):
            with self._locked(exclusive=True):
                raw, lines = self._read_tail()
                kept = [line + b"\n" for line, record in lines if record is not None]
                dropped = len(lines) - len(kept)
                if dropped or raw[-1:] not in (b"", b"\n"):  # an unterminated last line
                    _atomic_write(self.path, kept)
                    with open(self.path, "rb") as handle:
                        self._load_tail(handle)
                    self._segment_sig = None
        on_disk = self._list_segments()
        if on_disk != self._segments or (on_disk and not self._try_load_index()):
            self._segments = on_disk
            self._rebuild_index()
        _C_RECOVER_DROPPED.value += dropped
        return dropped

    def compact(self) -> int:
        """Rewrite the store keeping one (newest) record per key, atomically.

        Returns the number of lines dropped (superseded duplicates plus any
        torn/corrupt lines).  Compacting an already-compact store drops 0
        lines and rewrites nothing.  When the surviving records fit under
        ``rotate_bytes`` the store collapses back to a single legacy tail
        file (segments and index removed); larger stores re-seal into fresh
        segments plus an empty tail.

        Runs under the exclusive advisory lock and rebuilds its view from
        the *disk*, not the in-memory state — another process may have
        appended records this process never loaded, and those must survive
        the rewrite.
        """
        self._ensure_loaded()
        if not os.path.exists(self.path) and not self._segments:
            return 0
        with self._locked(exclusive=True):
            self._segments = self._list_segments()
            merged: Dict[str, Dict[str, Any]] = {}
            total_lines = 0
            for name in self._segments:
                for record, _, _ in self._iter_segment(name):
                    total_lines += 1
                    if record is not None:
                        merged[record["key"]] = record
            raw, tail_lines = self._read_tail()
            total_lines += len(tail_lines)
            for _, record in tail_lines:
                if record is not None:
                    merged[record["key"]] = record
            if total_lines == len(merged) and raw[-1:] in (b"", b"\n"):
                return 0
            lines = [
                (canonical_json(record) + "\n").encode("utf-8")
                for record in merged.values()
            ]
            old_segments = list(self._segments)
            payload_bytes = sum(len(line) for line in lines)
            if (
                old_segments
                and self.rotate_bytes is not None
                and payload_bytes > self.rotate_bytes
            ):
                # Too big for one tail: re-seal into fresh segments (numbered
                # after the old ones so a crash mid-compaction leaves newer
                # duplicates that win the scan order), then an empty tail.
                records_list = list(merged.values())
                chunks: List[List[Dict[str, Any]]] = []
                chunk: List[Dict[str, Any]] = []
                chunk_bytes = 0
                for record, line in zip(records_list, lines):
                    if chunk and chunk_bytes + len(line) > self.rotate_bytes:
                        chunks.append(chunk)
                        chunk, chunk_bytes = [], 0
                    chunk.append(record)
                    chunk_bytes += len(line)
                if chunk:
                    chunks.append(chunk)
                new_segments: List[str] = []
                self._locators = {}
                for chunk in chunks:
                    name = self._next_segment_name()
                    entries = self._write_segment(name, chunk, fire_faults=False)
                    si = len(new_segments)
                    self._segments = [*new_segments, name]
                    new_segments.append(name)
                    for key, (offset, length) in entries.items():
                        self._locators[key] = (si, offset, length)
                _atomic_write(self.path, [])
                for name in old_segments:
                    with contextlib.suppress(OSError):
                        os.unlink(self._segment_path(name))
                self._segments = new_segments
                self._covered = set(new_segments)
                self._tail = {}
                self._write_index()
            else:
                # Collapse to the legacy single-file layout: tail holds
                # everything, sidecars disappear.
                _atomic_write(self.path, lines)
                for name in old_segments:
                    with contextlib.suppress(OSError):
                        os.unlink(self._segment_path(name))
                with contextlib.suppress(OSError):
                    os.unlink(self.index_path)
                with contextlib.suppress(OSError):
                    os.rmdir(self.segments_dir)
                self._segments = []
                self._covered = set()
                self._locators = {}
                self._tail = merged
            self._segment_sig = None
        dropped = total_lines - len(merged)
        _C_COMPACT_DROPPED.value += dropped
        return dropped

    def verify(self, repair: bool = False) -> Dict[str, Any]:
        """Deep integrity check: CRC every sealed record, scan the tail.

        Returns a report dict; ``report["ok"]`` means no corrupt sealed
        records, no torn tail lines, and a fresh (or absent-by-design)
        index.  With ``repair=True`` corrupt sealed records are dropped
        (segment rewritten atomically), the tail is recovered, and the index
        rebuilt — the dropped cells become cache misses and recompute on the
        next resume.
        """
        self._ensure_loaded()
        report: Dict[str, Any] = {
            "path": self.path,
            "segments": [],
            "segment_records": 0,
            "corrupt_records": 0,
            "tail_records": 0,
            "tail_torn_lines": 0,
            "index": "none",
            "repaired": False,
        }
        with self._locked(exclusive=repair):
            self._segments = self._list_segments()
            damaged: Dict[str, List[Dict[str, Any]]] = {}
            for name in self._segments:
                good: List[Dict[str, Any]] = []
                corrupt = 0
                for record, _, _ in self._iter_segment(name):
                    if record is None:
                        corrupt += 1
                    else:
                        good.append(record)
                try:
                    size = os.path.getsize(self._segment_path(name))
                except OSError:
                    size = -1
                report["segments"].append(
                    {"name": name, "records": len(good), "corrupt": corrupt, "size": size}
                )
                report["segment_records"] += len(good)
                report["corrupt_records"] += corrupt
                if corrupt:
                    damaged[name] = good
            _, tail_lines = self._read_tail()
            torn = sum(1 for _, record in tail_lines if record is None)
            report["tail_torn_lines"] = torn
            report["tail_records"] = len(tail_lines) - torn
            report["index"] = self._index_state()
            if repair:
                for name, good in damaged.items():
                    self._write_segment(name, good, fire_faults=False)
                report["repaired"] = bool(damaged) or report["tail_torn_lines"] > 0
                self._segment_sig = None
        if repair:
            # Outside the exclusive lock: recover() and the index rebuild
            # take their own locks.
            if report["tail_torn_lines"]:
                self.recover()
            self._segments = self._list_segments()
            if self._segments:
                self._rebuild_index()
                report["index"] = "fresh"
            report["corrupt_dropped"] = report["corrupt_records"]
            report["corrupt_records"] = 0
            report["tail_torn_lines"] = 0
        report["ok"] = (
            report["corrupt_records"] == 0
            and report["tail_torn_lines"] == 0
            and report["index"] in ("none", "fresh")
        )
        return report

    def info(self) -> Dict[str, Any]:
        """Layout summary: segment count/records, tail records, index state."""
        self._ensure_loaded()
        index_state = self._index_state()
        return {
            "path": self.path,
            "format": STORE_FORMAT_VERSION,
            "segment_format": SEGMENT_FORMAT_VERSION,
            "rotate_bytes": self.rotate_bytes,
            "segments": list(self._segments),
            "sealed_records": len(self._locators),
            "tail_records": len(self._tail),
            "keys": len(self),
            "index": index_state,
        }
