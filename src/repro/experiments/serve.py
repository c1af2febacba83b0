"""``repro serve``: the HTTP front door over the sweep + store stack.

A long-running :class:`SweepService` turns the batch pipeline into a system
that serves traffic: clients POST sweep specs as JSON, poll or stream
progress, and read cell records and aggregated reports straight out of the
content-addressed :class:`~repro.experiments.store.ResultStore`.  The design
splits a small always-on hub from elastic workers: hot results cost one
advisory-index probe plus one pread, and only cold cells fan out to the
distributed fabric (:mod:`repro.experiments.remote`).

Everything is stdlib (``http.server.ThreadingHTTPServer``, newline-JSON
bodies) — no new dependencies.  Endpoints:

========================  ====================================================
``POST /sweeps``          check a spec's JSON shapes (:func:`validate_spec`),
                          then its grid with the check every CLI entry
                          point shares; return a sweep id; the job's scan
                          probes each cell once: cells already in the
                          store are cache hits, cold cells execute
                          through the scheduler's dedup path
``GET /sweeps/{id}``      progress snapshot (counts + lease-based fabric
                          state while running)
``GET /sweeps/{id}/events``  chunked newline-JSON progress stream
``GET /results/{key}``    one record, content-addressed; a damaged or
                          missing record of a known cell degrades to
                          recompute-and-supersede (PR 9 semantics)
``GET /report``           aggregated report over the store (or one sweep),
                          cached until the store view changes
``GET /healthz``          liveness + store layout
``GET /metrics``          the ``repro.obs`` registry snapshot
========================  ====================================================

Invariants this module rides on (and must preserve):

* **All sweep result delivery goes through the scheduler.**  Jobs execute
  via :func:`~repro.experiments.runner.run_sweep` on a
  :class:`~repro.experiments.remote.RemoteExecutor` backend — with
  ``--workers-listen`` remote workers take leases, without it the inline
  fallback drains shards — and either way every record reaches the handler
  through ``FabricScheduler.complete``/``record_local``, whose dedup fires
  the handler exactly once per cell.
* **The store is the shared source of truth.**  The service reads through
  one long-lived :class:`ResultStore` view that every read request brings
  up to date with :meth:`ResultStore.refresh` first: appends (by this
  service's sweep jobs or a CLI sweep sharing the store) arrive as a tail
  delta, and rotation, compaction, recovery or repair force a full reload.
  Reads therefore ride the store invariants (advisory index, tail-wins
  lookups, flock'd appends) and ``/results`` stays correct with the index
  deleted, stale, corrupt, or unwritable.  The view never writes.  Sweep
  jobs append through one long-lived *job store*, owned by the runner
  thread and refreshed the same way before each job, so a job costs what
  its posted cells cost, not what the store holds.  ``/results``
  recomputes run on HTTP threads and append through a store of their own.
* **Telemetry is free.**  Every request increments ``serve.*`` counters and
  runs under :func:`~repro.obs.trace.span`, so ``/metrics`` self-reports the
  service's own traffic.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs import metrics as _metrics
from ..obs.trace import span
from .remote import RemoteExecutor, parse_endpoint
from .reporting import DEFAULT_REPORT_METRICS, is_cell, report_payload, report_row
from .runner import (
    MAX_CELLS,
    SpecError,
    SweepCell,
    run_cell,
    run_sweep,
    validate_spec,
)
from .store import DEFAULT_ROTATE_BYTES, DEFAULT_STORE_PATH, ResultStore, canonical_json

__all__ = [
    "MAX_CELLS",
    "SpecError",
    "SweepService",
    "parse_endpoint",
    "validate_spec",
]

_C_REQUESTS = _metrics.counter("serve.requests")
_C_ERRORS = _metrics.counter("serve.errors")
_C_BAD_REQUESTS = _metrics.counter("serve.bad_requests")
_C_SWEEPS_POSTED = _metrics.counter("serve.sweeps_posted")
_C_CACHE_HIT = _metrics.counter("serve.cache_hit")
_C_CACHE_MISS = _metrics.counter("serve.cache_miss")
_C_RECOMPUTES = _metrics.counter("serve.recomputes")
_C_EVENT_STREAMS = _metrics.counter("serve.event_streams")

#: Events kept per job (progress stream + snapshot); beyond this the stream
#: reports the drop instead of growing without bound.
_MAX_EVENTS = 20_000

#: How often the HTTP loop checks for a shutdown request: ``stop()`` waits
#: up to this long (``serve_forever``'s default is 0.5 s).
_SHUTDOWN_POLL_S = 0.05


# ---------------------------------------------------------------------------
# Sweep jobs.
# ---------------------------------------------------------------------------


class SweepJob:
    """One accepted sweep spec: cells, live counts, and a progress feed."""

    def __init__(self, job_id: str, cells: List[SweepCell], spec: Dict[str, Any]):
        self.id = job_id
        self.cells = cells
        self.spec = spec
        self.status = "queued"  # queued -> running -> done | failed
        self.error: Optional[str] = None
        self.counts = {"cached": 0, "executed": 0, "errors": 0}
        self.duration_s: Optional[float] = None
        self.backend: Optional[str] = None
        self.events: List[Dict[str, Any]] = []
        self.cond = threading.Condition()
        self.executor: Optional[RemoteExecutor] = None

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed")

    def emit(self, event: Dict[str, Any]) -> None:
        with self.cond:
            if len(self.events) < _MAX_EVENTS:
                self.events.append(event)
            elif len(self.events) == _MAX_EVENTS:
                self.events.append({"event": "truncated", "kept": _MAX_EVENTS})
            self.cond.notify_all()

    def observe(self, phase: str, cell: SweepCell, record: Dict[str, Any]) -> None:
        """The :func:`run_sweep` observer: fold one delivered cell in.

        The job's scan is the only probe of a posted cell, so the serve
        cache counters are counted here, once per delivered cell.
        """
        (_C_CACHE_HIT if phase == "cached" else _C_CACHE_MISS).value += 1
        with self.cond:
            if phase == "cached":
                self.counts["cached"] += 1
            elif phase == "executed":
                self.counts["executed"] += 1
            else:
                self.counts["errors"] += 1
        event = {"event": phase, "key": record.get("key"), "cell": cell.describe()}
        if phase == "error":
            event["error"] = record.get("error")
        self.emit(event)

    def snapshot(self) -> Dict[str, Any]:
        with self.cond:
            counts = dict(self.counts)
            status = self.status
            events = len(self.events)
        delivered = counts["cached"] + counts["executed"] + counts["errors"]
        out: Dict[str, Any] = {
            "sweep": self.id,
            "status": status,
            "spec": self.spec,
            "cells": {
                "total": len(self.cells),
                "pending": max(0, len(self.cells) - delivered),
                **counts,
            },
            "events": events,
        }
        if self.backend is not None:
            out["backend"] = self.backend
        if self.duration_s is not None:
            out["duration_s"] = round(self.duration_s, 6)
        if self.error is not None:
            out["error"] = self.error
        executor = self.executor
        if executor is not None:
            # Live lease-based scheduler state (workers, leases, retries).
            out["fabric"] = executor.fabric_summary()
        return out


# ---------------------------------------------------------------------------
# The store view.
# ---------------------------------------------------------------------------


_ReportEntry = Optional[Tuple[Dict[str, Any], Dict[str, Any]]]


def _report_entry(record: Mapping[str, Any]) -> _ReportEntry:
    """A report cell as (the record without ``analyses``, its report row);
    ``None`` for records no report counts (telemetry, error cells)."""
    if not is_cell(record):
        return None
    slim = {name: value for name, value in record.items() if name != "analyses"}
    return slim, report_row(record)


class _StoreView:
    """One long-lived store view, refreshed by delta, plus the report memo.

    ``reports`` caches report payloads; it is emptied whenever a refresh
    changes anything, so a cached report is always current.  The memo maps
    every stored key, in :meth:`ResultStore.records` order, to its
    :func:`_report_entry`; it is built on the first report by streaming the
    store one segment at a time, and afterwards only the keys a refresh
    reports are flattened again.  Keeping the order keeps every float sum,
    and so the payload, bit-identical to a fresh scan.  Callers hold
    ``lock`` around every use.
    """

    def __init__(self, store: ResultStore):
        self.store = store
        self.lock = threading.Lock()
        self.reports: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        self._memo: Optional[Dict[str, _ReportEntry]] = None

    def refresh(self) -> ResultStore:
        changed = self.store.refresh()
        if changed is None:
            self.reports.clear()
            self._memo = None
        elif changed:
            self.reports.clear()
            if self._memo is not None:
                for key in changed:
                    self._memo[key] = _report_entry(self.store.get(key))
        return self.store

    def report_cells(
        self, keys: Optional[frozenset] = None
    ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
        """The report cells (optionally only ``keys``) and their rows."""
        if self._memo is None:
            memo: Dict[str, _ReportEntry] = {}
            for record in self.store.iter_records():
                memo[record["key"]] = _report_entry(record)
            self._memo = memo
        records: List[Dict[str, Any]] = []
        rows: List[Dict[str, Any]] = []
        for entry in self._memo.values():
            if entry is not None and (keys is None or entry[0]["key"] in keys):
                records.append(entry[0])
                rows.append(entry[1])
        return records, rows


# ---------------------------------------------------------------------------
# The service.
# ---------------------------------------------------------------------------


class SweepService:
    """The serve hub: sweep jobs, content-addressed reads, cached reports.

    One background runner thread drains POSTed jobs in FIFO order; each job
    runs :func:`run_sweep` on a :class:`RemoteExecutor` backend (bound to
    ``workers_listen`` when given, else degrading instantly to the inline
    fallback), so every result reaches the store through the scheduler's
    exactly-once dedup path.  Sequential job execution makes overlapping
    grids naturally exactly-once: the second job's cache scan sees the
    first job's records.

    Three store objects share the one store file: the read view (every
    ``/results`` and ``/report``; it never writes), the runner thread's
    job store (every sweep job's scan and appends; loaded on the first
    job, refreshed by delta before each later one), and a writer per
    ``/results`` recompute.
    """

    def __init__(
        self,
        store_path: str = DEFAULT_STORE_PATH,
        *,
        rotate_bytes: Optional[int] = DEFAULT_ROTATE_BYTES,
        workers_listen: Optional[Tuple[str, int]] = None,
        workers: int = 2,
        shard_size: Optional[int] = None,
        local_fallback_s: float = 10.0,
        max_cells: int = MAX_CELLS,
        log: Optional[Callable[[str], None]] = None,
    ):
        self.store_path = store_path
        self.rotate_bytes = rotate_bytes
        self.workers_listen = workers_listen
        self.workers = max(1, workers)
        self.shard_size = shard_size
        self.local_fallback_s = local_fallback_s
        self.max_cells = max_cells
        self.log = log or (lambda message: None)
        self._lock = threading.Lock()
        self._jobs: Dict[str, SweepJob] = {}
        self._digests: Dict[str, List[str]] = {}  # grid digest -> job ids
        self._known_cells: Dict[str, SweepCell] = {}
        self._view = _StoreView(self._open_store())
        # Used only by the runner thread; loaded by its first refresh.
        self._job_store = self._open_store()
        self._queue: "queue.Queue[Optional[SweepJob]]" = queue.Queue()
        self._runner: Optional[threading.Thread] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self.address: Optional[Tuple[str, int]] = None

    # -- store views -------------------------------------------------------

    def _open_store(self) -> ResultStore:
        """A new store object: the read view, the job store, or a
        recompute's writer."""
        return ResultStore(self.store_path, rotate_bytes=self.rotate_bytes)

    # -- sweep lifecycle ---------------------------------------------------

    def submit(self, spec: Any) -> Tuple[SweepJob, bool]:
        """Validate a spec; return ``(job, created)``.

        Re-POSTing a grid that is queued or running returns the existing
        job (idempotent); re-POSTing a finished grid creates a fresh job
        whose scan serves everything still in the store as cache hits.
        Submitting reads no store: the job's scan is the one probe of each
        cell, and its counts are the job snapshot's.
        """
        cells, normalized = validate_spec(spec, max_cells=self.max_cells)
        digest = hashlib.sha256(
            canonical_json(sorted(cell.key() for cell in cells)).encode("utf-8")
        ).hexdigest()[:12]
        with self._lock:
            for job_id in self._digests.get(digest, ()):
                job = self._jobs[job_id]
                if not job.terminal:
                    return job, False
            attempt = len(self._digests.get(digest, ())) + 1
            job_id = f"sweep-{digest}" if attempt == 1 else f"sweep-{digest}-r{attempt}"
            job = SweepJob(job_id, cells, normalized)
            self._jobs[job_id] = job
            self._digests.setdefault(digest, []).append(job_id)
            for cell in cells:
                self._known_cells.setdefault(cell.key(), cell)
        _C_SWEEPS_POSTED.value += 1
        job.emit({"event": "accepted", "cells": len(cells)})
        self._queue.put(job)
        self.log(f"sweep {job.id}: accepted ({len(cells)} cells)")
        return job, True

    def job(self, job_id: str) -> Optional[SweepJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def _make_executor(self) -> RemoteExecutor:
        if self.workers_listen is not None:
            host, port = self.workers_listen
            return RemoteExecutor(
                host,
                port,
                workers_hint=self.workers,
                shard_size=self.shard_size,
                local_fallback_after_s=self.local_fallback_s,
            )
        # No worker fleet: an ephemeral loopback coordinator that degrades
        # to the inline fallback immediately — results still flow through
        # FabricScheduler.take_local/record_local, keeping the dedup path.
        return RemoteExecutor(
            "127.0.0.1",
            0,
            workers_hint=self.workers,
            shard_size=self.shard_size,
            local_fallback_after_s=0.0,
        )

    def _run_job(self, job: SweepJob) -> None:
        """Run one job on the runner thread through the one job store.

        The job store is refreshed before the scan (a tail delta, or a full
        reload after a rotation, compaction, recovery or repair), so the
        scan sees every record on disk: after a refresh ``get`` is exact
        even though this store also appends.  A failed job drops the job
        store, and the next job loads a fresh one.
        """
        started = time.perf_counter()
        with job.cond:
            job.status = "running"
            job.cond.notify_all()
        job.emit({"event": "started", "sweep": job.id})
        try:
            executor = self._make_executor()
        except OSError as exc:
            with job.cond:
                job.status = "failed"
                job.error = f"cannot bind workers-listen endpoint: {exc}"
                job.cond.notify_all()
            job.emit({"event": "failed", "error": job.error})
            return
        job.executor = executor
        if self.workers_listen is not None:
            self.log(
                f"sweep {job.id}: coordinator on "
                f"{executor.address[0]}:{executor.address[1]}"
            )
        try:
            store = self._job_store
            with span("serve.sweep", sweep=job.id):
                store.refresh()
                outcome = run_sweep(
                    job.cells,
                    store=store,
                    workers=self.workers,
                    backend=executor,
                    observer=job.observe,
                )
            with job.cond:
                job.status = "done"
                job.duration_s = outcome.duration_s
                job.backend = outcome.backend
                job.cond.notify_all()
            job.emit(
                {
                    "event": "complete",
                    "sweep": job.id,
                    "cells": {
                        "total": outcome.total,
                        "executed": outcome.executed,
                        "cached": outcome.cached,
                        "errors": outcome.errors,
                    },
                    "duration_s": round(outcome.duration_s, 6),
                }
            )
            self.log(f"sweep {job.id}: {outcome.describe()}")
        except Exception as exc:  # noqa: BLE001 - a job must never kill the hub
            self._job_store = self._open_store()
            with job.cond:
                job.status = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.duration_s = time.perf_counter() - started
                job.cond.notify_all()
            job.emit({"event": "failed", "error": job.error})
            self.log(f"sweep {job.id}: FAILED: {job.error}")
        finally:
            job.executor = None

    def _runner_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._run_job(job)

    # -- content-addressed reads -------------------------------------------

    def result(self, key: str) -> Optional[Dict[str, Any]]:
        """One record by cell key; a lost/damaged record of a known cell
        recomputes and supersedes (exactly the store's degradation: a
        CRC-failed read is a cache miss, never a served wrong record)."""
        with self._view.lock:
            record = self._view.refresh().get(key)
        if record is not None:
            _C_CACHE_HIT.value += 1
            return record
        cell = self._known_cells.get(key)
        if cell is None:
            _C_CACHE_MISS.value += 1
            return None
        _C_RECOMPUTES.value += 1
        self.log(f"result {key[:12]}: store miss for a known cell, recomputing")
        with span("serve.recompute", key=key[:12]):
            fresh = run_cell(cell)
        # Newest-per-key wins: the recompute supersedes; the view reads the
        # append back on its next refresh.
        self._open_store().put(fresh)
        return fresh

    def report(
        self,
        *,
        sweep: Optional[str] = None,
        group_by: Sequence[str] = ("scenario", "adversary"),
        metrics: Optional[Sequence[str]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Aggregate the store (or one sweep's cells) into a report payload.

        Cached in the store view: a repeat request over an unchanged
        store is a pure cache hit (no records re-read, no cells recomputed),
        and any change the view's refresh sees (an append by this process
        or a CLI sweep on the same store, a rotation, a compaction)
        invalidates it.  A miss aggregates the view's memoized rows, so
        after the first report only changed records are flattened again.
        """
        chosen = tuple(metrics) if metrics else DEFAULT_REPORT_METRICS
        keys: Optional[frozenset] = None
        if sweep is not None:
            job = self.job(sweep)
            if job is None:
                return None
            keys = frozenset(cell.key() for cell in job.cells)
        view = self._view
        with view.lock:
            view.refresh()
            cache_key = (sweep, tuple(group_by), chosen)
            cached = view.reports.get(cache_key)
            if cached is not None:
                _C_CACHE_HIT.value += 1
                return {**cached, "served_from_cache": True}
            _C_CACHE_MISS.value += 1
            with span("serve.report", groups=len(group_by)):
                records, rows = view.report_cells(keys)
                payload: Dict[str, Any] = {
                    "store": self.store_path,
                    "group_by": list(group_by),
                    "metrics": list(chosen),
                    "records": len(records),
                    "groups": report_payload(
                        records, list(group_by), list(chosen), rows=rows
                    ),
                }
                if sweep is not None:
                    payload["sweep"] = sweep
            if len(view.reports) >= 64:
                view.reports.clear()
            view.reports[cache_key] = payload
        return {**payload, "served_from_cache": False}

    def healthz(self) -> Dict[str, Any]:
        with self._lock:
            jobs = list(self._jobs.values())
        return {
            "ok": True,
            "store": self.store_path,
            "sweeps": {
                "total": len(jobs),
                "active": sum(1 for job in jobs if not job.terminal),
            },
            "workers_listen": (
                f"{self.workers_listen[0]}:{self.workers_listen[1]}"
                if self.workers_listen
                else None
            ),
        }

    # -- server lifecycle --------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind the HTTP server and start the runner + serving threads."""
        server = _ServeHTTPServer((host, port), _Handler)
        server.service = self
        self._server = server
        self.address = server.server_address[:2]
        self._runner = threading.Thread(
            target=self._runner_loop, name="repro-serve-runner", daemon=True
        )
        self._runner.start()
        self._server_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": _SHUTDOWN_POLL_S},
            name="repro-serve-http",
            daemon=True,
        )
        self._server_thread.start()
        return self.address

    def join(self) -> None:
        """Block until the server stops (Ctrl-C propagates to the caller)."""
        thread = self._server_thread
        if thread is not None:
            while thread.is_alive():
                thread.join(timeout=0.5)

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._runner is not None:
            self._queue.put(None)
            self._runner.join(timeout=5.0)
            self._runner = None


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: SweepService


# ---------------------------------------------------------------------------
# The HTTP handler.
# ---------------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # Headers and body leave in two writes; with Nagle's algorithm the body
    # waits for the client's delayed ACK of the headers (~40 ms per
    # keep-alive response).
    disable_nagle_algorithm = True

    @property
    def service(self) -> SweepService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        self.service.log(f"http: {format % args}")

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    # -- plumbing ----------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        _C_REQUESTS.value += 1
        path, _, query = self.path.partition("?")
        params = urllib.parse.parse_qs(query)
        try:
            with span("serve.request", method=method, path=path.split("/")[1] or "/"):
                self._route(method, path, params)
        except SpecError as exc:
            _C_BAD_REQUESTS.value += 1
            self._send_json(400, {"error": str(exc), "field": exc.field})
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - one request must not kill the server
            _C_ERRORS.value += 1
            self.service.log(f"http: 500 on {method} {path}: {exc}")
            try:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except OSError:
                self.close_connection = True

    def _route(self, method: str, path: str, params: Dict[str, List[str]]) -> None:
        parts = [part for part in path.split("/") if part]
        if method == "POST":
            if parts == ["sweeps"]:
                return self._post_sweep()
            return self._send_json(404, {"error": f"no POST route {path!r}"})
        if parts == ["healthz"]:
            return self._send_json(200, self.service.healthz())
        if parts == ["metrics"]:
            return self._get_metrics(params)
        if parts == ["report"]:
            return self._get_report(params)
        if len(parts) == 2 and parts[0] == "sweeps":
            return self._get_sweep(parts[1])
        if len(parts) == 3 and parts[0] == "sweeps" and parts[2] == "events":
            return self._stream_events(parts[1])
        if len(parts) == 2 and parts[0] == "results":
            return self._get_result(parts[1])
        self._send_json(404, {"error": f"no route {path!r}"})

    def _send_json(self, status: int, payload: Any) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Any:
        length_text = self.headers.get("Content-Length")
        if length_text is None:
            raise SpecError("POST needs a Content-Length JSON body", field="body")
        try:
            length = int(length_text)
        except ValueError:
            raise SpecError(f"bad Content-Length {length_text!r}", field="body") from None
        if length <= 0 or length > 8 * 1024 * 1024:
            raise SpecError(f"body length {length} out of range", field="body")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise SpecError(f"body is not valid JSON: {exc}", field="body") from None

    # -- routes ------------------------------------------------------------

    def _post_sweep(self) -> None:
        spec = self._read_json_body()
        job, created = self.service.submit(spec)
        snapshot = job.snapshot()
        snapshot["created"] = created
        self._send_json(201 if created else 200, snapshot)

    def _get_sweep(self, job_id: str) -> None:
        job = self.service.job(job_id)
        if job is None:
            return self._send_json(404, {"error": f"unknown sweep {job_id!r}"})
        self._send_json(200, job.snapshot())

    def _get_result(self, key: str) -> None:
        record = self.service.result(key)
        if record is None:
            return self._send_json(
                404,
                {
                    "error": f"no record for key {key!r} (POST its sweep spec "
                    "to /sweeps to compute it)",
                    "key": key,
                },
            )
        self._send_json(200, record)

    def _get_metrics(self, params: Dict[str, List[str]]) -> None:
        snapshot = _metrics.registry().snapshot()
        if params.get("format", [""])[0] == "flat":
            flat = _metrics.flatten_snapshot(snapshot)
            body = "".join(f"{name} {value}\n" for name, value in flat.items()).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self._send_json(200, snapshot)

    def _get_report(self, params: Dict[str, List[str]]) -> None:
        sweep = params.get("sweep", [None])[0]
        group_by = params.get("group_by", ["scenario,adversary"])[0]
        group_fields = [field.strip() for field in group_by.split(",") if field.strip()]
        if not group_fields:
            raise SpecError("'group_by' needs at least one field", field="group_by")
        metrics = params.get("metric") or None
        payload = self.service.report(sweep=sweep, group_by=group_fields, metrics=metrics)
        if payload is None:
            return self._send_json(404, {"error": f"unknown sweep {sweep!r}"})
        self._send_json(200, payload)

    def _stream_events(self, job_id: str) -> None:
        job = self.service.job(job_id)
        if job is None:
            return self._send_json(404, {"error": f"unknown sweep {job_id!r}"})
        _C_EVENT_STREAMS.value += 1
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def write_chunk(payload: Dict[str, Any]) -> None:
            data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")

        sent = 0
        try:
            while True:
                with job.cond:
                    while len(job.events) <= sent and not job.terminal:
                        job.cond.wait(timeout=0.5)
                    batch = job.events[sent:]
                    sent += len(batch)
                    finished = job.terminal and sent == len(job.events)
                for event in batch:
                    write_chunk(event)
                if finished:
                    write_chunk({"event": "end", "sweep": job.id, "status": job.status})
                    break
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away mid-stream
        self.close_connection = True
