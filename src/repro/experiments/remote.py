"""The sweep fabric: coordinator, workers, leases, heartbeats.

Every multi-process sweep runs here.  A :class:`RemoteExecutor` is a
:class:`~repro.experiments.executors.SweepExecutor` that *serves* shards: it
binds a TCP socket, plans shards (:func:`~repro.experiments.executors.\
plan_shards`), and hands them to whatever worker processes connect.  Those
are either a local fleet the executor forks itself (``repro sweep --workers
N``: ``local_workers=N`` on a loopback port) or external ``repro worker
--connect HOST:PORT`` processes (``repro sweep --listen``).  Results stream
back into the sweep's crash-safe :class:`~repro.experiments.store.\
ResultStore` as they arrive, so ``--resume`` doubles as the recovery path
for killed coordinators *and* killed workers alike.

Failure semantics (the design inputs, not afterthoughts):

* **Heartbeats** — every worker pings the coordinator on an interval; a
  worker silent for ``heartbeat_timeout_s`` is declared dead and its shards
  are requeued.
* **Leases** — a shard assignment carries a deadline derived from its size
  (``lease_base_s + lease_cell_s * cells``).  An expired lease is requeued
  even if the worker still heartbeats (it may be wedged in a way that keeps
  threads alive), with exponential backoff between reassignments.
* **Retry + quarantine** — a shard that fails twice is split into
  single-cell shards to isolate the culprit; a cell that fails on
  ``max_cell_failures`` *distinct* workers is quarantined as a
  ``status: "error"`` record instead of being retried forever.
* **Exactly-once delivery** — reassignment means two workers may compute
  the same cell; the coordinator dedupes by cell index, so the sweep's
  result handler fires exactly once per cell (the backend-equivalence
  contract).  Duplicate results are dropped, which is safe because every
  backend produces records identical to serial execution.
* **Local fleet supervision** — a local worker whose process exits, or
  whose lease or heartbeats the scheduler gave up on, is SIGKILLed (if
  still alive) and replaced under a fresh worker id; after
  :data:`MAX_UNPRODUCTIVE_REPLACEMENTS` consecutive replacements that
  finish no shard the fleet is left to shrink.
* **Graceful degradation** — once a local fleet is gone, or when no live
  worker exists for ``local_fallback_after_s``, the coordinator drains
  shards inline, so a sweep never hangs on an empty (or fully dead) fleet.
  A cell that already outran a lease is quarantined rather than drained:
  inline, no deadline could stop it.

Wire protocol: newline-delimited JSON messages over TCP, read with blocking
reads (shutdown unblocks them).  Cells travel as plain JSON
(:func:`cell_to_wire` / :func:`cell_from_wire` — the same schema-stable
identity that keys the result store, so a decoded cell's ``key()`` matches
the coordinator's); the hash-consed run substrate is never shipped — each
worker rebuilds scenarios locally inside its own intern pool
(:func:`~repro.experiments.executors.run_shard_monitored`), per the
interning invariants.  Worker metric deltas ride back on result messages,
so sweep telemetry stays backend-identical; so do the worker's trace events,
drained from its buffer with the count of events the buffer cap dropped.

The deterministic chaos harness (:mod:`repro.experiments.faults`) hooks the
worker runtime at ``worker.connect`` / ``worker.shard`` / ``worker.cell`` /
``worker.result``: tests and ``repro sweep --chaos`` script kills, hangs,
slowdowns, and dropped connections at exact points.  :func:`run_worker`
marks its own process as a fault-scoped worker, so the coordinator (and
its inline drain) stays immune.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..obs import metrics as _metrics
from ..obs.trace import drain_trace_events, dropped_trace_events
from . import faults
from .executors import ResultHandler, SweepExecutor, plan_shards, run_shard_monitored
from .runner import SweepCell, SweepError, error_record

__all__ = [
    "MAX_UNPRODUCTIVE_REPLACEMENTS",
    "FabricScheduler",
    "RemoteExecutor",
    "WorkerFailure",
    "cell_from_wire",
    "cell_to_wire",
    "parse_endpoint",
    "read_message",
    "run_worker",
    "send_message",
]

_C_WORKER_SHARDS = _metrics.counter("remote.worker_shards_executed")
_C_WORKER_RECONNECTS = _metrics.counter("remote.worker_reconnects")


class WorkerFailure(RuntimeError):
    """A cell was quarantined after failing on too many distinct workers."""


# ---------------------------------------------------------------------------
# Wire format: newline-delimited JSON messages, JSON-native cells.
# ---------------------------------------------------------------------------


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one message (a single line of JSON) to a socket."""
    sock.sendall(json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n")


def read_message(reader) -> Optional[Dict[str, Any]]:
    """Read one message from a buffered reader; ``None`` on EOF.

    Malformed lines raise ``ValueError`` (a peer speaking another protocol
    should fail loudly, not silently stall).  Both ends read blocking: a
    socket file that once timed out refuses every later read.
    """
    line = reader.readline()
    if not line:
        return None
    message = json.loads(line)
    if not isinstance(message, dict):
        raise ValueError(f"expected a JSON object per line, got {type(message).__name__}")
    return message


def cell_to_wire(cell: SweepCell) -> Dict[str, Any]:
    """A cell as plain JSON (stable under round-trips: ``key()`` preserved)."""
    return {
        "scenario": cell.scenario,
        "params": [[name, value] for name, value in cell.params],
        "adversary": cell.adversary,
        "seed": cell.seed,
        "analyses": list(cell.analyses),
        "horizon": cell.horizon,
    }


def cell_from_wire(data: Dict[str, Any]) -> SweepCell:
    """Rebuild a cell from its wire form.

    No registry validation: the coordinator already resolved the cell, and a
    worker may legitimately execute cells for stores it did not plan.  The
    run substrate is *not* decoded here — workers re-intern everything
    locally when they build and run the scenario.
    """
    return SweepCell(
        scenario=str(data["scenario"]),
        params=tuple((str(name), value) for name, value in data["params"]),
        adversary=str(data["adversary"]),
        seed=int(data["seed"]),
        analyses=tuple(str(name) for name in data.get("analyses", ())),
        horizon=data.get("horizon"),
    )


# ---------------------------------------------------------------------------
# The scheduler: pure lease/heartbeat/retry state, injected time.
# ---------------------------------------------------------------------------


@dataclass
class _Shard:
    cells: List[Tuple[int, SweepCell]]
    ready_at: float = 0.0
    failures: int = 0
    failed_workers: Set[str] = field(default_factory=set)


@dataclass
class _Lease:
    lease_id: str
    worker: str
    shard: _Shard
    deadline: float


@dataclass
class _Worker:
    worker_id: str
    last_seen: float
    alive: bool = True
    generation: int = 0
    failures: int = 0
    completed_cells: int = 0
    leases: Set[str] = field(default_factory=set)


class FabricScheduler:
    """Lease-based shard assignment with liveness, backoff, and quarantine.

    Pure state machine: every method takes ``now`` (a monotonic timestamp)
    so tests drive it with a fake clock, and it performs no I/O — the
    coordinator owns sockets and locking.  Invariants:

    * every pending cell index is, at all times, in exactly one of: the
      shard queue, an active lease, ``done``, or ``quarantined``;
    * ``complete``/``record_local`` return each index at most once ever
      (duplicate results from reassigned shards are dropped);
    * a failed shard (dead worker, expired lease, severed connection)
      requeues with exponential backoff, splits into single-cell shards
      after two failures, and sheds cells that have failed on
      ``max_cell_failures`` distinct workers into ``quarantined``;
    * a cell that outran a lease (expired, or its worker went silent) is
      never handed out for inline execution: :meth:`take_local`
      quarantines it instead.
    """

    def __init__(
        self,
        pending: Sequence[Tuple[int, SweepCell]],
        *,
        workers_hint: int = 2,
        shard_size: Optional[int] = None,
        lease_base_s: float = 10.0,
        lease_cell_s: float = 5.0,
        heartbeat_timeout_s: float = 5.0,
        max_cell_failures: int = 3,
        backoff_base_s: float = 0.25,
        backoff_max_s: float = 5.0,
    ):
        if lease_base_s <= 0 or lease_cell_s < 0:
            raise SweepError("lease budgets must be positive")
        if heartbeat_timeout_s <= 0:
            raise SweepError("heartbeat timeout must be positive")
        if max_cell_failures < 1:
            raise SweepError("max cell failures must be >= 1")
        self.lease_base_s = lease_base_s
        self.lease_cell_s = lease_cell_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_cell_failures = max_cell_failures
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self._cells: Dict[int, SweepCell] = {index: cell for index, cell in pending}
        self._queue: List[_Shard] = [
            _Shard(cells=list(shard))
            for shard in plan_shards(pending, workers=max(1, workers_hint), shard_size=shard_size)
        ]
        self._leases: Dict[str, _Lease] = {}
        self._workers: Dict[str, _Worker] = {}
        self._done: Set[int] = set()
        self._quarantined: Set[int] = set()
        #: index -> distinct workers whose assignment of this cell failed.
        self._cell_failures: Dict[int, Set[str]] = {}
        self._lease_seq = 0
        #: Workers the scheduler gave up on since the last :meth:`evictions`.
        self._evicted: Set[str] = set()
        #: Cells that failed a lease by outrunning it (expired, or its worker
        #: went silent): never run inline, where no deadline could stop them.
        self._overran: Set[int] = set()
        self.counts: Dict[str, int] = {}
        self.events: List[Dict[str, Any]] = []

    # -- accounting --------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        """Count one fabric event: the only place a fabric event is counted.

        Adds to ``counts[key]`` (the sweep's ``fabric.counters``) and to the
        process registry's ``remote.<key>``, so the two never drift apart.
        The coordinator also counts its own events (worker replacements,
        inline shards) here, under its lock.
        """
        self.counts[key] = self.counts.get(key, 0) + amount
        _metrics.counter(f"remote.{key}").value += amount

    def _event(self, now: float, event: str, **extra: Any) -> None:
        if len(self.events) < 500:  # bounded: telemetry, not a log
            self.events.append({"t": round(now, 3), "event": event, **extra})

    @property
    def total(self) -> int:
        return len(self._cells)

    @property
    def finished(self) -> bool:
        return len(self._done) + len(self._quarantined) == len(self._cells)

    @property
    def outstanding(self) -> int:
        return len(self._cells) - len(self._done) - len(self._quarantined)

    def live_workers(self, now: float) -> int:
        return sum(
            1
            for worker in self._workers.values()
            if worker.alive and now - worker.last_seen <= self.heartbeat_timeout_s
        )

    # -- worker lifecycle --------------------------------------------------

    def _touch(self, worker_id: str, now: float) -> _Worker:
        worker = self._workers.get(worker_id)
        if worker is None:
            worker = self._workers[worker_id] = _Worker(worker_id=worker_id, last_seen=now)
            self.count("workers_joined")
            self._event(now, "worker-joined", worker=worker_id)
        worker.last_seen = now
        if not worker.alive:
            worker.alive = True
            self.count("workers_rejoined")
            self._event(now, "worker-rejoined", worker=worker_id)
        return worker

    def hello(self, worker_id: str, now: float) -> int:
        """Register (or revive) a worker; returns its connection generation."""
        worker = self._touch(worker_id, now)
        worker.generation += 1
        return worker.generation

    def heartbeat(self, worker_id: str, now: float) -> None:
        self._touch(worker_id, now)
        self.count("heartbeats")

    def disconnect(
        self, worker_id: str, generation: int, now: float
    ) -> List[Tuple[int, SweepCell, int]]:
        """A worker's connection closed: kill it (if this is its live link).

        ``generation`` guards reconnecting workers — a stale connection's
        teardown must not kill the fresh session that already said hello.
        Once the sweep is :attr:`finished`, a disconnect is the clean
        shutdown, not a death.  Returns the cells newly quarantined by
        requeueing its leases.
        """
        worker = self._workers.get(worker_id)
        if (
            worker is None
            or worker.generation != generation
            or not worker.alive
            or self.finished
        ):
            return []
        return self._kill_worker(worker, now, reason="disconnect")

    def _kill_worker(
        self, worker: _Worker, now: float, reason: str
    ) -> List[Tuple[int, SweepCell, int]]:
        worker.alive = False
        self.count("workers_dead")
        self._event(now, "worker-dead", worker=worker.worker_id, reason=reason)
        quarantined: List[Tuple[int, SweepCell, int]] = []
        for lease_id in list(worker.leases):
            lease = self._leases.get(lease_id)
            if lease is not None:
                quarantined.extend(self._fail_lease(lease, now, reason=reason))
        return quarantined

    # -- assignment --------------------------------------------------------

    def try_assign(self, worker_id: str, now: float) -> Optional[Dict[str, Any]]:
        """Grant the next ready shard to a worker, as an ``assign`` message.

        Shards that already failed on this worker are offered to it only
        when nothing else is ready (a sole surviving worker must still be
        able to finish the sweep).
        """
        worker = self._touch(worker_id, now)
        choice: Optional[int] = None
        fallback: Optional[int] = None
        for position, shard in enumerate(self._queue):
            if shard.ready_at > now:
                continue
            if worker_id in shard.failed_workers:
                if fallback is None:
                    fallback = position
                continue
            choice = position
            break
        if choice is None:
            choice = fallback
        if choice is None:
            return None
        shard = self._queue.pop(choice)
        self._lease_seq += 1
        lease_id = f"lease-{self._lease_seq}"
        deadline = now + self.lease_base_s + self.lease_cell_s * len(shard.cells)
        self._leases[lease_id] = _Lease(
            lease_id=lease_id, worker=worker_id, shard=shard, deadline=deadline
        )
        worker.leases.add(lease_id)
        self.count("leases_granted")
        return {
            "type": "assign",
            "lease": lease_id,
            "deadline_s": round(deadline - now, 3),
            "cells": [
                {"index": index, "cell": cell_to_wire(cell)}
                for index, cell in shard.cells
            ],
        }

    # -- results -----------------------------------------------------------

    def complete(
        self,
        worker_id: str,
        lease_id: Optional[str],
        results: Sequence[Tuple[int, Dict[str, Any]]],
        now: float,
    ) -> List[Tuple[int, SweepCell, Dict[str, Any]]]:
        """Accept a worker's results; return only the first-seen cells.

        Results for unknown/expired leases are still accepted (cell-level
        dedup makes that safe, and the work is already paid for); duplicates
        and results for quarantined cells are dropped so the handler fires
        exactly once per cell.
        """
        worker = self._touch(worker_id, now)
        self.count("results_received")
        lease = self._leases.pop(lease_id, None) if lease_id else None
        if lease is not None:
            self._workers[lease.worker].leases.discard(lease.lease_id)
        fresh: List[Tuple[int, SweepCell, Dict[str, Any]]] = []
        for index, record in results:
            if index in self._done or index in self._quarantined or index not in self._cells:
                self.count("duplicates_dropped")
                continue
            self._done.add(index)
            worker.completed_cells += 1
            fresh.append((index, self._cells[index], record))
        return fresh

    # -- failure handling --------------------------------------------------

    def _fail_lease(
        self, lease: _Lease, now: float, reason: str
    ) -> List[Tuple[int, SweepCell, int]]:
        self._leases.pop(lease.lease_id, None)
        worker = self._workers.get(lease.worker)
        if worker is not None:
            worker.leases.discard(lease.lease_id)
            worker.failures += 1
        shard = lease.shard
        shard.failures += 1
        shard.failed_workers.add(lease.worker)
        self.count("shard_retries")
        self._event(now, "shard-requeued", worker=lease.worker, reason=reason,
                    cells=len(shard.cells), failures=shard.failures)
        quarantined: List[Tuple[int, SweepCell, int]] = []
        keep: List[Tuple[int, SweepCell]] = []
        for index, cell in shard.cells:
            if index in self._done or index in self._quarantined:
                continue
            failed_on = self._cell_failures.setdefault(index, set())
            failed_on.add(lease.worker)
            if reason in ("lease-expired", "missed-heartbeats"):
                self._overran.add(index)
            if len(failed_on) >= self.max_cell_failures:
                quarantined.append(self._quarantine(index, cell, now))
            else:
                keep.append((index, cell))
        if keep:
            backoff = min(
                self.backoff_max_s,
                self.backoff_base_s * (2 ** max(0, shard.failures - 1)),
            )
            ready_at = now + backoff
            if len(keep) > 1 and shard.failures >= 2:
                # Split to isolate a poison cell: from here each cell fails
                # (and is quarantined) on its own.
                for index, cell in keep:
                    self._queue.append(
                        _Shard(
                            cells=[(index, cell)],
                            ready_at=ready_at,
                            failures=shard.failures,
                            failed_workers=set(shard.failed_workers),
                        )
                    )
            else:
                shard.cells = keep
                shard.ready_at = ready_at
                self._queue.append(shard)
        return quarantined

    def _quarantine(self, index: int, cell: SweepCell, now: float) -> Tuple[int, SweepCell, int]:
        distinct = len(self._cell_failures.get(index, ()))
        self._quarantined.add(index)
        self.count("cells_quarantined")
        self._event(now, "cell-quarantined", index=index, distinct_workers=distinct)
        return index, cell, distinct

    def expire(self, now: float) -> List[Tuple[int, SweepCell, int]]:
        """Advance liveness: dead workers and expired leases requeue shards.

        Returns cells newly quarantined in the process (the coordinator
        turns them into error records).  This is the method that guarantees
        a sweep never waits past a lease deadline: it runs on every
        coordinator tick regardless of socket traffic.
        """
        quarantined: List[Tuple[int, SweepCell, int]] = []
        for worker in self._workers.values():
            if worker.alive and now - worker.last_seen > self.heartbeat_timeout_s:
                self._evicted.add(worker.worker_id)
                quarantined.extend(
                    self._kill_worker(worker, now, reason="missed-heartbeats")
                )
        for lease in list(self._leases.values()):
            if now > lease.deadline:
                self.count("leases_expired")
                self._event(now, "lease-expired", worker=lease.worker,
                            lease=lease.lease_id)
                self._evicted.add(lease.worker)
                quarantined.extend(self._fail_lease(lease, now, reason="lease-expired"))
        return quarantined

    def evictions(self) -> Set[str]:
        """Workers :meth:`expire` gave up on since the last call.

        A worker lands here when it missed its heartbeats or held an expired
        lease; the coordinator replaces such workers when it owns their
        processes (a local fleet).  Disconnects are not evictions: a severed
        connection may reconnect under the same id.
        """
        evicted, self._evicted = self._evicted, set()
        return evicted

    # -- local fallback ----------------------------------------------------

    def take_local(
        self, now: float
    ) -> Optional[Tuple[List[Tuple[int, SweepCell]], List[Tuple[int, SweepCell, int]]]]:
        """Pop one queued shard for inline execution (ignores backoff).

        Returns ``(cells to run, cells quarantined)``, or ``None`` once the
        queue is empty.  A cell that already outran a lease is quarantined
        instead of run: inline, nothing could stop it hanging the sweep.
        """
        if not self._queue:
            return None
        position = min(
            range(len(self._queue)), key=lambda i: self._queue[i].ready_at
        )
        shard = self._queue.pop(position)
        run: List[Tuple[int, SweepCell]] = []
        quarantined: List[Tuple[int, SweepCell, int]] = []
        for index, cell in shard.cells:
            if index in self._done or index in self._quarantined:
                continue
            if index in self._overran:
                quarantined.append(self._quarantine(index, cell, now))
            else:
                run.append((index, cell))
        return run, quarantined

    def record_local(
        self, results: Sequence[Tuple[int, SweepCell, Dict[str, Any]]]
    ) -> List[Tuple[int, SweepCell, Dict[str, Any]]]:
        """Register inline-executed cells (same dedup as :meth:`complete`)."""
        fresh: List[Tuple[int, SweepCell, Dict[str, Any]]] = []
        for index, cell, record in results:
            if index in self._done or index in self._quarantined:
                self.count("duplicates_dropped")
                continue
            self._done.add(index)
            self.count("local_fallback_cells")
            fresh.append((index, cell, record))
        return fresh

    # -- telemetry ---------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Liveness and retry accounting for the sweep telemetry record."""
        return {
            "backend": "fabric",
            "cells": len(self._cells),
            "completed": len(self._done),
            "quarantined": len(self._quarantined),
            "counters": dict(self.counts),
            "workers": {
                worker_id: {
                    "alive": worker.alive,
                    "failures": worker.failures,
                    "completed_cells": worker.completed_cells,
                }
                for worker_id, worker in self._workers.items()
            },
            "events": list(self.events),
        }


# ---------------------------------------------------------------------------
# The coordinator.
# ---------------------------------------------------------------------------

#: Consecutive local-worker replacements that finish no shard before the
#: coordinator stops replacing and lets the fleet shrink (then drains
#: inline once it is gone).
MAX_UNPRODUCTIVE_REPLACEMENTS = 3

#: How long a local worker re-dials a vanished coordinator before exiting:
#: a live loopback coordinator answers at once.
_LOCAL_CONNECT_TIMEOUT_S = 1.0

#: How often a local worker checks that the coordinator process still
#: exists (it exits once orphaned).
_PARENT_CHECK_S = 0.5

#: How long the end of a sweep waits for local workers to exit on their own
#: (they get ``shutdown`` on their next message) before SIGKILLing them.
_FLEET_GRACE_S = 2.0


def _run_local_worker(listener: socket.socket, connect: str, worker_id: str) -> int:
    """Entry point of a forked local worker: :func:`run_worker`, tied to
    the life of the coordinator process.

    The fork copied the coordinator's sockets.  Closing the listener copy
    makes a re-dial after the coordinator closed it fail instead of queueing
    on a socket only this worker holds.  Copies of other workers'
    connections may still keep a dead coordinator's links open, so the
    worker also exits as soon as it is orphaned.
    """
    listener.close()
    # The fork also copied the coordinator's trace buffer; those events are
    # the coordinator's to report, not this worker's to ship.
    drain_trace_events()
    parent = os.getppid()

    def exit_when_orphaned() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_CHECK_S)
        os._exit(1)

    threading.Thread(
        target=exit_when_orphaned, name="repro-worker-parent-watch", daemon=True
    ).start()
    return run_worker(connect, worker_id=worker_id, connect_timeout_s=_LOCAL_CONNECT_TIMEOUT_S)


class _LocalFleet:
    """The worker processes a local fabric sweep forks for itself.

    Each runs :func:`run_worker` (via :func:`_run_local_worker`) against the
    coordinator's loopback port under a fresh id, started with the default
    :mod:`multiprocessing` start method.  :meth:`supervise` replaces dead
    or evicted workers; :meth:`stop` joins every process, so none outlives
    the sweep and each one's resource usage is accounted to the sweep
    process.
    """

    def __init__(self, listener: socket.socket, size: int):
        self.listener = listener
        address = listener.getsockname()
        self.connect = f"{address[0]}:{address[1]}"
        self.procs: Dict[str, Any] = {}
        self._spawned = 0
        self._unproductive = 0
        self._results_seen = 0
        for _ in range(size):
            self._spawn()

    def _spawn(self) -> None:
        self._spawned += 1
        worker_id = f"local-{self._spawned}"
        proc = multiprocessing.Process(
            target=_run_local_worker,
            args=(self.listener, self.connect, worker_id),
            name=f"repro-{worker_id}",
            daemon=True,
        )
        proc.start()
        self.procs[worker_id] = proc

    def supervise(self, evicted: Set[str], results_received: int) -> int:
        """Replace workers that exited or were evicted; returns how many."""
        if results_received > self._results_seen:
            self._results_seen = results_received
            self._unproductive = 0
        replaced = 0
        for worker_id, proc in list(self.procs.items()):
            if proc.is_alive() and worker_id not in evicted:
                continue
            if proc.is_alive():
                proc.kill()
            proc.join()
            del self.procs[worker_id]
            if self._unproductive < MAX_UNPRODUCTIVE_REPLACEMENTS:
                self._unproductive += 1
                # Forks while the coordinator's threads run: safe because
                # the child only runs run_worker, which takes none of the
                # locks those threads hold.
                self._spawn()
                replaced += 1
        return replaced

    def stop(self) -> None:
        deadline = time.monotonic() + _FLEET_GRACE_S
        for proc in self.procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self.procs.values():
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.procs.clear()


class RemoteExecutor(SweepExecutor):
    """Serve sweep shards to worker processes over a socket wire protocol.

    Construction binds the listening socket immediately (``port=0`` picks an
    ephemeral port), so :attr:`address` is known before :meth:`execute`
    starts and workers may connect early — they wait in the listen backlog
    until the sweep begins.  A worker's ``ready`` is answered with a shard
    or, once the sweep is over, ``shutdown``.  One executor
    serves one ``execute()`` call; the server socket closes when it returns.

    With ``local_workers=N`` the executor forks its own fleet of ``N``
    workers when the sweep starts (before it accepts connections) and
    supervises it (:class:`_LocalFleet`); with ``0`` it only serves workers
    that connect from outside.

    All scheduler state is guarded by one lock; connection threads only
    translate messages into scheduler calls and queue deliveries — the
    sweep's result handler runs exclusively on the :meth:`execute` thread,
    which also enforces lease deadlines on every tick (so a hung fleet can
    never stall the sweep past its deadlines) and degrades to inline
    execution when no live workers remain.

    Every fabric event is counted once, by :meth:`FabricScheduler.count`
    (under the lock), including the coordinator's own ``workers_replaced``
    and ``local_fallback_shards``; :meth:`fabric_summary` is the
    scheduler's :meth:`~FabricScheduler.summary` (``counters``,
    ``workers``, ``events``).
    """

    name = "fabric"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers_hint: int = 2,
        local_workers: int = 0,
        shard_size: Optional[int] = None,
        lease_base_s: float = 10.0,
        lease_cell_s: float = 5.0,
        heartbeat_timeout_s: float = 5.0,
        max_cell_failures: int = 3,
        backoff_base_s: float = 0.25,
        backoff_max_s: float = 5.0,
        local_fallback_after_s: Optional[float] = 30.0,
        poll_s: float = 0.05,
    ):
        if workers_hint < 1:
            raise SweepError(f"workers hint must be >= 1, got {workers_hint}")
        if local_workers < 0:
            raise SweepError(f"local workers must be >= 0, got {local_workers}")
        self.workers_hint = workers_hint
        self.local_workers = local_workers
        self.shard_size = shard_size
        self.lease_base_s = lease_base_s
        self.lease_cell_s = lease_cell_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_cell_failures = max_cell_failures
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.local_fallback_after_s = local_fallback_after_s
        self.poll_s = poll_s
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(64)
        self._server.settimeout(0.2)
        self.address: Tuple[str, int] = self._server.getsockname()[:2]
        self._scheduler: Optional[FabricScheduler] = None
        self._fleet: Optional[_LocalFleet] = None
        self._lock = threading.Lock()
        #: Wakes connections long-polling for a shard (see _await_assignment).
        self._wakeup = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._conns: List[socket.socket] = []
        self._threads: List[threading.Thread] = []

    # -- public surface ----------------------------------------------------

    def execute(self, pending: Sequence[Tuple[int, SweepCell]], handle: ResultHandler) -> None:
        try:
            if pending:
                self._execute(pending, handle)
        finally:
            self._shutdown()
            if self._fleet is not None:
                self._fleet.stop()

    def fabric_summary(self) -> Dict[str, Any]:
        # Locked: `repro serve` snapshots read it while the sweep runs.
        with self._lock:
            return {} if self._scheduler is None else self._scheduler.summary()

    # -- coordinator main loop ---------------------------------------------

    def _execute(self, pending: Sequence[Tuple[int, SweepCell]], handle: ResultHandler) -> None:
        scheduler = FabricScheduler(
            pending,
            workers_hint=self.workers_hint,
            shard_size=self.shard_size,
            lease_base_s=self.lease_base_s,
            lease_cell_s=self.lease_cell_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            max_cell_failures=self.max_cell_failures,
            backoff_base_s=self.backoff_base_s,
            backoff_max_s=self.backoff_max_s,
        )
        self._scheduler = scheduler
        if self.local_workers:
            # Forked before any coordinator thread exists; they queue in the
            # listen backlog until the accept thread starts.
            self._fleet = _LocalFleet(self._server, self.local_workers)
        deliveries: "queue.Queue[Tuple[str, Any]]" = queue.Queue()
        accept_thread = threading.Thread(
            target=self._accept_loop,
            args=(scheduler, deliveries),
            name="repro-coordinator-accept",
            daemon=True,
        )
        accept_thread.start()
        no_workers_since: Optional[float] = time.monotonic()
        while True:
            with self._lock:
                finished = scheduler.finished
            if finished:
                break
            self._drain(deliveries, handle)
            now = time.monotonic()
            with self._lock:
                quarantined = scheduler.expire(now)
                live = scheduler.live_workers(now)
                evicted = scheduler.evictions()
                results_received = scheduler.counts.get("results_received", 0)
                finished = scheduler.finished
            self._emit_quarantined(quarantined, handle)
            if finished:
                continue  # the expiry quarantined the last cells
            if self._fleet is not None:
                replaced = self._fleet.supervise(evicted, results_received)
                if replaced:
                    with self._lock:
                        scheduler.count("workers_replaced", replaced)
            if live:
                no_workers_since = None
            elif no_workers_since is None:
                no_workers_since = now
            # Drain inline once the local fleet is gone (replacing it
            # stopped paying), or after the no-worker fallback delay.
            fleet_gone = self._fleet is not None and not self._fleet.procs
            fallback_due = (
                no_workers_since is not None
                and self.local_fallback_after_s is not None
                and now - no_workers_since >= self.local_fallback_after_s
            )
            if (fleet_gone or fallback_due) and self._run_local_shard(scheduler, handle):
                continue
            try:
                event = deliveries.get(timeout=self.poll_s)
            except queue.Empty:
                continue
            self._handle_delivery(event, handle)
        self._drain(deliveries, handle)

    def _drain(self, deliveries: "queue.Queue[Tuple[str, Any]]", handle: ResultHandler) -> None:
        while True:
            try:
                event = deliveries.get_nowait()
            except queue.Empty:
                return
            self._handle_delivery(event, handle)

    def _handle_delivery(self, event: Tuple[str, Any], handle: ResultHandler) -> None:
        kind, value = event
        if kind == "fresh":
            for index, cell, record in value:
                handle(index, cell, record)
        elif kind == "payload":
            payload, cells = value
            self._absorb_worker_payload(payload, cells=cells)
        elif kind == "quarantined":
            self._emit_quarantined(value, handle)

    def _emit_quarantined(
        self,
        quarantined: Sequence[Tuple[int, SweepCell, int]],
        handle: ResultHandler,
    ) -> None:
        for index, cell, distinct in quarantined:
            handle(
                index,
                cell,
                error_record(
                    cell,
                    WorkerFailure(
                        f"cell failed on {distinct} distinct worker(s); quarantined"
                    ),
                ),
            )

    def _run_local_shard(self, scheduler: FabricScheduler, handle: ResultHandler) -> bool:
        """Graceful degradation: drain one shard inline (no live workers).

        Returns whether a shard was queued to drain (a dead worker's shard
        is queued again only once its disconnect or lease expiry lands).
        """
        with self._lock:
            taken = scheduler.take_local(time.monotonic())
        if taken is None:
            return False
        shard, quarantined = taken
        self._emit_quarantined(quarantined, handle)
        if not shard:
            return True
        payload = run_shard_monitored([cell for _, cell in shard])
        with self._lock:
            fresh = scheduler.record_local(
                [(index, cell, record) for (index, cell), record in zip(shard, payload["records"])]
            )
            scheduler.count("local_fallback_shards")
        # In-process execution: metrics already landed in the parent
        # registry, so record shard wall-time metadata only.
        self.worker_telemetry.add_shard(
            len(shard), payload["wall_s"], in_process=True, local_fallback=True
        )
        for index, cell, record in fresh:
            handle(index, cell, record)
        return True

    # -- connection handling -----------------------------------------------

    def _accept_loop(
        self, scheduler: FabricScheduler, deliveries: "queue.Queue[Tuple[str, Any]]"
    ) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # server socket closed: coordinator shutting down
            # Blocking reads: a worker may compute for longer than any read
            # timeout between messages, and a timed-out socket file refuses
            # every later read.  _shutdown() unblocks readers instead.
            conn.settimeout(None)
            with self._lock:
                if self._stop.is_set():
                    conn.close()
                    return
                self._conns.append(conn)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, scheduler, deliveries),
                name="repro-coordinator-conn",
                daemon=True,
            )
            # Registered only once started, under the lock: _shutdown joins
            # what it finds there, and joining an unstarted thread raises.
            # A thread registered after shutdown took its copy still ends:
            # its connection was in _conns, which shutdown closes.
            thread.start()
            with self._lock:
                self._threads.append(thread)

    def _serve_connection(
        self,
        conn: socket.socket,
        scheduler: FabricScheduler,
        deliveries: "queue.Queue[Tuple[str, Any]]",
    ) -> None:
        reader = conn.makefile("rb")
        worker_id: Optional[str] = None
        generation = 0
        try:
            while not self._stop.is_set():
                try:
                    message = read_message(reader)
                except (OSError, ValueError):
                    break
                if message is None:
                    break  # EOF: the worker hung up (or shutdown unblocked us)
                mtype = message.get("type")
                now = time.monotonic()
                response: Optional[Dict[str, Any]] = None
                with self._lock:
                    if mtype == "hello":
                        worker_id = str(message.get("worker") or f"anon-{id(conn):x}")
                        generation = scheduler.hello(worker_id, now)
                    elif mtype == "heartbeat":
                        scheduler.heartbeat(str(message.get("worker")), now)
                    elif mtype == "ready":
                        response = self._await_assignment(
                            scheduler, str(message.get("worker"))
                        )
                    elif mtype == "result":
                        wid = str(message.get("worker"))
                        results = [
                            (int(entry["index"]), entry["record"])
                            for entry in message.get("results", ())
                            if isinstance(entry, dict)
                        ]
                        fresh = scheduler.complete(wid, message.get("lease"), results, now)
                        payload = {
                            "metrics": message.get("metrics"),
                            "wall_s": message.get("wall_s"),
                            "trace": message.get("trace"),
                            "trace_dropped": message.get("trace_dropped"),
                        }
                        deliveries.put(("payload", (payload, len(results))))
                        if fresh:
                            deliveries.put(("fresh", fresh))
                        if scheduler.finished:
                            self._wakeup.notify_all()
                if response is not None:
                    try:
                        send_message(conn, response)
                    except OSError:
                        break
                    if response.get("type") == "shutdown":
                        break
        finally:
            try:
                reader.close()
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
            if worker_id is not None:
                now = time.monotonic()
                with self._lock:
                    quarantined = scheduler.disconnect(worker_id, generation, now)
                if quarantined:
                    deliveries.put(("quarantined", quarantined))

    def _await_assignment(self, scheduler: FabricScheduler, worker_id: str) -> Dict[str, Any]:
        """Answer ``ready``: the next shard for this worker, or ``shutdown``.

        A long poll: with nothing ready (every shard leased or backing off)
        the connection waits — re-checking every ``poll_s`` — instead of
        telling the worker to sleep and ask again, so an idle worker hears
        about requeued shards and the end of the sweep at once.  Called with
        the lock held; waiting releases it.  Every pass touches the worker
        (``try_assign``), so a waiting worker stays live although its
        heartbeats go unread meanwhile.
        """
        while not (self._stop.is_set() or scheduler.finished):
            assignment = scheduler.try_assign(worker_id, time.monotonic())
            if assignment is not None:
                return assignment
            self._wakeup.wait(self.poll_s)
        return {"type": "shutdown"}

    def _shutdown(self) -> None:
        with self._lock:
            self._stop.set()
            self._wakeup.notify_all()
            conns = list(self._conns)
            threads = list(self._threads)
        try:
            self._server.close()
        except OSError:
            pass
        for conn in conns:
            try:
                send_message(conn, {"type": "shutdown"})
            except OSError:
                pass
            try:
                # Wakes this connection's blocked reader (EOF), whichever
                # processes still hold a descriptor for the socket.
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=1.0)


# ---------------------------------------------------------------------------
# The worker runtime (`repro worker --connect HOST:PORT`).
# ---------------------------------------------------------------------------


def parse_endpoint(text: str, what: str = "address", resolve: bool = True) -> Tuple[str, int]:
    """Parse and validate ``HOST:PORT``: the one endpoint parser of
    ``repro sweep --listen``, ``repro worker --connect`` and ``repro serve``.

    Raises :class:`SweepError` (one line, CLI-renderable) on a missing or
    non-numeric port, an out-of-range port, or — with ``resolve`` — a host
    that does not resolve.  An empty host (``:8080``) means loopback;
    bracketed IPv6 literals (``[::1]:8080``) are accepted.
    """
    host, sep, port_text = text.rpartition(":")
    if not sep or not port_text:
        raise SweepError(f"{what} expects HOST:PORT, got {text!r} (missing port)")
    try:
        port = int(port_text)
    except ValueError:
        raise SweepError(
            f"{what} expects a numeric port, got {port_text!r} in {text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise SweepError(f"{what} port must be in [0, 65535], got {port}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    host = host or "127.0.0.1"
    if resolve:
        try:
            socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)
        except OSError as exc:
            raise SweepError(f"{what}: cannot resolve host {host!r}: {exc}") from None
    return host, port


def _connect_with_retry(
    address: Tuple[str, int], deadline: float, retry_s: float = 0.2
) -> Optional[socket.socket]:
    """Dial the coordinator, retrying until ``deadline`` (monotonic)."""
    while True:
        try:
            sock = socket.create_connection(address, timeout=2.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                return None
            time.sleep(retry_s)


def run_worker(
    connect: str,
    *,
    worker_id: Optional[str] = None,
    heartbeat_s: float = 1.0,
    faults_spec: Optional[str] = None,
    connect_timeout_s: float = 30.0,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """The worker main loop: connect, heartbeat, execute leases, repeat.

    Returns 0 when the coordinator sends ``shutdown``, 1 when the
    coordinator becomes unreachable for ``connect_timeout_s``.  The process
    is marked as a fault-injection worker, so ``--faults`` (or the
    ``REPRO_FAULTS`` environment) scripts kills, hangs, slowdowns, and
    dropped connections deterministically; a dropped connection (injected or
    real) reconnects under the same worker id and the lease machinery
    re-covers whatever was in flight.  A malformed or unresolvable
    ``connect`` raises :class:`SweepError` (see :func:`parse_endpoint`).
    """
    # Parsed (and resolved) before anything else: a malformed or unknown
    # host fails fast instead of spinning in the connect-retry loop.
    address = parse_endpoint(connect, what="--connect")
    faults.mark_worker(faults_spec)
    wid = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    notify = log or (lambda message: None)
    deadline = time.monotonic() + connect_timeout_s
    first_session = True
    while True:
        sock = _connect_with_retry(address, deadline)
        if sock is None:
            notify(f"worker {wid}: coordinator unreachable, giving up")
            return 1
        if not first_session:
            _C_WORKER_RECONNECTS.value += 1
        first_session = False
        outcome = _worker_session(
            sock,
            wid,
            heartbeat_s=heartbeat_s,
            notify=notify,
        )
        if outcome == "shutdown":
            notify(f"worker {wid}: shutdown received, exiting")
            return 0
        # Severed connection (injected drop, coordinator restart, network
        # blip): re-dial inside a fresh retry window.
        deadline = time.monotonic() + connect_timeout_s


def _worker_session(
    sock: socket.socket,
    wid: str,
    *,
    heartbeat_s: float,
    notify: Callable[[str], None],
) -> str:
    """One connection's lifetime; returns ``"shutdown"`` or ``"reconnect"``."""
    write_lock = threading.Lock()
    stop_heartbeats = threading.Event()

    def send(message: Dict[str, Any]) -> None:
        with write_lock:
            send_message(sock, message)

    def heartbeat_loop() -> None:
        while not stop_heartbeats.wait(heartbeat_s):
            if faults.hang_active():
                continue  # a hung process does not heartbeat
            try:
                send({"type": "heartbeat", "worker": wid})
            except OSError:
                # The coordinator is gone: wake the blocked reader too.
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                return

    reader = sock.makefile("rb")
    # Blocking reads (see RemoteExecutor._accept_loop): the coordinator
    # answers ``ready`` once it has a shard (or the sweep is over), and a
    # severed link reads as EOF.
    sock.settimeout(None)
    heartbeat_thread = threading.Thread(
        target=heartbeat_loop, name="repro-worker-heartbeat", daemon=True
    )
    try:
        try:
            faults.fire("worker.connect")
            send({"type": "hello", "worker": wid, "pid": os.getpid()})
        except (OSError, faults.DropConnection):
            return "reconnect"
        heartbeat_thread.start()
        while True:
            try:
                send({"type": "ready", "worker": wid})
            except OSError:
                return "reconnect"
            try:
                message = read_message(reader)
            except (OSError, ValueError):
                return "reconnect"
            if message is None:
                return "reconnect"
            mtype = message.get("type")
            if mtype == "shutdown":
                return "shutdown"
            if mtype != "assign":
                continue
            entries = message.get("cells", ())
            indices = [int(entry["index"]) for entry in entries]
            cells = [cell_from_wire(entry["cell"]) for entry in entries]
            notify(f"worker {wid}: lease {message.get('lease')} ({len(cells)} cells)")
            try:
                payload = run_shard_monitored(cells)
                _C_WORKER_SHARDS.value += 1
                faults.fire("worker.result")
                # Drained, not sliced: a long-lived worker's buffer would
                # otherwise fill up once and ship nothing from then on.
                dropped = dropped_trace_events()
                trace = drain_trace_events()
                send(
                    {
                        "type": "result",
                        "worker": wid,
                        "lease": message.get("lease"),
                        "wall_s": payload["wall_s"],
                        "metrics": payload["metrics"],
                        "trace": trace,
                        "trace_dropped": dropped,
                        "results": [
                            {"index": index, "record": record}
                            for index, record in zip(indices, payload["records"])
                        ],
                    }
                )
            except faults.DropConnection:
                return "reconnect"
            except OSError:
                return "reconnect"
    finally:
        stop_heartbeats.set()
        try:
            reader.close()
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass
