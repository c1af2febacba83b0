"""Pluggable execution backends for the sweep runner, and the one shard loop.

:func:`repro.experiments.runner.run_sweep` separates *what* to run (the cache
scan against the result store) from *how* to run it (this module).  A backend
is a :class:`SweepExecutor`: it receives the pending ``(index, cell)`` pairs
and must invoke the result handler exactly once per cell, in completion
order, with either the cell's result record or an error record.

Every backend cuts the sorted pending cells into shards (:func:`plan_shards`)
and runs each through the one shard loop, :func:`iter_shard`, which shares
an intern pool and a base-scenario cache across the shard.  Two backends
ship:

* :class:`SerialExecutor` — in-process, shard by shard, handing over each
  record as its cell finishes (a killed serial sweep loses at most the cell
  in flight).  No process spawn cost: the choice for one worker.
* :class:`~repro.experiments.remote.RemoteExecutor` (``fabric``) — the one
  multi-process engine.  It serves shards over a socket to worker
  processes: a local fleet it forks itself, or ``repro worker`` processes
  that connect from elsewhere.  A worker runs a whole shard per lease
  (:func:`run_shard_monitored`), so on sweeps of many small cells dispatch
  is amortised (see ``benchmarks/test_bench_sweep.py``).  Leases,
  heartbeats, distinct-worker quarantine and worker replacement make it
  survive sick workers (see :mod:`repro.experiments.remote`).  The
  trade-off is checkpoint granularity: a worker reports a whole shard at
  once, so a sweep killed mid-shard loses that shard's
  completed-but-unreported cells (bounded by the shard size).

Every backend produces records identical to the per-cell reference
:func:`~repro.experiments.runner.run_cell` (modulo the ``duration_s``
timing field): cells are seeded by their identity, interning never changes
semantics, and shard boundaries are a scheduling choice only.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..obs.collect import Collector, registry_baseline, registry_delta
from ..simulation.interning import InternPool, intern_pool
from . import faults
from .runner import SweepCell, SweepError, error_record, execute_cell
from .spec import BACKENDS

#: Ceiling on *derived* cells per shard: bounds a worker's intern-pool
#: lifetime (memory) and keeps shards small enough to balance across the
#: fleet.  An explicit ``shard_size`` is the caller's choice and may exceed it.
DEFAULT_MAX_SHARD_CELLS = 32

#: Shards-per-worker target when deriving a shard size automatically; a bit
#: of oversubscription lets the fleet rebalance around slow shards.
_SHARDS_PER_WORKER = 4

#: ``handle(index, cell, record)`` — invoked exactly once per pending cell.
ResultHandler = Callable[[int, SweepCell, Dict[str, Any]], None]


class SweepExecutor(ABC):
    """How the pending cells of one sweep get executed.

    A backend implements :meth:`execute`.  ``run_sweep`` then reads two
    telemetry sources off it: :attr:`worker_telemetry` (metric deltas,
    shard timings and trace events shipped by other processes) and
    :meth:`fabric_summary` (the fabric's event counters, worker liveness
    and event log; empty off the fabric).
    """

    #: Short name reported in outcomes and the CLI.
    name: str = "abstract"

    @abstractmethod
    def execute(self, pending: Sequence[Tuple[int, SweepCell]], handle: ResultHandler) -> None:
        """Run every pending cell, calling ``handle`` once per cell.

        Implementations must never raise on a failing cell; failures are
        reported as ``status: "error"`` records (see
        :func:`~repro.experiments.runner.error_record`).
        """

    @property
    def worker_telemetry(self) -> Collector:
        """Worker metric deltas and shard timings absorbed during execute().

        Lazily created (and stored on the instance ``__dict__``), so custom
        executors that never call ``super().__init__()`` still expose an
        empty collector.  Backends that run work *in-process* must record
        shard wall-time metadata only — their metric increments already land
        in the parent registry, and absorbing them again would double count.
        """
        collector = self.__dict__.get("_worker_telemetry")
        if collector is None:
            collector = Collector()
            self.__dict__["_worker_telemetry"] = collector
        return collector

    def fabric_summary(self) -> Dict[str, Any]:
        """The fabric's robustness accounting (counters, workers, events).

        Persisted as the sweep telemetry's ``fabric`` section (see
        :func:`repro.experiments.runner.run_sweep`); empty for backends
        without a fabric.
        """
        return {}

    def _absorb_worker_payload(
        self, payload: Mapping[str, Any], cells: int, **extra: Any
    ) -> None:
        """Fold one out-of-process worker payload into the telemetry."""
        collector = self.worker_telemetry
        collector.add_metrics(payload.get("metrics"))
        collector.add_shard(cells, float(payload.get("wall_s") or 0.0), **extra)
        collector.add_trace(payload.get("trace"), payload.get("trace_dropped"))


class SerialExecutor(SweepExecutor):
    """Run the planned shards one after another in the calling process.

    There is no fleet to balance, so the shards are as large as the pool
    lifetime ceiling :data:`DEFAULT_MAX_SHARD_CELLS` allows.
    """

    name = "serial"

    def execute(self, pending: Sequence[Tuple[int, SweepCell]], handle: ResultHandler) -> None:
        for shard in plan_shards(pending, workers=1, shard_size=DEFAULT_MAX_SHARD_CELLS):
            records = iter_shard([cell for _, cell in shard])
            for (index, cell), record in zip(shard, records):
                handle(index, cell, record)


def _shard_order(item: Tuple[int, SweepCell]) -> Tuple[Any, ...]:
    cell = item[1]
    # ``None`` (no override) sorts before every int horizon, never against one.
    horizon = (cell.horizon is not None, cell.horizon or 0)
    return (cell.scenario, horizon, cell.params, cell.seed, cell.adversary)


def plan_shards(
    pending: Sequence[Tuple[int, SweepCell]],
    workers: int,
    shard_size: Optional[int] = None,
) -> List[List[Tuple[int, SweepCell]]]:
    """Cut the sorted pending cells into shards.

    Cells are sorted by ``(scenario, horizon override, params, seed,
    adversary)``, so the cells of one parameter assignment sit next to each
    other (a shard's base-scenario cache serves all but the first of them),
    and the sorted list is cut into chunks.  The chunk size is ``shard_size``
    when given, otherwise derived so the sweep yields roughly ``workers *
    4`` shards (bounded by :data:`DEFAULT_MAX_SHARD_CELLS`): enough shards
    for the fleet to balance load, few enough that dispatch stays amortised.
    """
    if shard_size is not None and shard_size < 1:
        raise SweepError(f"shard size must be >= 1, got {shard_size}")
    if shard_size is None:
        target = math.ceil(len(pending) / max(1, workers * _SHARDS_PER_WORKER))
        shard_size = max(1, min(DEFAULT_MAX_SHARD_CELLS, target))
    ordered = sorted(pending, key=_shard_order)
    return [ordered[start : start + shard_size] for start in range(0, len(ordered), shard_size)]


def iter_shard(cells: Sequence[SweepCell]) -> Iterator[Dict[str, Any]]:
    """The one loop that runs sweep cells: one record per cell, in order.

    The serial backend, fabric workers (:func:`run_shard_monitored`) and the
    coordinator's inline drain all run their shards through it.  A run is
    fixed by its scenario instance and its delays, and only the delays
    depend on the adversary, so the shard shares one intern pool and builds
    the base scenario once per ``(scenario, params)``.  The pool is current
    only while a cell runs, never while the caller handles a record.  A
    failing cell yields an error record without poisoning the shard.

    Fault-injection points ``worker.shard`` (once, before the first cell)
    and ``worker.cell`` (per cell) fire here; they are no-ops outside
    marked worker processes (see :mod:`repro.experiments.faults`).
    """
    faults.fire("worker.shard")
    pool = InternPool()
    base_cache: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], Any] = {}
    for cell in cells:
        # Outside the per-cell try: a DropConnection fault must sever the
        # shard (the worker catches it at its connection loop), never
        # masquerade as a cell error record.
        faults.fire("worker.cell")
        with intern_pool(pool):
            try:
                # Hold no reference to the run: it owns its GB(r), which
                # would otherwise stay alive through the next cell.
                record = execute_cell(cell, base_cache=base_cache)[0]
            except Exception as exc:  # noqa: BLE001 - per-cell isolation
                record = error_record(cell, exc)
        yield record


def run_shard_monitored(cells: Sequence[SweepCell]) -> Dict[str, Any]:
    """A fabric worker's payload for one shard: the records of
    :func:`iter_shard`, the shard's registry delta and its wall time.

    The delta is the worker half of the snapshot-delta protocol
    (:mod:`repro.obs.collect`).  Trace events stay in the process buffer:
    the worker drains it per result.
    """
    baseline = registry_baseline()
    started = time.perf_counter()
    records = list(iter_shard(cells))
    return {
        "records": records,
        "metrics": registry_delta(baseline),
        "wall_s": time.perf_counter() - started,
    }


def resolve_executor(
    backend: Union[str, SweepExecutor] = "auto",
    workers: int = 1,
    shard_size: Optional[int] = None,
) -> SweepExecutor:
    """Turn a backend name (or a ready executor) into a :class:`SweepExecutor`.

    ``auto`` picks the serial path for one worker and the fabric otherwise.
    ``fabric`` builds a loopback coordinator that forks ``workers`` local
    worker processes under the default lease; callers who need a fixed
    listen address, external workers, or tuned lease/heartbeat timeouts
    construct a :class:`~repro.experiments.remote.RemoteExecutor` themselves
    and pass it as the backend (the CLI does).
    """
    if isinstance(backend, SweepExecutor):
        return backend
    if workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")
    if backend == "auto":
        backend = "serial" if workers == 1 else "fabric"
    if backend == "serial":
        return SerialExecutor()
    if backend == "fabric":
        from .remote import RemoteExecutor  # executors <-> remote layering

        return RemoteExecutor(workers_hint=workers, local_workers=workers, shard_size=shard_size)
    raise SweepError(f"unknown backend {backend!r}; known: {list(BACKENDS)}")
