"""Pluggable execution backends for the sweep runner.

:func:`repro.experiments.runner.run_sweep` separates *what* to run (the cache
scan against the result store) from *how* to run it (this module).  A backend
is a :class:`SweepExecutor`: it receives the pending ``(index, cell)`` pairs
and must invoke the result handler exactly once per cell, in completion
order, with either the cell's result record or an error record.

Two backends ship:

* :class:`SerialExecutor` — in-process, cell by cell.  No process spawn
  cost, so it is the right choice for single-worker runs and tiny sweeps,
  and it is the reference every other backend must reproduce.
* :class:`~repro.experiments.remote.RemoteExecutor` (``fabric``) — the one
  multi-process engine.  It groups cells into *shards* of structurally
  similar cells (:func:`plan_shards`) and serves them over a socket to
  worker processes: a local fleet it forks itself, or ``repro worker``
  processes that connect from elsewhere.  Each worker runs a whole shard
  through :func:`run_shard_monitored`: the hash-consing intern pool is
  shared across the shard and the base scenario is built once per
  parameter assignment, so on sweeps of many small cells dispatch is
  amortised (see ``benchmarks/test_bench_sweep.py``).  Leases, heartbeats,
  distinct-worker quarantine and worker replacement make it survive sick
  workers (see :mod:`repro.experiments.remote`).  The trade-off is
  checkpoint granularity: a worker reports a whole shard at once, so a
  sweep killed mid-shard loses that shard's completed-but-unreported cells
  (bounded by the shard size).

Every backend produces records identical to the serial one (modulo the
``duration_s`` timing field): cells are seeded by their identity, interning
never changes semantics, and shard grouping is a scheduling hint only.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..obs.collect import Collector, registry_baseline, registry_delta
from ..obs.trace import trace_events
from ..scenarios.base import RegistryError, get_scenario
from ..simulation.interning import intern_pool
from . import faults
from .runner import SweepCell, SweepError, error_record, execute_cell_inline, run_cell

#: The backend names ``run_sweep``/the CLI accept.
BACKENDS: Tuple[str, ...] = ("auto", "serial", "fabric")

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
    """How the pending cells of one sweep get executed."""

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

    @property
    def fabric(self) -> Dict[str, Any]:
        """Mutable robustness accounting (replacements, inline fallbacks).

        Persisted into the sweep telemetry record as its ``fabric`` section
        (see :func:`repro.experiments.runner.run_sweep`); lazily created so
        executors that never touch it ship nothing.
        """
        stats = self.__dict__.get("_fabric")
        if stats is None:
            stats = {}
            self.__dict__["_fabric"] = stats
        return stats

    def fabric_summary(self) -> Dict[str, Any]:
        """A JSON-safe copy of the robustness accounting (may be empty)."""
        return dict(self.__dict__.get("_fabric") or {})

    def _bump(self, key: str, amount: int = 1) -> None:
        fabric = self.fabric
        fabric[key] = fabric.get(key, 0) + amount

    def _absorb_worker_payload(
        self, payload: Mapping[str, Any], cells: int, **extra: Any
    ) -> None:
        """Fold one out-of-process worker payload into the telemetry."""
        collector = self.worker_telemetry
        collector.add_metrics(payload.get("metrics"))
        collector.add_shard(cells, float(payload.get("wall_s") or 0.0), **extra)
        collector.add_trace(payload.get("trace"))


class SerialExecutor(SweepExecutor):
    """Run cells one after another in the calling process."""

    name = "serial"

    def execute(self, pending: Sequence[Tuple[int, SweepCell]], handle: ResultHandler) -> None:
        for index, cell in pending:
            try:
                record = run_cell(cell)
            except Exception as exc:  # noqa: BLE001 - per-cell isolation
                record = error_record(cell, exc)
            handle(index, cell, record)


def shard_signature(cell: SweepCell) -> Tuple[Any, ...]:
    """The grouping key of a cell for sharded execution.

    Scenario name, the sweep-level horizon override, and the values of every
    parameter the scenario flags as a shard key.  Cells sharing a signature
    build the same family of instances, so running them in one worker shard
    maximises intern-pool and scenario-construction reuse.  Unregistered
    scenarios (possible when decoding foreign stores) degrade to the name.
    """
    try:
        spec = get_scenario(cell.scenario)
    except RegistryError:
        return (cell.scenario, cell.horizon)
    params = cell.params_dict()
    structural = tuple((name, params.get(name)) for name in spec.shard_params())
    return (cell.scenario, cell.horizon) + structural


def plan_shards(
    pending: Sequence[Tuple[int, SweepCell]],
    workers: int,
    shard_size: Optional[int] = None,
) -> List[List[Tuple[int, SweepCell]]]:
    """Group pending cells into shards of structurally similar cells.

    Cells are bucketed by :func:`shard_signature`, each bucket is sorted so
    cells with identical parameter assignments sit next to each other (grid
    expansion iterates adversaries in the outer loop, which would otherwise
    scatter the cells a shard's base-scenario cache could serve), and then
    each bucket is chunked.  The chunk size is ``shard_size`` when given,
    otherwise derived so the sweep yields roughly ``workers * 4`` shards
    (bounded by :data:`DEFAULT_MAX_SHARD_CELLS`): enough shards for the
    fleet to balance load, few enough that dispatch stays amortised.
    """
    if shard_size is not None and shard_size < 1:
        raise SweepError(f"shard size must be >= 1, got {shard_size}")
    buckets: Dict[Tuple[Any, ...], List[Tuple[int, SweepCell]]] = {}
    for index, cell in pending:
        buckets.setdefault(shard_signature(cell), []).append((index, cell))
    for bucket in buckets.values():
        bucket.sort(key=lambda item: (item[1].params, item[1].seed, item[1].adversary))
    if shard_size is None:
        target = math.ceil(len(pending) / max(1, workers * _SHARDS_PER_WORKER))
        shard_size = max(1, min(DEFAULT_MAX_SHARD_CELLS, target))
    shards: List[List[Tuple[int, SweepCell]]] = []
    for bucket in buckets.values():
        for start in range(0, len(bucket), shard_size):
            shards.append(bucket[start : start + shard_size])
    return shards


def run_shard_monitored(cells: Sequence[SweepCell]) -> Dict[str, Any]:
    """Execute one shard in the current process: the one shard loop.

    Fabric workers run every leased shard through it, and the coordinator's
    inline drain runs its shards through it too.  The whole shard shares
    one intern pool — every cell of the shard rides the same hash-consed
    substrate, so structurally identical histories, messages, and causal
    pasts are built once — and a per-shard scenario cache rebuilds the base
    scenario only once per distinct ``(scenario, params)`` assignment (cells
    differing only in adversary re-decorate it).  ``records`` holds one
    record per cell, aligned with the input order; a failing cell yields an
    error record without poisoning the rest of the shard.  The payload also
    carries the shard's registry delta, wall time, and new trace events (the
    worker half of the snapshot-delta protocol, :mod:`repro.obs.collect`);
    in-process callers keep only the wall time, since their metrics already
    landed in their own registry.

    Fault-injection points ``worker.shard`` (once, up front) and
    ``worker.cell`` (per cell) fire here; they are no-ops outside marked
    worker processes (see :mod:`repro.experiments.faults`).
    """
    baseline = registry_baseline()
    mark = len(trace_events())
    started = time.perf_counter()
    faults.fire("worker.shard")
    records: List[Dict[str, Any]] = []
    with intern_pool():
        base_cache: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], Any] = {}
        for cell in cells:
            # Outside the per-cell try: a DropConnection fault must sever the
            # shard (the worker catches it at its connection loop), never
            # masquerade as a cell error record.
            faults.fire("worker.cell")
            try:
                record, _ = execute_cell_inline(cell, base_cache=base_cache)
            except Exception as exc:  # noqa: BLE001 - per-cell isolation
                record = error_record(cell, exc)
            records.append(record)
    return {
        "records": records,
        "metrics": registry_delta(baseline),
        "wall_s": time.perf_counter() - started,
        "trace": trace_events()[mark:],
    }


def resolve_executor(
    backend: Union[str, SweepExecutor] = "auto",
    workers: int = 1,
    shard_size: Optional[int] = None,
    cell_timeout: Optional[float] = None,
) -> SweepExecutor:
    """Turn a backend name (or a ready executor) into a :class:`SweepExecutor`.

    ``auto`` picks the serial path for one worker and the fabric otherwise.
    ``fabric`` builds a loopback coordinator that forks ``workers`` local
    worker processes; callers who need a fixed listen address, external
    workers, or tuned lease/heartbeat timeouts construct a
    :class:`~repro.experiments.remote.RemoteExecutor` themselves and pass it
    as the backend (the CLI does).  ``cell_timeout`` is the fabric lease's
    per-cell budget (``lease_cell_s``): a worker holding a shard past its
    lease is killed and replaced, and the shard re-served.  ``None`` keeps
    the fabric's default lease; the serial path runs without deadlines.
    """
    if isinstance(backend, SweepExecutor):
        return backend
    if workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")
    if cell_timeout is not None and cell_timeout <= 0:
        raise SweepError(f"cell timeout must be > 0, got {cell_timeout}")
    if backend == "auto":
        backend = "serial" if workers == 1 else "fabric"
    if backend == "serial":
        return SerialExecutor()
    if backend == "fabric":
        from .remote import RemoteExecutor  # executors <-> remote layering

        lease = {} if cell_timeout is None else {"lease_cell_s": cell_timeout}
        return RemoteExecutor(
            workers_hint=workers, local_workers=workers, shard_size=shard_size, **lease
        )
    raise SweepError(f"unknown backend {backend!r}; known: {list(BACKENDS)}")
