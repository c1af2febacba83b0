"""Collecting metrics across process boundaries.

Fabric workers run in their own OS processes with their own
:mod:`repro.obs.metrics` registries, so their instrument values never reach
the coordinator by themselves.  The protocol is snapshot deltas: a worker
snapshots its registry before a shard, runs the shard, and ships
``snapshot_diff(before, after)`` back with its results (the payload of
:func:`~repro.experiments.executors.run_shard_monitored`).  The coordinator
folds every worker delta into one :class:`Collector`; ``run_sweep`` merges
that with its own registry delta for in-process work, and the result
becomes the ``metrics`` section of the persisted sweep telemetry.

Deltas make worker reuse safe: a worker that runs ten shards reports each
shard's increments exactly once, however long it lives.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from .metrics import empty_snapshot, merge_snapshots, registry, snapshot_diff

__all__ = ["Collector", "registry_baseline", "registry_delta"]


def registry_baseline() -> Dict[str, Any]:
    """Snapshot the local registry as a baseline for :func:`registry_delta`."""
    return registry().snapshot()


def registry_delta(baseline: Mapping[str, Any]) -> Dict[str, Any]:
    """What the local registry accumulated since ``baseline``."""
    return snapshot_diff(baseline, registry().snapshot())


class Collector:
    """Accumulates worker metric deltas, shard timings, and trace events."""

    def __init__(self) -> None:
        self.merged: Dict[str, Any] = empty_snapshot()
        self.shards: List[Dict[str, Any]] = []
        self.trace: List[Dict[str, Any]] = []
        #: Events the workers' buffer caps discarded before shipping.
        self.trace_dropped = 0
        self.worker_payloads = 0

    def add_metrics(self, snapshot: Optional[Mapping[str, Any]]) -> None:
        """Fold one worker's snapshot delta into the merged totals."""
        if snapshot:
            merge_snapshots(self.merged, snapshot)
            self.worker_payloads += 1

    def add_shard(self, cells: int, wall_s: float, **extra: Any) -> None:
        """Record one dispatched shard's size and wall time."""
        meta: Dict[str, Any] = {
            "cells": cells,
            "wall_s": round(wall_s, 6),
            "cells_per_s": round(cells / wall_s, 3) if wall_s > 0 else None,
        }
        meta.update(extra)
        self.shards.append(meta)

    def add_trace(
        self, events: Optional[List[Dict[str, Any]]], dropped: Optional[int] = None
    ) -> None:
        if events:
            self.trace.extend(events)
        self.trace_dropped += int(dropped or 0)

    def worker_wall_s(self) -> float:
        """Total wall time spent inside dispatched shards/cells."""
        return sum(shard["wall_s"] for shard in self.shards)
