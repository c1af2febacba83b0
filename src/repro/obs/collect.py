"""Collecting metrics across process boundaries.

Sweep workers run in their own OS processes with their own
:mod:`repro.obs.metrics` registries, so their instrument values never reach
the parent by themselves.  The protocol is snapshot deltas: a worker task
snapshots its registry before the work, does the work, and ships
``snapshot_diff(before, after)`` back alongside its results (the payloads of
``run_cell_monitored`` / ``run_shard_monitored`` in
:mod:`repro.experiments.executors`).  The parent folds every worker delta --
plus its own registry delta for in-process work -- into one
:class:`Collector`, whose merged snapshot becomes the ``metrics`` section of
the persisted sweep telemetry.

Deltas make worker reuse safe: a pool process that runs ten shards reports
each shard's increments exactly once, regardless of start method or reuse.
"""

from __future__ import annotations

import time
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
        self.worker_events: List[Dict[str, Any]] = []
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

    def add_worker_event(self, event: Mapping[str, Any]) -> None:
        """Record one worker liveness/retry event (joins, deaths, expiries).

        Fed by the distributed fabric (:mod:`repro.experiments.remote`);
        bounded so a flapping fleet cannot bloat the telemetry record.
        """
        if len(self.worker_events) < 1000:
            self.worker_events.append(dict(event))

    def worker_wall_s(self) -> float:
        """Total wall time spent inside dispatched shards/cells."""
        return sum(shard["wall_s"] for shard in self.shards)

    def summary(self) -> Dict[str, Any]:
        """The collector's contents as one JSON-safe dict."""
        summary = {
            "metrics": self.merged,
            "shards": list(self.shards),
            "worker_payloads": self.worker_payloads,
        }
        if self.worker_events:
            summary["worker_events"] = list(self.worker_events)
        return summary


def monotonic() -> float:
    """The trace timebase (exposed for tests)."""
    return time.perf_counter()
