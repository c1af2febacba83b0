"""Latency and failure accounting.

Every latency is reported as its median plus the highest percentile that
still has at least :data:`MIN_TAIL` samples beyond it, always with the
sample count: a p90 over 40 samples rests on 4 observations and says
nothing, so it is not printed.  Refused or failed operations count as
attempts (and as failures), never as missing data.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Samples that must lie beyond a percentile before it is reported.
MIN_TAIL = 10

#: Percentiles tried, highest first, for the tail figure.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile by the nearest-rank method."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def percentile_if_supported(values: Sequence[float], pct: float) -> Optional[float]:
    """``percentile(values, pct)``, or ``None`` with fewer than
    :data:`MIN_TAIL` samples beyond it."""
    if samples_beyond(len(values), pct) < MIN_TAIL:
        return None
    return percentile(values, pct)


@dataclass
class LatencySummary:
    """Median plus the highest supported tail percentile of one sample set."""

    count: int
    p50: Optional[float]
    tail_pct: Optional[float]
    tail: Optional[float]

    def describe(self, unit: str = "ms") -> str:
        if self.p50 is None:
            return "n=0"
        text = f"p50={self.p50:.4g}{unit}"
        if self.tail is not None:
            text += f" p{self.tail_pct:g}={self.tail:.4g}{unit}"
        return text + f" (n={self.count})"


def summarize(values: Sequence[float]) -> LatencySummary:
    """Median plus the highest percentile with :data:`MIN_TAIL` samples beyond."""
    if not values:
        return LatencySummary(0, None, None, None)
    for pct in TAIL_PERCENTILES:
        tail = percentile_if_supported(values, pct)
        if tail is not None:
            return LatencySummary(len(values), statistics.median(values), pct, tail)
    return LatencySummary(len(values), statistics.median(values), None, None)


@dataclass
class OpLog:
    """Attempted operations of one class: latencies of every attempt
    (successful or not) plus the failure count."""

    latencies_ms: List[float] = field(default_factory=list)
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    def record(self, latency_ms: float, ok: bool, error: str = "") -> None:
        self.latencies_ms.append(latency_ms)
        if not ok:
            self.fail(error)

    def fail(self, error: str) -> None:
        """Count one more failure against an already-recorded attempt."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(error)

    def summary(self) -> LatencySummary:
        return summarize(self.latencies_ms)


def failed_fraction(logs: Dict[str, OpLog]) -> float:
    attempted = sum(log.attempted for log in logs.values())
    failed = sum(log.failed for log in logs.values())
    return failed / attempted if attempted else 1.0
