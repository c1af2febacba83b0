"""Shared helpers for the benchmark harness.

Every benchmark both *times* the relevant pipeline (via pytest-benchmark) and
*asserts* the qualitative claim of the figure/theorem it reproduces, printing a
"paper vs measured" row that EXPERIMENTS.md summarises.
"""

from __future__ import annotations

import gc
import json
import statistics
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def report(experiment: str, paper_claim: str, measured: str) -> None:
    """Print one paper-vs-measured row (visible with ``pytest -s`` or in captured logs)."""
    print(f"\n[{experiment}] paper: {paper_claim} | measured: {measured}")


def record(
    artifact: Path,
    workload: str,
    numbers: Dict[str, object],
    top_level: Optional[Dict[str, object]] = None,
) -> None:
    """Merge one workload's numbers into a ``BENCH_*.json`` trajectory artifact.

    The artifacts are gitignored; CI regenerates them by running the bench
    files and then diffs them against the committed ``*.baseline.json``
    siblings via ``scripts/check_bench_regression.py``.  ``top_level``
    entries (e.g. a shared horizon) sit next to ``format``/``workloads``.
    """
    data: Dict[str, object] = {"format": 1, "workloads": {}}
    if artifact.exists():
        try:
            data = json.loads(artifact.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            pass
    if top_level:
        data.update(top_level)
    data.setdefault("workloads", {})[workload] = numbers
    artifact.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def interleaved_medians(
    sides: Sequence[Callable[[], Tuple[float, Any]]], repetitions: int
) -> List[Tuple[float, Any]]:
    """Median seconds and last result of each side, timed fairly.

    Each side returns ``(seconds, result)``.  Every side runs once untimed
    to warm up, then the sides take turns for ``repetitions`` rounds with
    the cyclic garbage collector off (as ``timeit`` does): a collection
    traversing what earlier benchmarks left alive would otherwise land in
    one side's run and measure the test process's heap, not the code.
    """
    for side in sides:
        side()
    times: List[List[float]] = [[] for _ in sides]
    results: List[Any] = [None] * len(sides)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repetitions):
            for index, side in enumerate(sides):
                seconds, results[index] = side()
                times[index].append(seconds)
    finally:
        if enabled:
            gc.enable()
    return [(statistics.median(spent), result) for spent, result in zip(times, results)]
