"""Benchmarks for sharded sweep execution on the worker fabric.

On sweeps of many small cells, one cell per shard pays the full dispatch
overhead — a lease, a JSON round trip, a fresh intern pool, scenario
construction — once per cell, which quickly dwarfs the cells' own
simulation cost.  Derived shards (:func:`~repro.experiments.executors.\
plan_shards`) amortise all of it: the sorted grid is cut into per-worker
shards, one lease runs a whole shard, the hash-consing intern pool is shared
across the shard, and the base scenario is built once per parameter
assignment.

This file gates the headline claim — on the fabric with 2 local workers,
derived shards are >= 2x faster than ``shard_size=1`` on a many-small-cell
sweep, with records identical to serial — and appends the measured
trajectory to ``BENCH_sweep.json``, which CI diffs against the committed
``BENCH_sweep.baseline.json`` via ``scripts/check_bench_regression.py``.  A
second workload times the warm resume scan (every cell served from the
store) against executing the same grid serially, so cache-path
regressions show up in the trajectory too.  As a best-of-3 timing the
scan's warn ceiling sat inside its own run-to-run spread, so both sides
are timed as interleaved repetitions after one untimed warm-up each, with
the cyclic garbage collector off, and the ratio of their medians
(``resume_vs_execute_speedup``) is the gate.
"""

import time
from pathlib import Path

from _bench_utils import interleaved_medians, record, report

from repro.experiments import ResultStore, expand_grid, run_sweep

#: Where the measured trajectory is written (diffed against the committed
#: ``BENCH_sweep.baseline.json`` by ``scripts/check_bench_regression.py``).
ARTIFACT = Path(__file__).resolve().parent / "BENCH_sweep.json"

#: The acceptance criterion: derived shards >= 2x faster than one cell per
#: shard on the many-small-cell grid below.
REQUIRED_SPEEDUP = 2.0

#: 1 scenario x 3 adversaries x 192 seeds = 576 cells of ~0.3ms each: the
#: regime shard amortisation exists for.  ``summary`` keeps the per-cell
#: analysis cost small so dispatch overhead, not analysis, is measured.
GRID = dict(
    scenarios=["line-flood"],
    adversaries=["earliest", "latest", "random"],
    seeds=range(192),
    param_grid={"horizon": [3]},
    analyses=("summary",),
)

WORKERS = 2


def _grid():
    return expand_grid(
        GRID["scenarios"],
        adversaries=GRID["adversaries"],
        seeds=GRID["seeds"],
        param_grid=GRID["param_grid"],
        analyses=GRID["analyses"],
    )


def _strip(records):
    return [{k: v for k, v in r.items() if k != "duration_s"} for r in records]


def _best_of(rounds, fn):
    best = float("inf")
    outcome = None
    for _ in range(rounds):
        started = time.perf_counter()
        outcome = fn()
        best = min(best, time.perf_counter() - started)
    return best, outcome


def test_bench_derived_shards_vs_one_cell_shards():
    """Derived shards >= 2x over one-cell shards on the fabric, identical records."""
    cells = _grid()

    def fabric(shard_size):
        return run_sweep(
            cells, store=None, workers=WORKERS, backend="fabric", shard_size=shard_size
        )

    shard1_s, shard1 = _best_of(2, lambda: fabric(1))
    derived_s, derived = _best_of(2, lambda: fabric(None))
    serial = run_sweep(cells, store=None, workers=1, backend="serial")
    for outcome in (shard1, derived):
        assert outcome.backend == "fabric"
        assert outcome.errors == 0 and outcome.executed == len(cells)
        assert _strip(outcome.records) == _strip(serial.records), (
            "fabric changed sweep results"
        )

    speedup = shard1_s / derived_s if derived_s > 0 else float("inf")
    report(
        "Fabric sweep: derived shards vs one cell per shard",
        "no measurement in the paper (harness cost)",
        f"{len(cells)} cells x {WORKERS} workers: one-cell shards {shard1_s * 1e3:.0f}ms, "
        f"derived shards {derived_s * 1e3:.0f}ms, speedup {speedup:.1f}x",
    )
    record(
        ARTIFACT,
        "many-small-cells",
        {
            "cells": len(cells),
            "workers": WORKERS,
            "shard1_s": round(shard1_s, 6),
            "derived_s": round(derived_s, 6),
            "derived_vs_shard1_speedup": round(speedup, 1),
        },
    )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"derived shards only {speedup:.1f}x faster than one-cell shards "
        f"({shard1_s * 1e3:.0f}ms vs {derived_s * 1e3:.0f}ms)"
    )


#: Timed runs of each side of the resume ratio, interleaved.
REPETITIONS = 5


def test_bench_resume_scan(tmp_path):
    """Warm resume: the whole grid served from the store, zero execution."""
    cells = _grid()
    store = ResultStore(str(tmp_path / "resume.jsonl"))
    cold = run_sweep(cells, store=store, workers=WORKERS, backend="fabric")
    assert cold.executed == len(cells) and cold.errors == 0

    def timed(**kwargs):
        started = time.perf_counter()
        outcome = run_sweep(cells, **kwargs)
        return time.perf_counter() - started, outcome

    (scan_s, warm), (execute_s, executed) = interleaved_medians(
        [
            lambda: timed(store=ResultStore(store.path), workers=WORKERS, resume=True),
            lambda: timed(store=None, workers=1, backend="serial"),
        ],
        REPETITIONS,
    )
    assert warm.cached == len(cells) and warm.executed == 0
    assert executed.executed == len(cells)

    speedup = execute_s / scan_s if scan_s > 0 else float("inf")
    report(
        "Sweep resume: warm scan (100% cache hits) vs serial execution",
        "no measurement in the paper (harness cost)",
        f"{len(cells)} cells scanned in {scan_s * 1e3:.1f}ms "
        f"({len(cells) / scan_s:.0f} cells/s), executed serially in "
        f"{execute_s * 1e3:.0f}ms ({speedup:.1f}x)",
    )
    record(
        ARTIFACT,
        "resume-scan",
        {
            "cells": len(cells),
            "cached": warm.cached,
            "resume_scan_s": round(scan_s, 6),
            "execute_s": round(execute_s, 6),
            "resume_vs_execute_speedup": round(speedup, 1),
        },
    )
