"""Benchmarks for the distributed sweep fabric (PR 8).

The remote backend trades per-shard socket round-trips and JSON cell
encoding for the ability to run workers on other machines and survive their
deaths.  These benchmarks put numbers on that trade on a single host: the
coordination overhead of a clean one-worker remote sweep versus serial
execution, and the wall-clock cost of recovering from a severed worker
connection mid-sweep (lease expiry + reassignment).

A committed ``BENCH_remote.baseline.json`` gates the trajectory through
``scripts/check_bench_regression.py``: the fabric overhead rides the
hardware-robust ``serial_vs_remote_speedup`` ratio (how much of serial
throughput the remote path retains), absolute timings warn only, and
correctness (bit-identical records) is asserted here regardless.

Both sides of the overhead ratio take 5-30 ms, so a single cold shot of
each measured the test process as much as the fabric.  They are timed as
interleaved repetitions after one untimed warm-up each, with the cyclic
garbage collector off, and the gate is the ratio of their medians.  The
ratio is then steady within one process but not between processes: inside
a full ``pytest benchmarks/`` run the one-worker side (a thread of this
process, whose every shard round trip waits for the interpreter lock)
sometimes runs at half the speed it shows when this file runs alone.
"""

import time
from pathlib import Path

from _bench_utils import interleaved_medians, record, report

from repro.experiments import expand_grid, run_sweep
from repro.experiments.remote import RemoteExecutor, run_worker

ARTIFACT = Path(__file__).resolve().parent / "BENCH_remote.json"

GRID = dict(
    scenarios=["line-flood"],
    adversaries=["earliest", "latest"],
    seeds=range(12),
    analyses=("summary",),
)


def _grid():
    return expand_grid(
        GRID["scenarios"],
        adversaries=GRID["adversaries"],
        seeds=GRID["seeds"],
        analyses=GRID["analyses"],
        horizon=3,
    )


def _strip(records):
    return [{k: v for k, v in r.items() if k != "duration_s"} for r in records]


def _remote_sweep(cells, **worker_kwargs):
    import threading

    executor = RemoteExecutor(workers_hint=1, shard_size=4, poll_s=0.02,
                              **worker_kwargs.pop("executor_kwargs", {}))
    worker = threading.Thread(
        target=run_worker,
        args=(f"{executor.address[0]}:{executor.address[1]}",),
        kwargs={"heartbeat_s": 0.2, "connect_timeout_s": 15.0, **worker_kwargs},
        daemon=True,
    )
    worker.start()
    started = time.perf_counter()
    outcome = run_sweep(cells, store=None, backend=executor)
    elapsed = time.perf_counter() - started
    worker.join(timeout=10.0)
    return elapsed, outcome


#: Timed runs of each side of the overhead ratio, interleaved.
REPETITIONS = 7


def _serial_sweep(cells):
    started = time.perf_counter()
    outcome = run_sweep(cells, store=None, backend="serial")
    return time.perf_counter() - started, outcome


def _one_worker_sweep(cells):
    from repro.experiments import faults

    try:
        return _remote_sweep(cells, worker_id="bench")
    finally:
        faults.reset()  # run_worker marks this process; undo for later tests


def test_bench_remote_fabric_overhead():
    """Coordination cost of a clean one-worker remote sweep vs serial."""
    cells = _grid()
    (serial_s, serial), (remote_s, remote) = interleaved_medians(
        [lambda: _serial_sweep(cells), lambda: _one_worker_sweep(cells)], REPETITIONS
    )
    assert serial.errors == 0 and remote.errors == 0
    assert _strip(remote.records) == _strip(serial.records), (
        "remote backend changed sweep results"
    )

    overhead = remote_s / serial_s if serial_s > 0 else float("inf")
    report(
        "Remote fabric: one local worker vs serial",
        "no measurement in the paper (harness cost)",
        f"{len(cells)} cells: serial {serial_s * 1e3:.0f}ms, "
        f"remote {remote_s * 1e3:.0f}ms ({overhead:.2f}x)",
    )
    record(
        ARTIFACT,
        "clean-one-worker",
        {
            "cells": len(cells),
            "serial_s": round(serial_s, 6),
            "remote_s": round(remote_s, 6),
            "serial_vs_remote_speedup": round(serial_s / remote_s, 2)
            if remote_s > 0
            else 0.0,
        },
    )


def test_bench_remote_drop_recovery():
    """Wall-clock cost of recovering one severed connection mid-sweep."""
    from repro.experiments import faults

    cells = _grid()
    try:
        clean_s, clean = _remote_sweep(
            cells,
            worker_id="bench-clean",
            executor_kwargs=dict(lease_base_s=1.0, lease_cell_s=0.1),
        )
        faults.reset()
        faulty_s, faulty = _remote_sweep(
            cells,
            worker_id="bench-faulty",
            faults_spec="drop@worker.result:1",
            executor_kwargs=dict(lease_base_s=1.0, lease_cell_s=0.1),
        )
    finally:
        faults.reset()
    assert clean.errors == 0 and faulty.errors == 0
    assert _strip(faulty.records) == _strip(clean.records), (
        "fault recovery changed sweep results"
    )

    report(
        "Remote fabric: dropped-connection recovery cost",
        "no measurement in the paper (harness cost)",
        f"{len(cells)} cells: clean {clean_s * 1e3:.0f}ms, "
        f"one drop {faulty_s * 1e3:.0f}ms (+{(faulty_s - clean_s) * 1e3:.0f}ms)",
    )
    record(
        ARTIFACT,
        "drop-recovery",
        {
            "cells": len(cells),
            "clean_s": round(clean_s, 6),
            "with_drop_s": round(faulty_s, 6),
            "recovery_cost_s": round(max(0.0, faulty_s - clean_s), 6),
        },
    )
