"""Integration tests for the distributed sweep fabric.

The acceptance bar from the issue: killed, hung, and slow-worker scenarios
each complete with per-cell results bit-identical to ``SerialExecutor``,
``handle`` fires exactly once per cell, and no sweep hangs past its lease
deadlines.  Worker kills run real ``repro worker`` subprocesses (SIGKILL
semantics are only honest cross-process); hang/slow/drop scenarios mix
subprocess and in-thread workers, and the coordinator always runs in-process
so the handler contract can be asserted directly.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.experiments import (
    ResultStore,
    SerialExecutor,
    expand_grid,
    faults,
    run_sweep,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.remote import RemoteExecutor, run_worker

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _grid(count=None):
    cells = expand_grid(
        ["line-flood", "tree-flood"],
        adversaries=["earliest", "latest"],
        seeds=[0, 1],
        horizon=4,
    )
    return cells if count is None else cells[:count]


def _strip(record):
    return {k: v for k, v in record.items() if k != "duration_s"}


def _serial_records(cells):
    records = {}
    SerialExecutor().execute(
        list(enumerate(cells)), lambda i, c, r: records.__setitem__(i, r)
    )
    return records


def _executor(**overrides):
    settings = dict(
        workers_hint=2,
        shard_size=2,
        lease_base_s=3.0,
        lease_cell_s=1.0,
        heartbeat_timeout_s=1.5,
        backoff_base_s=0.05,
        backoff_max_s=0.5,
        local_fallback_after_s=None,
        poll_s=0.02,
    )
    settings.update(overrides)
    return RemoteExecutor(**settings)


class _CountingHandler:
    """Asserts the exactly-once delivery contract as results arrive."""

    def __init__(self):
        self.records = {}
        self.calls = 0

    def __call__(self, index, cell, record):
        self.calls += 1
        assert index not in self.records, f"cell {index} delivered twice"
        self.records[index] = record


def _thread_worker(address, **kwargs):
    kwargs.setdefault("heartbeat_s", 0.2)
    kwargs.setdefault("connect_timeout_s", 15.0)
    thread = threading.Thread(
        target=run_worker,
        args=(f"{address[0]}:{address[1]}",),
        kwargs=kwargs,
        daemon=True,
    )
    thread.start()
    return thread


def _spawn_worker(address, *extra_args):
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    env.pop("REPRO_FAULTS", None)  # plans arrive via --faults only
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            f"{address[0]}:{address[1]}",
            "--heartbeat-s",
            "0.2",
            *extra_args,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


@pytest.fixture(autouse=True)
def _clean_fault_state():
    # In-thread workers mark this process as fault-scoped; undo it so the
    # rest of the test session (and pool-based tests) start clean.
    faults.reset()
    yield
    faults.reset()


class TestRemoteExecutor:
    def test_healthy_worker_matches_serial(self):
        cells = _grid()
        expected = _serial_records(cells)
        executor = _executor()
        handler = _CountingHandler()
        worker = _thread_worker(executor.address, worker_id="healthy")
        executor.execute(list(enumerate(cells)), handler)
        worker.join(timeout=10.0)
        assert not worker.is_alive()  # coordinator shutdown reached the worker
        assert handler.calls == len(cells)
        for index, record in expected.items():
            assert _strip(handler.records[index]) == _strip(record)
        summary = executor.fabric_summary()
        assert summary["completed"] == len(cells)
        assert summary["quarantined"] == 0
        # The clean shutdown after the last result is not a worker death.
        assert "workers_dead" not in summary["counters"]
        assert not any(e["event"] == "worker-dead" for e in summary["events"])

    def test_long_shard_between_heartbeats_is_not_retried(self):
        """A worker computing for longer than a second between heartbeats
        stays connected: blocking reads never time out mid-shard, so the
        shard is not re-run."""
        cells = _grid(2)
        expected = _serial_records(cells)
        executor = _executor(shard_size=2)
        handler = _CountingHandler()
        worker = _thread_worker(
            executor.address,
            worker_id="patient",
            heartbeat_s=2.0,
            faults_spec="slow@worker.shard:1:1.2",
        )
        executor.execute(list(enumerate(cells)), handler)
        worker.join(timeout=10.0)
        assert handler.calls == len(cells)
        for index, record in expected.items():
            assert _strip(handler.records[index]) == _strip(record)
        counters = executor.fabric_summary()["counters"]
        assert counters.get("shard_retries", 0) == 0
        assert counters["leases_granted"] == 1

    def test_killed_worker_recovers_bit_identical(self):
        """SIGKILL one of two real worker processes mid-shard; the survivor
        finishes the sweep with results identical to serial execution."""
        cells = _grid()
        expected = _serial_records(cells)
        executor = _executor()
        handler = _CountingHandler()
        # The doomed worker joins first so it certainly takes a lease; leases
        # are only granted once execute() starts, so the steady worker is
        # launched from a side thread after the doomed one has died.
        doomed = _spawn_worker(
            executor.address, "--id", "doomed", "--faults", "kill@worker.shard:1"
        )
        procs = [doomed]

        def spawn_steady_after_kill():
            deadline = time.monotonic() + 10.0
            while doomed.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            procs.append(_spawn_worker(executor.address, "--id", "steady"))

        spawner = threading.Thread(target=spawn_steady_after_kill)
        spawner.start()
        try:
            executor.execute(list(enumerate(cells)), handler)
            spawner.join(timeout=15.0)
            assert doomed.poll() == -signal.SIGKILL  # the fault really fired
            steady = procs[1]
            assert steady.wait(timeout=10.0) == 0
        finally:
            spawner.join(timeout=15.0)
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
        assert handler.calls == len(cells)
        for index, record in expected.items():
            assert _strip(handler.records[index]) == _strip(record)
        summary = executor.fabric_summary()
        assert summary["counters"]["shard_retries"] >= 1
        assert summary["workers"]["doomed"]["alive"] is False

    def test_hung_worker_is_reaped_and_sweep_matches_serial(self):
        """A worker frozen mid-shard (heartbeats suppressed) is declared
        dead; a healthy worker re-covers its lease.  The sweep must not wait
        out the 30s hang."""
        cells = _grid()
        expected = _serial_records(cells)
        executor = _executor(heartbeat_timeout_s=0.8)
        handler = _CountingHandler()
        hung = _spawn_worker(
            executor.address, "--id", "hung", "--faults", "hang@worker.shard:1:30"
        )

        # Leases only flow once execute() starts, so the healthy worker joins
        # from a side thread after the hung one has had time to freeze on one.
        def spawn_steady_later():
            time.sleep(1.0)
            _thread_worker(executor.address, worker_id="steady")

        spawner = threading.Thread(target=spawn_steady_later)
        spawner.start()
        try:
            started = time.perf_counter()
            executor.execute(list(enumerate(cells)), handler)
            elapsed = time.perf_counter() - started
            spawner.join(timeout=10.0)
        finally:
            if hung.poll() is None:
                hung.kill()
        assert elapsed < 20  # far below the hang duration: liveness won
        assert handler.calls == len(cells)
        for index, record in expected.items():
            assert _strip(handler.records[index]) == _strip(record)
        assert executor.fabric_summary()["workers"]["hung"]["alive"] is False

    def test_slow_worker_matches_serial(self):
        cells = _grid(4)
        expected = _serial_records(cells)
        executor = _executor()
        handler = _CountingHandler()
        worker = _thread_worker(
            executor.address,
            worker_id="slow",
            faults_spec="slow@worker.cell:*:0.02",
        )
        executor.execute(list(enumerate(cells)), handler)
        worker.join(timeout=10.0)
        assert handler.calls == len(cells)
        for index, record in expected.items():
            assert _strip(handler.records[index]) == _strip(record)

    def test_dropped_connection_reconnects_and_completes(self):
        """An injected connection drop before the first result forces a
        reconnect; the lease expires and the shard is re-served."""
        cells = _grid(4)
        expected = _serial_records(cells)
        executor = _executor(lease_base_s=1.0, lease_cell_s=0.2)
        handler = _CountingHandler()
        worker = _thread_worker(
            executor.address,
            worker_id="flaky",
            faults_spec="drop@worker.result:1",
        )
        executor.execute(list(enumerate(cells)), handler)
        worker.join(timeout=10.0)
        assert handler.calls == len(cells)
        for index, record in expected.items():
            assert _strip(handler.records[index]) == _strip(record)
        # The drop severed one session: its lease was re-covered on retry
        # (via disconnect teardown or lease expiry, whichever won the race).
        assert executor.fabric_summary()["counters"]["shard_retries"] >= 1

    def test_no_workers_degrades_to_local_execution(self):
        cells = _grid(4)
        expected = _serial_records(cells)
        executor = _executor(local_fallback_after_s=0.3)
        handler = _CountingHandler()
        executor.execute(list(enumerate(cells)), handler)
        assert handler.calls == len(cells)
        for index, record in expected.items():
            assert _strip(handler.records[index]) == _strip(record)
        assert executor.fabric_summary()["counters"]["local_fallback_cells"] == len(
            cells
        )

    def test_unservable_cells_quarantine_instead_of_hanging(self):
        """A fleet whose only worker always freezes cannot finish cells; with
        max_cell_failures=1 the coordinator quarantines them as error records
        instead of hanging past its lease deadlines."""
        cells = _grid(2)
        executor = _executor(
            shard_size=2,  # one shard: the single freeze covers every cell
            lease_base_s=0.6,
            lease_cell_s=0.1,
            heartbeat_timeout_s=0.5,
            max_cell_failures=1,
        )
        handler = _CountingHandler()
        hung = _spawn_worker(
            executor.address, "--id", "wedged", "--faults", "hang@worker.shard:*:30"
        )
        try:
            started = time.perf_counter()
            executor.execute(list(enumerate(cells)), handler)
            elapsed = time.perf_counter() - started
        finally:
            if hung.poll() is None:
                hung.kill()
        assert elapsed < 20
        assert handler.calls == len(cells)
        assert all(r["status"] == "error" for r in handler.records.values())
        assert all("WorkerFailure" in r["error"] for r in handler.records.values())
        assert executor.fabric_summary()["quarantined"] == len(cells)


class TestRemoteSweepCli:
    """The CI shape: a `repro sweep --listen` coordinator process,
    two worker processes, one killed by the fault harness — the sweep
    finishes, results match serial, and `--resume` recomputes nothing."""

    def _start_coordinator(self, store_path):
        env = {**os.environ, "PYTHONPATH": SRC_DIR}
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "sweep",
                "--scenario",
                "line-flood,tree-flood",
                "--adversary",
                "earliest,latest",
                "--seeds",
                "2",
                "--horizon",
                "4",
                "--backend",
                "fabric",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--shard-size",
                "2",
                "--lease-base-s",
                "3",
                "--cell-timeout",
                "1",
                "--heartbeat-timeout-s",
                "1.5",
                "--local-fallback-s",
                "30",
                "--store",
                store_path,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        address = None
        for _ in range(20):  # the banner precedes any blocking work
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("coordinator: listening on "):
                host, _, port = line.rpartition(" ")[2].strip().rpartition(":")
                address = (host, int(port))
                break
        assert address is not None, "coordinator never announced its address"
        return proc, address

    def test_kill_one_worker_sweep_completes_resume_recomputes_zero(self, tmp_path):
        cells = _grid()
        expected = _serial_records(cells)
        store_path = str(tmp_path / "results.jsonl")
        coordinator, address = self._start_coordinator(store_path)
        doomed = steady = None
        try:
            doomed = _spawn_worker(
                address, "--id", "doomed", "--faults", "kill@worker.shard:1"
            )
            deadline = time.monotonic() + 10.0
            while doomed.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert doomed.poll() == -signal.SIGKILL
            steady = _spawn_worker(address, "--id", "steady")
            assert coordinator.wait(timeout=60.0) == 0
            assert steady.wait(timeout=10.0) == 0
        finally:
            for proc in (coordinator, doomed, steady):
                if proc is not None and proc.poll() is None:
                    proc.kill()
        output = coordinator.stdout.read()

        store = ResultStore(store_path)
        by_key = {record["key"]: record for record in store.records()}
        for record in expected.values():
            assert _strip(by_key[record["key"]]) == _strip(record)
        telemetry = [r for r in store.records() if r.get("kind") == "sweep_telemetry"]
        assert len(telemetry) == 1, output
        fabric = telemetry[0]["fabric"]
        assert fabric["workers"]["doomed"]["alive"] is False
        assert fabric["counters"]["shard_retries"] >= 1

        # Recovery path: --resume over the same store recomputes nothing.
        resumed = run_sweep(cells, store=store, resume=True)
        assert resumed.executed == 0
        assert resumed.cached == len(cells)

    def test_chaos_smoke_mode(self, tmp_path, capsys):
        """`repro sweep --chaos` — the CI smoke invocation — completes with
        records identical to a serial sweep of the same grid."""
        store_path = str(tmp_path / "chaos.jsonl")
        serial_path = str(tmp_path / "serial.jsonl")
        base_args = [
            "sweep",
            "--scenario",
            "line-flood",
            "--adversary",
            "earliest,latest",
            "--seeds",
            "2",
            "--horizon",
            "4",
        ]
        assert cli_main(base_args + ["--backend", "serial", "--workers", "1",
                                     "--store", serial_path]) == 0
        assert cli_main(base_args + ["--backend", "fabric", "--workers", "2",
                                     "--shard-size", "1", "--chaos",
                                     "--store", store_path]) == 0
        capsys.readouterr()
        serial_store = ResultStore(serial_path)
        chaos_store = ResultStore(store_path)
        for record in serial_store.records():
            if record.get("kind") == "sweep_telemetry":
                continue
            assert _strip(chaos_store.get(record["key"])) == _strip(record)
        telemetry = [
            r for r in chaos_store.records() if r.get("kind") == "sweep_telemetry"
        ]
        assert telemetry and telemetry[0]["fabric"]["workers_replaced"] >= 1
