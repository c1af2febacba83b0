"""Unit tests for the pluggable sweep execution backends."""

import multiprocessing

import pytest

from repro.experiments import (
    RemoteExecutor,
    SerialExecutor,
    SweepError,
    expand_grid,
    make_cell,
    plan_shards,
    resolve_executor,
    run_shard_monitored,
    run_sweep,
    shard_signature,
)
from repro.experiments.faults import FAULTS_ENV


def _small_grid():
    return expand_grid(
        ["line-flood", "tree-flood"],
        adversaries=["earliest", "random"],
        seeds=[0, 1],
        param_grid={"horizon": [5]},
    )


def _strip(record):
    return {k: v for k, v in record.items() if k != "duration_s"}


class TestShardSignature:
    def test_groups_by_structural_params_only(self):
        same_family = [
            make_cell("line-flood", adversary="earliest", seed=0),
            make_cell("line-flood", adversary="random", seed=7),
        ]
        assert shard_signature(same_family[0]) == shard_signature(same_family[1])

    def test_structural_param_splits_families(self):
        small = make_cell("line-flood", overrides={"num_processes": 3})
        large = make_cell("line-flood", overrides={"num_processes": 6})
        assert shard_signature(small) != shard_signature(large)

    def test_scenario_name_always_splits(self):
        line = make_cell("line-flood")
        ring = make_cell("ring-flood")
        assert shard_signature(line) != shard_signature(ring)

    def test_horizon_override_splits(self):
        base = make_cell("line-flood")
        overridden = make_cell("line-flood", horizon=4)
        assert shard_signature(base) != shard_signature(overridden)


class TestPlanShards:
    def test_explicit_shard_size_chunks_each_family(self):
        pending = list(enumerate(_small_grid()))
        shards = plan_shards(pending, workers=2, shard_size=3)
        assert all(len(shard) <= 3 for shard in shards)
        # Every pending cell appears exactly once, index preserved.
        flat = sorted(index for shard in shards for index, _ in shard)
        assert flat == list(range(len(pending)))
        # No shard mixes families.
        for shard in shards:
            signatures = {shard_signature(cell) for _, cell in shard}
            assert len(signatures) == 1

    def test_derived_shard_size_yields_enough_shards(self):
        pending = list(enumerate(_small_grid()))
        shards = plan_shards(pending, workers=2)
        assert len(shards) >= 2  # both workers get something

    def test_empty_pending(self):
        assert plan_shards([], workers=4) == []

    def test_rejects_bad_shard_size(self):
        with pytest.raises(SweepError):
            plan_shards([], workers=1, shard_size=0)


class TestRunShard:
    def test_matches_per_cell_execution(self):
        cells = _small_grid()[:4]
        from repro.experiments import run_cell

        sharded = [_strip(r) for r in run_shard_monitored(cells)["records"]]
        percell = [_strip(run_cell(cell)) for cell in cells]
        assert sharded == percell

    def test_isolates_cell_errors(self):
        good = make_cell("line-flood", overrides={"horizon": 4})
        # A negative horizon passes parameter validation but makes the
        # simulator raise; the rest of the shard must still complete.
        bad = make_cell("line-flood", overrides={"horizon": -1})
        records = run_shard_monitored([bad, good])["records"]
        assert records[0]["status"] == "error"
        assert "horizon" in records[0]["error"]
        assert records[1]["status"] == "ok"


class TestResolveExecutor:
    def test_auto_single_worker_is_serial(self):
        assert isinstance(resolve_executor("auto", workers=1), SerialExecutor)

    def test_auto_multi_worker_is_fabric(self):
        executor = resolve_executor("auto", workers=2)
        executor.execute([], lambda *args: None)  # releases the bound port
        assert isinstance(executor, RemoteExecutor)
        assert executor.name == "fabric"
        assert executor.local_workers == 2

    def test_sharded_stays_sharded_single_worker(self):
        """An explicit fabric keeps its shards (and one local worker)."""
        executor = resolve_executor("fabric", workers=1, shard_size=5)
        executor.execute([], lambda *args: None)
        assert isinstance(executor, RemoteExecutor)
        assert executor.shard_size == 5
        assert executor.local_workers == 1

    def test_fabric_default_lease(self):
        """Without a cell timeout the lease is 10 s plus 5 s per cell; a
        cell running past it on 3 distinct workers becomes an error record."""
        executor = resolve_executor("fabric", workers=2)
        executor.execute([], lambda *args: None)
        assert (executor.lease_base_s, executor.lease_cell_s) == (10.0, 5.0)
        assert executor.max_cell_failures == 3

    def test_ready_executor_passes_through(self):
        ready = SerialExecutor()
        assert resolve_executor(ready, workers=8) is ready

    def test_rejects_unknown_backend(self):
        with pytest.raises(SweepError):
            resolve_executor("threads", workers=2)

    def test_rejects_bad_workers(self):
        with pytest.raises(SweepError):
            resolve_executor("auto", workers=0)


class TestBackendEquivalence:
    def test_all_backends_agree(self, tmp_path):
        cells = _small_grid()
        reference = run_sweep(cells, workers=1, backend="serial")
        assert reference.errors == 0
        expected = [_strip(r) for r in reference.records]
        # Four local workers: more than this suite's CI cores, so shards
        # race for the scheduler and deliveries interleave.
        for backend, workers in [("fabric", 4), ("fabric", 1)]:
            outcome = run_sweep(cells, workers=workers, backend=backend)
            assert outcome.backend == backend
            assert [_strip(r) for r in outcome.records] == expected, (backend, workers)

    def test_figure_scenario_with_stateful_protocol(self):
        """Shard reuse must not leak protocol session state across cells."""
        cells = expand_grid(["figure2b"], adversaries=["earliest", "latest"], seeds=[0])
        serial = run_sweep(cells, workers=1, backend="serial")
        sharded = run_sweep(cells, workers=1, backend="fabric", shard_size=8)
        assert serial.errors == 0 and sharded.errors == 0
        assert [_strip(r) for r in sharded.records] == [
            _strip(r) for r in serial.records
        ]

    def test_run_sweep_rejects_bad_workers(self):
        with pytest.raises(SweepError):
            run_sweep([], workers=0)

    def test_run_sweep_rejects_force_plus_resume(self, tmp_path):
        from repro.experiments import ResultStore

        store = ResultStore(str(tmp_path / "s.jsonl"))
        with pytest.raises(SweepError):
            run_sweep([], store=store, force=True, resume=True)

    def test_run_sweep_resume_requires_store(self):
        with pytest.raises(SweepError):
            run_sweep([], resume=True)


class TestPoolSupervision:
    """Supervision of the local worker fleet on the fabric.

    Fault plans travel to the forked workers via the environment and are
    installed by ``run_worker``; this test process itself is never marked
    as a worker, so nothing fires inline (the inline drain included).
    """

    def _cells(self, count=4):
        return _small_grid()[:count]

    def _expected(self, cells):
        return [_strip(r) for r in run_sweep(cells, backend="serial").records]

    def _fleet(self, workers=2, **overrides):
        settings = dict(
            workers_hint=workers,
            local_workers=workers,
            shard_size=1,
            lease_base_s=3.0,
            lease_cell_s=1.0,
            heartbeat_timeout_s=3.0,
            backoff_base_s=0.05,
            backoff_max_s=0.2,
            poll_s=0.02,
        )
        settings.update(overrides)
        return RemoteExecutor(**settings)

    def test_broken_pool_restarts_and_completes(self, monkeypatch):
        """Each worker dies on its 2nd cell; replacements finish the sweep,
        which still matches serial."""
        cells = self._cells()
        expected = self._expected(cells)
        monkeypatch.setenv(FAULTS_ENV, "kill@worker.cell:2")
        executor = self._fleet()
        outcome = run_sweep(cells, workers=2, backend=executor)
        assert outcome.errors == 0
        assert [_strip(r) for r in outcome.records] == expected
        assert executor.fabric_summary()["counters"]["workers_replaced"] >= 1
        assert not multiprocessing.active_children()  # every worker reaped

    def test_workers_dying_instantly_degrade_to_serial(self, monkeypatch):
        """Every worker dies on its 1st shard: after the replacement budget
        is spent the coordinator drains every cell inline at once."""
        cells = self._cells()
        expected = self._expected(cells)
        monkeypatch.setenv(FAULTS_ENV, "kill@worker.shard:1")
        executor = self._fleet(local_fallback_after_s=None)
        outcome = run_sweep(cells, workers=2, backend=executor)
        assert outcome.errors == 0
        assert [_strip(r) for r in outcome.records] == expected
        summary = executor.fabric_summary()
        assert summary["counters"]["workers_replaced"] == 3
        assert summary["counters"]["local_fallback_cells"] >= 1
        assert summary["counters"].get("results_received", 0) == 0

    def test_hung_cell_is_quarantined_not_waited_out(self, monkeypatch):
        """A cell that hangs every worker past its lease is quarantined
        after failing on two distinct workers — the sweep must not hang."""
        import time as _time

        cells = self._cells(2)
        monkeypatch.setenv(FAULTS_ENV, "hang@worker.cell:*:30")
        executor = self._fleet(lease_base_s=0.3, lease_cell_s=0.1, max_cell_failures=2)
        seen = {}
        started = _time.perf_counter()
        executor.execute(list(enumerate(cells)), lambda i, c, r: seen.setdefault(i, r))
        elapsed = _time.perf_counter() - started
        assert elapsed < 20  # far below the 30s hang: leases did their job
        assert sorted(seen) == [0, 1]  # handle called exactly once per cell
        assert all(r["status"] == "error" for r in seen.values())
        assert all("WorkerFailure" in r["error"] for r in seen.values())
        summary = executor.fabric_summary()
        assert summary["quarantined"] == 2
        assert summary["counters"]["workers_replaced"] >= 1

    def test_slow_cells_are_quarantined_not_drained_inline(self):
        """Two cells that outrun every lease exhaust the replacement budget.

        Once the fleet is gone, the cell left over has failed on only two
        distinct workers; running it inline (no deadline) would hang the
        sweep for as long as the cell takes, so it is quarantined instead.
        Serial execution would finish each cell in ~20 s: on the fabric a
        cell longer than its lease becomes an error record.
        """
        import time as _time

        cells = [
            make_cell("figure1", overrides={"horizon": 10**7}, adversary=adversary)
            for adversary in ("earliest", "latest")
        ]
        executor = self._fleet(lease_base_s=0.3, lease_cell_s=0.1)
        assert executor.max_cell_failures == 3
        seen = {}
        started = _time.perf_counter()
        executor.execute(list(enumerate(cells)), lambda i, c, r: seen.setdefault(i, r))
        assert _time.perf_counter() - started < 12
        assert sorted(seen) == [0, 1]
        assert all("WorkerFailure" in r["error"] for r in seen.values())
        summary = executor.fabric_summary()
        assert summary["quarantined"] == 2
        assert "local_fallback_cells" not in summary["counters"]
        assert not multiprocessing.active_children()

    def test_sharded_pool_kill_recovers(self, monkeypatch):
        cells = self._cells()
        expected = self._expected(cells)
        monkeypatch.setenv(FAULTS_ENV, "kill@worker.shard:2")
        outcome = run_sweep(cells, workers=2, backend="fabric", shard_size=1)
        assert outcome.errors == 0
        assert outcome.backend == "fabric"
        assert [_strip(r) for r in outcome.records] == expected

    def test_failed_shard_splits_to_isolate_poison_cell(self):
        """A shard that fails twice splits into single cells, so a poison
        cell costs one error record, not its whole shard.  The poison is a
        cell that outruns every lease (a huge horizon); its shard-mate, with
        the same shard signature, completes."""
        import time as _time

        good = make_cell("figure1", adversary="earliest")
        poison = make_cell("figure1", overrides={"horizon": 10**7}, adversary="earliest")
        assert shard_signature(good) == shard_signature(poison)
        executor = self._fleet(shard_size=2, lease_base_s=0.4, lease_cell_s=0.1)
        seen = {}
        started = _time.perf_counter()
        executor.execute([(0, good), (1, poison)], lambda i, c, r: seen.setdefault(i, r))
        assert _time.perf_counter() - started < 30
        assert sorted(seen) == [0, 1]
        assert _strip(seen[0]) == self._expected([good])[0]
        assert seen[1]["status"] == "error" and "WorkerFailure" in seen[1]["error"]
        summary = executor.fabric_summary()
        assert summary["quarantined"] == 1
        assert summary["counters"]["shard_retries"] >= 3

    def test_serial_backend_ignores_fault_plans(self, monkeypatch):
        """The parent is never a fault-scoped worker: chaos plans in the
        environment cannot touch serial/in-process execution."""
        monkeypatch.setenv(FAULTS_ENV, "kill@worker.cell:1")
        outcome = run_sweep(self._cells(2), backend="serial")
        assert outcome.errors == 0
