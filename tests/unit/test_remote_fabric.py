"""Unit tests for the distributed fabric's scheduler and wire format.

The :class:`FabricScheduler` is a pure state machine over an injected
clock, so every liveness scenario — missed heartbeats, expired leases,
backoff, shard splitting, quarantine, duplicate delivery — is tested here
deterministically, without sockets or sleeps.
"""

import pytest

from repro.experiments import SweepError, expand_grid, make_cell
from repro.experiments.remote import (
    FabricScheduler,
    cell_from_wire,
    cell_to_wire,
)
from repro.obs.collect import registry_baseline, registry_delta


def _pending(count=4):
    cells = expand_grid(
        ["line-flood"],
        adversaries=["earliest", "latest"],
        seeds=[0, 1],
        param_grid={"horizon": [4]},
    )
    return list(enumerate(cells[:count]))


def _scheduler(pending=None, **overrides):
    settings = dict(
        workers_hint=2,
        shard_size=1,
        lease_base_s=10.0,
        lease_cell_s=5.0,
        heartbeat_timeout_s=5.0,
        max_cell_failures=3,
        backoff_base_s=1.0,
        backoff_max_s=8.0,
    )
    settings.update(overrides)
    return FabricScheduler(pending if pending is not None else _pending(), **settings)


def _indices(assignment):
    return [entry["index"] for entry in assignment["cells"]]


def _complete(scheduler, worker, assignment, now):
    results = [
        (entry["index"], {"status": "ok", "index": entry["index"]})
        for entry in assignment["cells"]
    ]
    return scheduler.complete(worker, assignment["lease"], results, now)


class TestWireFormat:
    def test_cell_round_trip_preserves_key(self):
        cell = make_cell(
            "line-flood",
            overrides={"num_processes": 4},
            adversary="latest",
            seed=7,
            horizon=5,
        )
        decoded = cell_from_wire(cell_to_wire(cell))
        assert decoded == cell
        assert decoded.key() == cell.key()

    def test_wire_form_is_json_native(self):
        import json

        wire = cell_to_wire(make_cell("line-flood"))
        assert json.loads(json.dumps(wire)) == wire


class TestHappyPath:
    def test_assign_complete_finish(self):
        scheduler = _scheduler()
        seen = []
        now = 0.0
        while not scheduler.finished:
            assignment = scheduler.try_assign("w0", now)
            assert assignment is not None
            fresh = _complete(scheduler, "w0", assignment, now + 1)
            seen.extend(index for index, _, _ in fresh)
            now += 2
        assert sorted(seen) == [0, 1, 2, 3]
        assert scheduler.outstanding == 0

    def test_lease_deadline_scales_with_shard_size(self):
        pending = _pending()
        scheduler = _scheduler(pending, shard_size=4)
        assignment = scheduler.try_assign("w0", 0.0)
        assert len(assignment["cells"]) == 4
        assert assignment["deadline_s"] == pytest.approx(10.0 + 5.0 * 4)

    def test_no_ready_shard_returns_none(self):
        scheduler = _scheduler(_pending(1))
        assert scheduler.try_assign("w0", 0.0) is not None
        assert scheduler.try_assign("w1", 0.0) is None  # everything leased

    def test_duplicate_results_are_dropped(self):
        scheduler = _scheduler()
        assignment = scheduler.try_assign("w0", 0.0)
        first = _complete(scheduler, "w0", assignment, 1.0)
        assert len(first) == 1
        again = scheduler.complete(
            "w1", None, [(first[0][0], {"status": "ok"})], 2.0
        )
        assert again == []
        assert scheduler.counts["duplicates_dropped"] == 1


class TestLiveness:
    def test_missed_heartbeats_requeue_the_shard(self):
        scheduler = _scheduler(_pending(1))
        assignment = scheduler.try_assign("w0", 0.0)
        assert scheduler.live_workers(0.0) == 1
        assert scheduler.expire(4.0) == []  # within heartbeat budget
        assert scheduler.expire(6.0) == []  # dead, but nothing quarantined yet
        assert scheduler.live_workers(6.0) == 0
        assert scheduler.counts["workers_dead"] == 1
        # The shard returns to the queue with backoff; another worker takes it.
        later = 6.0 + 1.0
        retry = scheduler.try_assign("w1", later)
        assert retry is not None
        assert _indices(retry) == _indices(assignment)

    def test_heartbeat_keeps_worker_alive(self):
        scheduler = _scheduler()
        scheduler.try_assign("w0", 0.0)
        scheduler.heartbeat("w0", 4.0)
        scheduler.expire(8.0)  # last_seen 4.0, timeout 5 -> still alive
        assert scheduler.live_workers(8.0) == 1

    def test_expired_lease_requeues_even_with_heartbeats(self):
        scheduler = _scheduler(_pending(1))
        assignment = scheduler.try_assign("w0", 0.0)
        deadline = assignment["deadline_s"]
        scheduler.heartbeat("w0", deadline)  # alive but wedged
        scheduler.expire(deadline + 0.1)
        assert scheduler.counts["leases_expired"] == 1
        assert scheduler.live_workers(deadline + 0.1) == 1
        retry = scheduler.try_assign("w1", deadline + 2.0)
        assert _indices(retry) == _indices(assignment)

    def test_backoff_grows_exponentially(self):
        scheduler = _scheduler(_pending(1), backoff_base_s=1.0, backoff_max_s=100.0)
        now = 0.0
        for expected_backoff in (1.0, 2.0, 4.0):
            assignment = scheduler.try_assign("w-fresh", now)
            assert assignment is not None
            scheduler.expire(now + assignment["deadline_s"] + 0.1)
            now += assignment["deadline_s"] + 0.1
            # Not ready before the backoff elapses, ready after.
            assert scheduler.try_assign("other", now + expected_backoff - 0.5) is None
            now += expected_backoff
        # max_cell_failures=3 reached on the third expiry: quarantined.

    def test_failed_worker_avoided_when_alternatives_exist(self):
        scheduler = _scheduler(_pending(2), max_cell_failures=5)
        assignment = scheduler.try_assign("w0", 0.0)
        scheduler.expire(assignment["deadline_s"] + 0.1)  # w0 dead, shard requeued
        later = assignment["deadline_s"] + 5.0
        # w0 rejoins; it gets the *other* shard first, not the one it failed.
        retry = scheduler.try_assign("w0", later)
        assert _indices(retry) != _indices(assignment)

    def test_sole_surviving_worker_gets_its_own_failed_shard(self):
        scheduler = _scheduler(_pending(1), max_cell_failures=5)
        assignment = scheduler.try_assign("w0", 0.0)
        scheduler.expire(assignment["deadline_s"] + 0.1)
        later = assignment["deadline_s"] + 10.0
        retry = scheduler.try_assign("w0", later)
        assert retry is not None
        assert _indices(retry) == _indices(assignment)

    def test_disconnect_generation_guard(self):
        scheduler = _scheduler()
        first_gen, _ = scheduler.hello("w0", 0.0)
        second_gen, _ = scheduler.hello("w0", 1.0)  # reconnect: new generation
        # The stale connection's teardown must not kill the live session.
        assert scheduler.disconnect("w0", first_gen, 2.0) == []
        assert scheduler.live_workers(2.0) == 1
        scheduler.disconnect("w0", second_gen, 3.0)
        assert scheduler.live_workers(3.0) == 0

    def test_disconnect_after_finish_is_not_a_death(self):
        scheduler = _scheduler(_pending(2))
        generation, _ = scheduler.hello("w0", 0.0)
        while not scheduler.finished:
            _complete(scheduler, "w0", scheduler.try_assign("w0", 1.0), 1.0)
        assert scheduler.disconnect("w0", generation, 2.0) == []
        assert "workers_dead" not in scheduler.counts
        assert not any(e["event"] == "worker-dead" for e in scheduler.events)

    def test_evictions_report_missed_heartbeats_and_expired_leases(self):
        scheduler = _scheduler(lease_base_s=1.0, lease_cell_s=0.0, heartbeat_timeout_s=5.0)
        scheduler.hello("silent", 0.0)
        scheduler.hello("wedged", 0.0)
        scheduler.try_assign("wedged", 0.0)
        scheduler.heartbeat("wedged", 1.5)
        scheduler.expire(1.5)  # the wedged worker's lease expired
        assert scheduler.evictions() == {"wedged"}
        assert scheduler.evictions() == set()  # reported once
        scheduler.heartbeat("wedged", 6.0)
        scheduler.expire(6.0)  # the silent worker missed its heartbeats
        assert scheduler.evictions() == {"silent"}
        # A severed connection may reconnect: it is not an eviction.
        scheduler.disconnect("wedged", 1, 6.5)
        assert scheduler.evictions() == set()

    def test_reconnect_before_teardown_requeues_the_lease_at_once(self):
        """A worker drops its link and says hello again before the old
        connection's teardown lands.  Its lease fails on the hello, so the
        shard is re-served after the usual backoff instead of waiting out
        the lease: no expiry, no eviction, and the cells still run inline."""
        scheduler = _scheduler(_pending(1), backoff_base_s=0.1)
        first_gen, _ = scheduler.hello("w0", 0.0)
        assignment = scheduler.try_assign("w0", 0.0)
        second_gen, quarantined = scheduler.hello("w0", 0.5)
        assert second_gen == first_gen + 1 and quarantined == []
        assert scheduler.disconnect("w0", first_gen, 0.6) == []  # stale teardown
        assert scheduler.counts["shard_retries"] == 1
        assert scheduler.events[-1]["reason"] == "reconnect"
        retry = scheduler.try_assign("w0", 0.6)
        assert retry is not None and _indices(retry) == _indices(assignment)
        # The new lease's holder reconnects again: nothing waits for expire().
        scheduler.hello("w0", 1.0)
        assert scheduler.expire(1.0) == []
        assert scheduler.evictions() == set()
        assert "leases_expired" not in scheduler.counts
        run, quarantined = scheduler.take_local(1.0)
        assert [index for index, _ in run] == _indices(assignment) and quarantined == []


class TestFailureEscalation:
    def test_shard_splits_after_two_failures(self):
        pending = _pending(4)
        scheduler = _scheduler(pending, shard_size=4, lease_base_s=1.0, lease_cell_s=0.0)
        now = 0.0
        for _ in range(2):
            assignment = scheduler.try_assign(f"w{now}", now)
            assert assignment is not None
            scheduler.expire(now + 1.1)
            now += 20.0  # past any backoff
        # After two whole-shard failures the queue holds single-cell shards.
        sizes = []
        while True:
            assignment = scheduler.try_assign("fresh", now)
            if assignment is None:
                break
            sizes.append(len(assignment["cells"]))
        assert sizes == [1, 1, 1, 1]

    def test_quarantine_after_distinct_worker_failures(self):
        scheduler = _scheduler(_pending(1), max_cell_failures=2, backoff_base_s=0.0)
        now = 0.0
        assignment = scheduler.try_assign("w0", now)
        assert scheduler.expire(now + assignment["deadline_s"] + 0.1) == []
        now += 100.0
        assignment = scheduler.try_assign("w1", now)
        quarantined = scheduler.expire(now + assignment["deadline_s"] + 0.1)
        assert len(quarantined) == 1
        index, cell, distinct = quarantined[0]
        assert index == 0
        assert distinct == 2
        assert scheduler.finished  # quarantine resolves the sweep
        # A late result for a quarantined cell is dropped, not double-handled.
        late = scheduler.complete("w0", None, [(0, {"status": "ok"})], now + 200.0)
        assert late == []

    def test_same_worker_failures_do_not_quarantine(self):
        scheduler = _scheduler(_pending(1), max_cell_failures=2, backoff_base_s=0.0)
        now = 0.0
        for _ in range(4):
            assignment = scheduler.try_assign("w0", now)
            assert assignment is not None
            assert scheduler.expire(now + assignment["deadline_s"] + 0.1) == []
            now += 100.0
        assert not scheduler.finished  # one distinct worker: retried forever


class TestLocalFallback:
    def test_take_local_drains_the_queue(self):
        scheduler = _scheduler(_pending(2))
        taken = []
        while True:
            shard = scheduler.take_local(0.0)
            if shard is None:
                break
            run, quarantined = shard
            assert quarantined == []
            taken.extend(run)
        assert sorted(index for index, _ in taken) == [0, 1]
        fresh = scheduler.record_local(
            [(index, cell, {"status": "ok"}) for index, cell in taken]
        )
        assert len(fresh) == 2
        assert scheduler.finished
        assert scheduler.counts["local_fallback_cells"] == 2

    def test_take_local_ignores_backoff(self):
        scheduler = _scheduler(_pending(1))
        generation, _ = scheduler.hello("w0", 0.0)
        scheduler.try_assign("w0", 0.0)
        scheduler.disconnect("w0", generation, 1.0)  # requeued with backoff
        shard = scheduler.take_local(1.1)
        assert shard is not None  # backoff does not apply to inline execution
        run, quarantined = shard
        assert [index for index, _ in run] == [0] and quarantined == []

    @pytest.mark.parametrize("overrun", ["lease-expired", "missed-heartbeats"])
    def test_take_local_quarantines_cells_that_outran_a_lease(self, overrun):
        """Inline execution has no deadline, so a cell that already outran
        one is quarantined instead of run (it could hang the sweep)."""
        scheduler = _scheduler(_pending(2), shard_size=2)
        scheduler.hello("w0", 0.0)
        assignment = scheduler.try_assign("w0", 0.0)
        if overrun == "lease-expired":
            scheduler.heartbeat("w0", assignment["deadline_s"])
            scheduler.expire(assignment["deadline_s"] + 0.1)
        else:
            scheduler.expire(5.1)  # silent past heartbeat_timeout_s, lease live
        assert scheduler.counts["shard_retries"] == 1
        run, quarantined = scheduler.take_local(60.0)
        assert run == []
        assert sorted((index, distinct) for index, _, distinct in quarantined) == [
            (0, 1),
            (1, 1),
        ]
        assert scheduler.finished
        assert scheduler.take_local(60.0) is None


def _remote_delta(baseline):
    """The ``remote.*`` registry counters that moved since ``baseline``,
    keyed like ``FabricScheduler.counts``."""
    counters = registry_delta(baseline)["counters"]
    return {
        name[len("remote."):]: value
        for name, value in counters.items()
        if name.startswith("remote.") and value
    }


class TestOneCount:
    """Each fabric event is counted once, into both the sweep's counters and
    the process registry's ``remote.<key>``."""

    def test_record_local_duplicate_moves_both_counts(self):
        scheduler = _scheduler(_pending(1))
        assignment = scheduler.try_assign("w0", 0.0)
        (index, cell, _record), = _complete(scheduler, "w0", assignment, 1.0)
        baseline = registry_baseline()
        assert scheduler.record_local([(index, cell, {"status": "ok"})]) == []
        assert scheduler.counts["duplicates_dropped"] == 1
        assert _remote_delta(baseline) == {"duplicates_dropped": 1}

    def test_rejoin_after_missed_heartbeats_moves_both_counts(self):
        scheduler = _scheduler(_pending(1))
        scheduler.hello("w0", 0.0)
        scheduler.expire(6.0)  # silent past heartbeat_timeout_s: dead
        baseline = registry_baseline()
        scheduler.hello("w0", 7.0)
        assert scheduler.counts["workers_rejoined"] == 1
        assert _remote_delta(baseline) == {"workers_rejoined": 1}

    def test_every_counter_matches_the_registry(self):
        baseline = registry_baseline()
        scheduler = _scheduler(_pending(3))
        first = scheduler.try_assign("w0", 0.0)
        scheduler.heartbeat("w0", 1.0)
        _complete(scheduler, "w0", first, 2.0)
        _complete(scheduler, "w1", first, 3.0)  # duplicate delivery
        scheduler.try_assign("w0", 3.0)
        scheduler.expire(20.0)  # w0 went silent: dead, its lease requeued
        while (taken := scheduler.take_local(20.0)) is not None:
            run, _ = taken
            scheduler.record_local([(index, cell, {"status": "ok"}) for index, cell in run])
        scheduler.count("local_fallback_shards")
        assert scheduler.finished
        assert scheduler.counts == _remote_delta(baseline)
        assert {"workers_dead", "shard_retries", "duplicates_dropped"} <= set(scheduler.counts)


class TestValidationAndSummary:
    def test_bad_settings_raise(self):
        with pytest.raises(SweepError):
            _scheduler(lease_base_s=0.0)
        with pytest.raises(SweepError):
            _scheduler(heartbeat_timeout_s=0.0)
        with pytest.raises(SweepError):
            _scheduler(max_cell_failures=0)

    def test_summary_shape(self):
        scheduler = _scheduler()
        assignment = scheduler.try_assign("w0", 0.0)
        _complete(scheduler, "w0", assignment, 1.0)
        summary = scheduler.summary()
        assert summary["backend"] == "fabric"
        assert summary["cells"] == 4
        assert summary["completed"] == 1
        assert summary["workers"]["w0"]["completed_cells"] == 1
        assert summary["counters"]["leases_granted"] == 1
        assert any(event["event"] == "worker-joined" for event in summary["events"])
