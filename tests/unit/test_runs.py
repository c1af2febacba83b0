"""Unit tests for Run queries: timelines, node lookup, resolution, validation."""

import pytest

from repro.core import general
from repro.scenarios import random_workload, workload_scenario
from repro.simulation import LocalAction, Run, RunError, RunValidationError
from repro.simulation.runs import DeliveryRecord, SendRecord


class TestTimelines:
    def test_initial_nodes_at_time_zero(self, triangle_run):
        for process in triangle_run.processes:
            time, node = triangle_run.timelines[process][0]
            assert time == 0 and node.is_initial

    def test_time_of_and_appears(self, triangle_run):
        go_node = triangle_run.external_deliveries[0].receiver_node
        assert triangle_run.appears(go_node)
        assert triangle_run.time_of(go_node) == 2
        missing = go_node.predecessor()
        assert triangle_run.appears(missing)  # the initial node of C

    def test_time_of_unknown_node_raises(self, triangle_run):
        from repro.core import BasicNode
        from repro.simulation import ExternalReceipt, History

        stranger = BasicNode("A", History.initial("A").extend((ExternalReceipt("nope"),)))
        with pytest.raises(RunError):
            triangle_run.time_of(stranger)

    def test_node_at_interpolates(self, triangle_run):
        # C is idle between t=0 and t=2, so node_at returns the initial node.
        assert triangle_run.node_at("C", 1).is_initial
        assert not triangle_run.node_at("C", 2).is_initial
        with pytest.raises(RunError):
            triangle_run.node_at("C", triangle_run.horizon + 1)

    def test_successor_and_predecessor(self, triangle_run):
        initial = triangle_run.initial_node("C")
        nxt = triangle_run.successor(initial)
        assert nxt is not None and triangle_run.predecessor(nxt) == initial
        final = triangle_run.final_node("C")
        assert triangle_run.successor(final) is None

    def test_nodes_iteration_counts(self, triangle_run):
        count = sum(len(timeline) for timeline in triangle_run.timelines.values())
        assert len(list(triangle_run.nodes())) == count
        assert len(triangle_run.nodes_of("C")) == len(triangle_run.timelines["C"])


class TestMessagesAndActions:
    def test_delivery_lookup(self, triangle_run):
        record = triangle_run.deliveries[0]
        found = triangle_run.delivery_of(record.sender_node, record.destination)
        assert found is record
        assert triangle_run.send_of(record.sender_node, record.destination) is not None

    def test_deliveries_to_and_at(self, triangle_run):
        record = triangle_run.deliveries[0]
        assert record in triangle_run.deliveries_to(record.destination)
        assert record in triangle_run.deliveries_at(record.receiver_node)

    def test_actions_reported_with_times(self, triangle_run):
        actions = {(r.process, r.action): r.time for r in triangle_run.actions()}
        assert actions[("C", "send_go")] == 2
        assert actions[("A", "a")] == 3
        assert triangle_run.find_action("A", "a").time == 3
        assert triangle_run.find_action("A", "zzz") is None
        assert triangle_run.action_time("B", "b") is None

    def test_actions_are_built_once_and_ignored_by_equality(self, triangle_run):
        first = triangle_run.actions()
        assert triangle_run.actions() is first
        fresh = Run.from_dict(triangle_run.to_dict())  # no memo yet
        assert fresh == triangle_run
        assert fresh.to_dict() == triangle_run.to_dict()
        assert fresh.actions() == first

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_find_action_equals_a_linear_scan_of_the_timeline(self, seed):
        run = workload_scenario(random_workload(num_processes=4, seed=seed), horizon=25).run()

        def scan(process, action):
            for time, node in run.timelines[process][1:]:
                for observation in node.history.last_step:
                    if observation == LocalAction(action):
                        return time, node
            return None

        names = {record.action for record in run.actions()} | {"never"}
        assert len(names) > 1
        for process in run.processes:
            for name in names:
                found = run.find_action(process, name)
                expected = scan(process, name)
                assert (None if found is None else (found.time, found.node)) == expected


class TestGeneralNodeResolution:
    def test_singleton_resolves_to_itself(self, triangle_run):
        node = triangle_run.final_node("B")
        assert triangle_run.resolve(general(node)) == node

    def test_chain_resolution_follows_deliveries(self, triangle_run):
        go_node = triangle_run.external_deliveries[0].receiver_node
        theta = general(go_node, ("C", "A"))
        resolved = triangle_run.resolve(theta)
        assert resolved is not None
        assert resolved.process == "A"
        assert triangle_run.time_of(resolved) == 3
        assert triangle_run.time_of_general(theta) == 3
        assert triangle_run.general_appears(theta)

    def test_unresolved_chain_returns_none(self, triangle_run):
        # The final node of A sends messages, but their deliveries lie beyond the horizon.
        last = triangle_run.final_node("A")
        theta = general(last, ("A", "B"))
        assert triangle_run.resolve(theta) is None
        with pytest.raises(RunError):
            triangle_run.time_of_general(theta)

    def test_multi_hop_resolution(self, triangle_run):
        go_node = triangle_run.external_deliveries[0].receiver_node
        theta = general(go_node, ("C", "A", "B"))
        resolved = triangle_run.resolve(theta)
        assert resolved is not None and resolved.process == "B"
        assert triangle_run.time_of(resolved) == 4


class TestValidation:
    def test_valid_run_passes(self, triangle_run):
        triangle_run.validate()

    def test_detects_bound_violation(self, triangle_run):
        bad_delivery = triangle_run.deliveries[0]
        tampered = DeliveryRecord(
            send=bad_delivery.send,
            receiver_node=bad_delivery.receiver_node,
            delivery_time=bad_delivery.send_time + 99,
        )
        broken = Run(
            context=triangle_run.context,
            horizon=triangle_run.horizon,
            timelines=triangle_run.timelines,
            sends=triangle_run.sends,
            deliveries=(tampered,) + triangle_run.deliveries[1:],
            external_deliveries=triangle_run.external_deliveries,
            pending=triangle_run.pending,
        )
        with pytest.raises(RunValidationError):
            broken.validate()

    def test_detects_overdue_pending_message(self, triangle_run):
        overdue = SendRecord(
            message=triangle_run.sends[0].message,
            sender_node=triangle_run.sends[0].sender_node,
            destination=triangle_run.sends[0].destination,
            send_time=1,
        )
        broken = Run(
            context=triangle_run.context,
            horizon=triangle_run.horizon,
            timelines=triangle_run.timelines,
            sends=triangle_run.sends,
            deliveries=triangle_run.deliveries,
            external_deliveries=triangle_run.external_deliveries,
            pending=(overdue,),
        )
        with pytest.raises(RunValidationError):
            broken.validate()
        broken.validate(require_forced_delivery=False)

    def test_describe_mentions_processes(self, triangle_run):
        text = triangle_run.describe()
        for process in triangle_run.processes:
            assert process in text
