"""Unit tests for exhaustive run enumeration."""

import pytest

from repro.scenarios import get_scenario
from repro.simulation import (
    Context,
    EarliestDelivery,
    ExternalInput,
    LatestDelivery,
    ProtocolAssignment,
    SeededRandomDelivery,
    SimulationError,
    actor_protocol,
    enumerate_indistinguishable_runs,
    enumerate_runs,
    go_at,
    go_sender_protocol,
    simulate,
    timed_network,
)


@pytest.fixture()
def tiny_context():
    net = timed_network({("C", "A"): (1, 2), ("C", "B"): (1, 3)})
    protocols = ProtocolAssignment()
    protocols.assign("C", go_sender_protocol())
    protocols.assign("A", actor_protocol("a", "C"))
    return Context(net), protocols


class TestEnumeration:
    def test_number_of_runs_matches_delivery_choices(self, tiny_context):
        context, protocols = tiny_context
        runs = list(
            enumerate_runs(context, protocols, external_inputs=go_at(1, "C"), horizon=6)
        )
        # C sends one message to A (2 possible delays) and one to B (3 possible
        # delays); A and B have no outgoing channels, so that's all the branching.
        assert len(runs) == 6

    def test_all_runs_are_legal_and_distinct(self, tiny_context):
        context, protocols = tiny_context
        runs = list(
            enumerate_runs(context, protocols, external_inputs=go_at(1, "C"), horizon=6)
        )
        signatures = set()
        for run in runs:
            run.validate()
            signature = tuple(
                (d.sender, d.destination, d.send_time, d.delivery_time)
                for d in sorted(run.deliveries, key=lambda d: (d.sender, d.destination))
            )
            signatures.add(signature)
        assert len(signatures) == len(runs)

    def test_pending_choice_collapsed(self, tiny_context):
        context, protocols = tiny_context
        # Horizon 2: C -> B (delays 1..3) can land at 2 or stay pending (delays 2, 3
        # both exceed the horizon and collapse into one "pending" branch).
        runs = list(
            enumerate_runs(context, protocols, external_inputs=go_at(1, "C"), horizon=2)
        )
        assert len(runs) == 4  # (A: delay1, pending) x (B: delay1, pending)

    def test_max_runs_cap(self, tiny_context):
        context, protocols = tiny_context
        runs = list(
            enumerate_runs(
                context, protocols, external_inputs=go_at(1, "C"), horizon=6, max_runs=3
            )
        )
        assert len(runs) == 3

    def test_simulated_run_is_among_enumerated(self, tiny_context):
        context, protocols = tiny_context
        simulated = simulate(context, protocols, external_inputs=go_at(1, "C"), horizon=6)
        enumerated = list(
            enumerate_runs(context, protocols, external_inputs=go_at(1, "C"), horizon=6)
        )
        # Full ``Run`` equality: timelines, every record and the pending order.
        assert sum(run == simulated for run in enumerated) == 1

    def test_no_external_input_yields_single_quiet_run(self, tiny_context):
        context, protocols = tiny_context
        runs = list(enumerate_runs(context, protocols, horizon=4))
        assert len(runs) == 1
        assert not runs[0].deliveries

    def test_rejects_unknown_external_recipient(self, tiny_context):
        context, protocols = tiny_context
        with pytest.raises(SimulationError):
            list(enumerate_runs(context, protocols, external_inputs=[ExternalInput(1, "Z")]))

    def test_indistinguishable_filter(self, tiny_context):
        context, protocols = tiny_context
        simulated = simulate(context, protocols, external_inputs=go_at(1, "C"), horizon=6)
        a_node = simulated.find_action("A", "a").node
        matching = list(
            enumerate_indistinguishable_runs(
                context,
                a_node,
                protocols,
                external_inputs=go_at(1, "C"),
                horizon=6,
            )
        )
        assert matching
        for run in matching:
            assert run.appears(a_node)
        # A's local state does not encode real time, so every schedule (any C->A
        # delay, any C->B delay) is indistinguishable at A's node.
        assert len(matching) == 6


#: (scenario, build parameters, horizon): small enough to enumerate in full.
PINNED_CASES = [
    ("figure1", {}, 10),
    ("figure2b", {}, 10),
    ("zigzag-chain", {}, 10),
    ("line-flood", {"num_processes": 3}, 6),
    ("ring-flood", {"num_processes": 3}, 5),
]


@pytest.mark.parametrize("name,params,horizon", PINNED_CASES, ids=[c[0] for c in PINNED_CASES])
def test_every_simulated_run_is_exactly_one_enumerated_run(name, params, horizon):
    """The enumerator and the simulator share one step: each adversary's run
    is one of the enumerated runs, record for record and in pending order."""
    scenario = get_scenario(name).build(**params)
    enumerated = list(
        enumerate_runs(
            scenario.context,
            scenario.protocols,
            external_inputs=scenario.external_inputs,
            horizon=horizon,
        )
    )
    adversaries = [EarliestDelivery(), LatestDelivery()]
    adversaries += [SeededRandomDelivery(seed) for seed in (1, 2, 3)]
    for delivery in adversaries:
        simulated = simulate(
            scenario.context,
            scenario.protocols,
            delivery=delivery,
            external_inputs=scenario.external_inputs,
            horizon=horizon,
        )
        matches = [run for run in enumerated if run == simulated]
        assert len(matches) == 1, (name, type(delivery).__name__, len(matches))
