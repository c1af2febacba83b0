"""Unit tests for the engine overlay layer and the incremental knowledge session."""

from collections import Counter

import pytest

from repro.core import KnowledgeChecker, KnowledgeSession, general
from repro.core.causality import boundary_nodes, past_nodes
from repro.core.extended_graph import (
    AUXILIARY_EDGE,
    CHAIN_ANCHOR_EDGE,
    FLOODING_EDGE,
    UNDELIVERED_EDGE,
    ExtendedBoundsGraph,
    ExtendedGraphError,
)
from repro.core.graph import NEG_INF, PositiveCycleError, WeightedGraph
from repro.coordination.optimal import find_go_node
from repro.experiments.analyses import infer_roles
from repro.scenarios import get_scenario
from repro.simulation import (
    Context,
    EarliestDelivery,
    LatestDelivery,
    ProtocolAssignment,
    actor_protocol,
    fully_connected,
    go_at,
    go_sender_protocol,
    simulate,
)
from repro.simulation.interning import intern_pool

#: Edge labels of the retractable psi layer of ``GE(r, sigma)``.
PSI_LABELS = {AUXILIARY_EDGE, UNDELIVERED_EDGE, FLOODING_EDGE, CHAIN_ANCHOR_EDGE}


# ---------------------------------------------------------------------------
# LongestPathEngine.set_overlay / overlay_weight
# ---------------------------------------------------------------------------


def combined_reference(base, overlay):
    """Base + overlay as one plain graph, answered by the naive relaxation."""
    graph = WeightedGraph()
    for node in base.nodes:
        graph.add_node(node)
    for edge in base.edges:
        graph.add_edge(edge.source, edge.target, edge.weight, edge.label)
    for source, target, weight in overlay:
        graph.add_edge(source, target, weight, "overlay")
    return graph


class TestEngineOverlay:
    def base_graph(self):
        graph = WeightedGraph()
        graph.add_edge("a", "b", 2)
        graph.add_edge("b", "c", 3)
        graph.add_edge("a", "c", 4)
        graph.add_edge("c", "b", -5)
        return graph

    def test_empty_overlay_agrees_with_base_weight(self):
        graph = self.base_graph()
        graph.engine.set_overlay([])
        for source in "abc":
            for target in "abc":
                assert graph.engine.overlay_weight(source, target) == graph.engine.weight(
                    source, target
                )

    def test_overlay_edges_participate_and_retract(self):
        graph = self.base_graph()
        engine = graph.engine
        engine.set_overlay([("b", "psi", 1), ("psi", "a", -4)])
        reference = combined_reference(graph, [("b", "psi", 1), ("psi", "a", -4)])
        for source in ("a", "b", "c", "psi"):
            for target in ("a", "b", "c", "psi"):
                assert engine.overlay_weight(source, target) == reference.longest_path_weight(
                    source, target, reference=True
                ), (source, target)
        # Replacing the overlay *retracts* the old edges entirely.
        engine.set_overlay([("b", "psi", 1)])
        assert engine.overlay_weight("psi", "a") is None
        assert engine.overlay_weight("a", "psi") == 3  # longest a->b is 2, plus 1
        # The base graph itself never saw any overlay edge.
        assert engine.weight("a", "b") == 2
        with pytest.raises(KeyError):
            graph.engine.weight("psi", "a")

    def test_overlay_survives_base_growth(self):
        graph = self.base_graph()
        engine = graph.engine
        engine.set_overlay([("c", "psi", 0), ("psi", "d", 1)])
        assert engine.overlay_weight("a", "psi") == 5
        # Base grows after the overlay was installed; overlay remaps.
        graph.add_edge("c", "d", 10)
        assert engine.weight("a", "d") == 15
        assert engine.overlay_weight("a", "d") == 15
        assert engine.overlay_weight("a", "psi") == 5
        reference = combined_reference(graph, [("c", "psi", 0), ("psi", "d", 1)])
        for source in ("a", "b", "c", "d", "psi"):
            for target in ("a", "b", "c", "d", "psi"):
                assert engine.overlay_weight(source, target) == reference.longest_path_weight(
                    source, target, reference=True
                )

    def test_overlay_positive_cycle_raises(self):
        graph = WeightedGraph()
        graph.add_edge("a", "b", 1)
        engine = graph.engine
        engine.set_overlay([("b", "a", 1)])  # a -> b -> a has weight 2
        with pytest.raises(PositiveCycleError):
            engine.overlay_weight("a", "b")
        # Clearing the overlay clears the infeasibility.
        engine.set_overlay([])
        assert engine.overlay_weight("a", "b") == 1

    def test_overlay_row_covers_overlay_nodes(self):
        graph = self.base_graph()
        engine = graph.engine
        engine.set_overlay([("a", "x", 7)])
        row = engine.overlay_row("a")
        assert row["x"] == 7
        assert row["b"] == 2
        assert engine.overlay_row("x")["x"] == 0
        assert engine.overlay_row("x")["a"] == NEG_INF

    def test_overlay_rows_are_cached_per_install(self):
        graph = self.base_graph()
        engine = graph.engine
        engine.set_overlay([("a", "x", 7)])
        engine.overlay_weight("a", "x")
        computed = engine.stats.overlay_rows_computed
        engine.overlay_weight("a", "b")
        assert engine.stats.overlay_rows_computed == computed
        assert engine.stats.overlay_row_cache_hits >= 1
        engine.set_overlay([("a", "x", 8)])
        assert engine.overlay_weight("a", "x") == 8
        assert engine.stats.overlay_rows_computed == computed + 1

    def test_retracted_overlay_vertex_is_gone_after_reinstall(self):
        graph = self.base_graph()
        engine = graph.engine
        engine.set_overlay([("b", "psi", 1), ("psi", "a", -4), ("c", "x", 2)])
        assert engine.overlay_weight("a", "x") == 7
        engine.set_overlay([("b", "psi", 1)])
        with pytest.raises(KeyError):
            engine.overlay_weight("x", "a")
        with pytest.raises(KeyError):
            engine.overlay_weight("a", "x")
        assert set(engine.overlay_row("a")) == {"a", "b", "c", "psi"}
        # The same holds when the retraction is a delta.
        engine.update_overlay(removed=[("b", "psi", 1)])
        with pytest.raises(KeyError):
            engine.overlay_weight("a", "psi")
        assert set(engine.overlay_row("a")) == {"a", "b", "c"}
        # A released slot is reused by the next fresh vertex, answers exact.
        engine.update_overlay(added=[("c", "y", 5)])
        assert set(engine.overlay_row("a")) == {"a", "b", "c", "y"}
        assert engine.overlay_weight("a", "y") == 10

    def test_update_overlay_matches_set_overlay(self):
        graph = self.base_graph()
        edited = graph.engine
        fresh = combined_reference(graph, []).engine
        edited.set_overlay([("b", "psi", 1), ("psi", "a", -4), ("psi", "a", -4)])
        edited.update_overlay(added=[("c", "psi", -3), ("psi", "q", 3)], removed=[("psi", "a", -4)])
        overlay = [("b", "psi", 1), ("psi", "a", -4), ("c", "psi", -3), ("psi", "q", 3)]
        assert sorted(edited.overlay_edges()) == sorted(overlay)
        fresh.set_overlay(overlay)
        for source in ("a", "b", "c", "psi", "q"):
            assert edited.overlay_row(source) == fresh.overlay_row(source)
        with pytest.raises(KeyError):
            edited.update_overlay(removed=[("a", "b", 99)])

    def test_overlay_vertex_joining_the_base_is_remapped(self):
        graph = self.base_graph()
        engine = graph.engine
        engine.set_overlay([("c", "x", 1), ("x", "d", 2)])
        assert engine.overlay_weight("a", "d") == 8
        graph.add_edge("x", "a", -10)  # x is now a base node too
        reference = combined_reference(graph, [("c", "x", 1), ("x", "d", 2)])
        for source in ("a", "b", "c", "x", "d"):
            assert engine.overlay_row(source) == reference.longest_path_weights(
                source, reference=True
            )

    def test_edits_map_only_the_changed_edges(self):
        graph = self.base_graph()
        engine = graph.engine
        engine.set_overlay([("b", "psi", 1), ("psi", "a", -4)])
        assert engine.stats.overlay_edges_mapped == 2
        engine.update_overlay(added=[("psi", "a", -4), ("c", "psi", -3)])
        assert engine.stats.overlay_edges_mapped == 3  # a duplicate maps nothing
        graph.add_edge("c", "d", 1)  # base growth does not remap the overlay
        engine.update_overlay(removed=[("psi", "a", -4)])
        assert engine.overlay_weight("psi", "a") == -4
        assert engine.stats.overlay_edges_mapped == 3


# ---------------------------------------------------------------------------
# KnowledgeSession lifecycle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def coordination_run():
    net = fully_connected(["A", "B", "C"], 1, 3)
    protocols = ProtocolAssignment()
    protocols.assign("C", go_sender_protocol())
    protocols.assign("A", actor_protocol("a", "C"))
    run = simulate(
        Context(net),
        protocols,
        delivery=EarliestDelivery(),
        external_inputs=go_at(2, "C"),
        horizon=10,
    )
    return run


class TestKnowledgeSession:
    def test_advance_is_incremental_along_a_timeline(self, coordination_run):
        run = coordination_run
        session = KnowledgeSession(run.timed_network)
        appended = []
        for _, node in run.timelines["B"]:
            session.advance(node)
            appended.append(session.nodes_appended)
        assert session.resets == 0
        assert appended == sorted(appended)
        # Total appended work equals the final past -- each node entered once.
        assert session.nodes_appended == len(past_nodes(run.final_node("B")))

    def test_advance_is_idempotent(self, coordination_run):
        run = coordination_run
        sigma = run.final_node("B")
        session = KnowledgeSession(run.timed_network).advance(sigma)
        advances = session.advances
        session.advance(sigma)
        assert session.advances == advances

    def test_non_monotone_advance_resets_and_stays_correct(self, coordination_run):
        run = coordination_run
        net = run.timed_network
        session = KnowledgeSession(net)
        session.advance(run.final_node("B"))
        # A's final node does not contain B's final node in its past.
        sigma_a = run.final_node("A")
        session.advance(sigma_a)
        assert session.resets == 1
        checker = KnowledgeChecker(sigma_a, net)
        for earlier in boundary_nodes(sigma_a).values():
            assert session.max_known_gap(earlier, sigma_a) == checker.max_known_gap(
                earlier, sigma_a
            )

    def test_pool_swap_resets(self, coordination_run):
        run = coordination_run
        net = run.timed_network
        session = KnowledgeSession(net)
        session.advance(run.timelines["B"][2][1])
        with intern_pool():
            protocols = ProtocolAssignment()
            protocols.assign("C", go_sender_protocol())
            protocols.assign("A", actor_protocol("a", "C"))
            other = simulate(
                Context(net),
                protocols,
                delivery=EarliestDelivery(),
                external_inputs=go_at(2, "C"),
                horizon=8,
            )
            sigma = other.final_node("B")
            session.advance(sigma)
            assert session.resets == 1
            checker = KnowledgeChecker(sigma, net)
            for earlier in boundary_nodes(sigma).values():
                assert session.max_known_gap(earlier, sigma) == checker.max_known_gap(
                    earlier, sigma
                )

    def test_queries_before_advance_raise(self, coordination_run):
        run = coordination_run
        session = KnowledgeSession(run.timed_network)
        with pytest.raises(ExtendedGraphError):
            session.max_known_gap(run.final_node("B"), run.final_node("B"))
        with pytest.raises(ExtendedGraphError):
            session.find_go_node("C")

    def test_unrecognized_nodes_raise(self, coordination_run):
        run = coordination_run
        session = KnowledgeSession(run.timed_network)
        session.advance(run.timelines["B"][1][1])
        stranger = run.final_node("A")
        if stranger not in past_nodes(session.sigma):
            with pytest.raises(ExtendedGraphError):
                session.max_known_gap(stranger, session.sigma)

    def test_go_node_memoization(self, coordination_run):
        run = coordination_run
        session = KnowledgeSession(run.timed_network)
        found = []
        for _, node in run.timelines["B"]:
            if node.is_initial:
                continue
            session.advance(node)
            go = session.find_go_node("C")
            assert go == find_go_node(node, "C")
            found.append(go)
        # The trigger eventually becomes visible and stays the same object.
        assert found[-1] is not None
        first = next(index for index, go in enumerate(found) if go is not None)
        assert all(go is found[first] for go in found[first:])

    def test_known_window_and_knows_match_checker(self, coordination_run):
        run = coordination_run
        net = run.timed_network
        session = KnowledgeSession(net)
        for _, node in run.timelines["B"]:
            if node.is_initial:
                continue
            session.advance(node)
            checker = KnowledgeChecker(node, net)
            go = session.find_go_node("C")
            if go is None:
                continue
            theta = general(go, ("C", "A"))
            assert session.known_window(theta, node) == checker.known_window(theta, node)
            for margin in (-2, 0, 3):
                assert session.knows(theta, node, margin) == checker.knows(
                    theta, node, margin
                )

    @pytest.mark.parametrize("delivery", [EarliestDelivery, LatestDelivery])
    def test_guard_replay_maps_only_psi_changes(self, delivery):
        """Per step, the engine maps the psi edges that changed, not the layer.

        Replays Protocol 2's guard along B's timeline.  After every query the
        installed overlay must equal the psi layer of a fresh
        ``GE(r, sigma)`` (E', E'', E''' and the chain anchors), and the edges
        mapped so far must not exceed the static E''' set once plus the psi
        edges each install added: the O(delta) install contract.
        """
        run = get_scenario("figure4").build(num_forks=8).with_delivery(delivery()).run()
        net = run.timed_network
        roles = infer_roles(run)
        session = KnowledgeSession(net)
        installed = Counter()
        changed = 0
        queried = 0
        for _, node in run.timelines[roles["actor_b"]]:
            session.advance(node)
            go_node = session.find_go_node(roles["go_sender"])
            if go_node is None:
                continue
            theta = general(go_node, (roles["go_sender"], roles["actor_a"]))
            session.knows(theta, node, 0)
            queried += 1
            extended = ExtendedBoundsGraph(node, net)
            extended.add_general_node(theta)
            psi_layer = Counter(
                (edge.source, edge.target, edge.weight)
                for edge in extended.graph.edges
                if edge.label in PSI_LABELS
            )
            assert Counter(session._graph.engine.overlay_edges()) == psi_layer
            changed += sum((psi_layer - installed).values())
            installed = psi_layer
        assert queried > 5
        mapped = session.engine_stats.overlay_edges_mapped
        assert mapped <= changed
        # Re-mapping the whole layer per install would cost far more.
        assert mapped < queried * sum(installed.values()) / 2

    def test_describe_mentions_progress(self, coordination_run):
        run = coordination_run
        session = KnowledgeSession(run.timed_network)
        assert "sigma=-" in session.describe()
        session.advance(run.final_node("B"))
        text = session.describe()
        assert "advances=1" in text and "core_edges=" in text
