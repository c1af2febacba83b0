"""Unit tests for the batched longest-path engine's own API surface."""

import pytest

from repro.core import LongestPathEngine, PositiveCycleError, WeightedGraph


def diamond():
    graph = WeightedGraph()
    graph.add_edge("a", "b", 2)
    graph.add_edge("a", "c", 1)
    graph.add_edge("b", "d", 3)
    graph.add_edge("c", "d", 10)
    graph.add_node("island")
    return graph


class TestQueries:
    def test_weight_and_row(self):
        graph = diamond()
        engine = graph.engine
        assert engine.weight("a", "d") == 11
        row = engine.row("a")
        assert row["d"] == 11 and row["b"] == 2
        assert row["island"] == float("-inf")
        assert engine.weight("a", "island") is None

    def test_unknown_nodes_raise_keyerror(self):
        engine = diamond().engine
        with pytest.raises(KeyError):
            engine.weight("nope", "a")
        with pytest.raises(KeyError):
            engine.weight("a", "nope")
        with pytest.raises(KeyError):
            engine.row("nope")

    def test_reachable_from(self):
        graph = diamond()
        assert graph.engine.reachable_from("b") == frozenset({"b", "d"})
        assert graph.engine.reachable_from("island") == frozenset({"island"})

    def test_graph_engine_is_cached(self):
        graph = diamond()
        assert graph.engine is graph.engine
        assert isinstance(graph.engine, LongestPathEngine)


class TestBatchAndMemoization:
    def test_all_pairs_is_idempotent(self):
        graph = diamond()
        engine = graph.engine
        assert engine.all_pairs() == 5
        assert engine.cached_row_count == 5
        assert engine.all_pairs() == 0

    def test_repeated_queries_hit_the_row_cache(self):
        graph = diamond()
        engine = graph.engine
        for _ in range(10):
            assert engine.weight("a", "d") == 11
        assert engine.stats.rows_computed == 1
        assert engine.stats.row_cache_hits == 9
        assert engine.stats.queries == 10

    def test_growth_extends_cached_rows(self):
        graph = diamond()
        engine = graph.engine
        assert engine.weight("a", "d") == 11
        graph.add_edge("d", "e", 4)
        assert engine.weight("a", "e") == 15
        assert engine.stats.rows_computed == 1
        assert engine.stats.rows_extended == 1
        assert engine.stats.syncs == 2

    def test_stats_as_dict_round_trip(self):
        engine = diamond().engine
        engine.weight("a", "d")
        stats = engine.stats.as_dict()
        assert stats["rows_computed"] == 1
        assert set(stats) == {
            "rows_computed",
            "rows_extended",
            "row_cache_hits",
            "syncs",
            "queries",
            "overlay_rows_computed",
            "overlay_row_cache_hits",
            "overlay_installs",
            "overlay_edges_mapped",
        }


class TestCycles:
    def test_zero_weight_cycles_are_fine(self):
        graph = WeightedGraph()
        graph.add_edge("a", "b", 2)
        graph.add_edge("b", "a", -2)
        graph.add_edge("b", "c", 1)
        engine = graph.engine
        assert not engine.has_positive_cycle()
        assert engine.weight("a", "c") == 3
        assert engine.weight("a", "a") == 0

    def test_positive_cycle_raises_only_when_reachable(self):
        graph = WeightedGraph()
        graph.add_edge("a", "b", 1)
        graph.add_edge("cycle1", "cycle2", 2)
        graph.add_edge("cycle2", "cycle1", -1)
        engine = graph.engine
        assert engine.has_positive_cycle()
        # The cycle is unreachable from "a", so querying from "a" succeeds.
        assert engine.weight("a", "b") == 1
        with pytest.raises(PositiveCycleError):
            engine.row("cycle1")

    def test_growth_creating_a_cycle_invalidates_only_affected_rows(self):
        graph = WeightedGraph()
        graph.add_edge("a", "b", 1)
        graph.add_edge("x", "y", 2)
        engine = graph.engine
        assert engine.weight("a", "b") == 1
        assert engine.weight("x", "y") == 2
        graph.add_edge("y", "x", -1)  # closes the cycle x->y->x of weight +1
        with pytest.raises(PositiveCycleError):
            engine.weight("x", "y")
        # Rows whose source cannot reach the new cycle keep working.
        assert engine.weight("a", "b") == 1
        assert engine.has_positive_cycle()

    def test_component_count_and_describe(self):
        graph = WeightedGraph()
        graph.add_edge("a", "b", 2)
        graph.add_edge("b", "a", -2)
        graph.add_edge("b", "c", 1)
        engine = graph.engine
        assert engine.component_count() == 2
        assert "nodes=3" in engine.describe()
