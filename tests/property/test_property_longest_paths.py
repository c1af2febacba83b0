"""Property tests: the batched longest-path engine vs the naive reference.

The :class:`LongestPathEngine` (SCC-condensation DP, memoized rows,
incremental extension) must be *indistinguishable* from the retained naive
Bellman-Ford relaxation (``reference=True``) on every observable: weights,
reachability, positive-cycle detection -- including which sources raise
:class:`PositiveCycleError` -- and it must stay exact while the graph grows
underneath it.  Inputs cover random DAGs, random cyclic digraphs, staged
growth, and real extended bounds graphs from random-net scenarios.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    KnowledgeChecker,
    LongestPathEngine,
    PositiveCycleError,
    WeightedGraph,
    general,
)
from repro.core.causality import boundary_nodes
from repro.core.extended_graph import ExtendedBoundsGraph
from repro.scenarios import flooding_scenario

SMALL = dict(max_examples=10, deadline=None)


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------


@st.composite
def random_dags(draw):
    """An edge list over ``n0..n{k}`` with all edges pointing forward (a DAG)."""
    size = draw(st.integers(2, 10))
    edge_count = draw(st.integers(0, 2 * size))
    edges = []
    for _ in range(edge_count):
        source = draw(st.integers(0, size - 2))
        target = draw(st.integers(source + 1, size - 1))
        weight = draw(st.integers(-5, 5))
        edges.append((f"n{source}", f"n{target}", weight))
    return size, edges


@st.composite
def random_digraphs(draw):
    """An unconstrained random digraph; positive cycles are allowed."""
    size = draw(st.integers(2, 8))
    edge_count = draw(st.integers(0, 2 * size))
    edges = []
    for _ in range(edge_count):
        source = draw(st.integers(0, size - 1))
        target = draw(st.integers(0, size - 1))
        weight = draw(st.integers(-4, 4))
        edges.append((f"n{source}", f"n{target}", weight))
    return size, edges


def build(size, edges):
    graph = WeightedGraph()
    for index in range(size):
        graph.add_node(f"n{index}")
    for source, target, weight in edges:
        graph.add_edge(source, target, weight)
    return graph


def reference_row(graph, source):
    """``(row, raised)`` from the naive relaxation."""
    try:
        return graph.longest_path_weights(source, reference=True), False
    except PositiveCycleError:
        return None, True


def engine_row(graph, source):
    try:
        return graph.longest_path_weights(source), False
    except PositiveCycleError:
        return None, True


def assert_engine_matches_reference(graph):
    assert graph.has_positive_cycle() == graph.has_positive_cycle(reference=True)
    for source in graph.nodes:
        expected, expected_raised = reference_row(graph, source)
        actual, actual_raised = engine_row(graph, source)
        assert actual_raised == expected_raised, f"raise mismatch from {source}"
        if not expected_raised:
            assert actual == expected, f"weights mismatch from {source}"
            assert graph.engine.reachable_from(source) == graph.reachable_from(source)


# ---------------------------------------------------------------------------
# Agreement on static graphs.
# ---------------------------------------------------------------------------


@settings(**SMALL)
@given(dag=random_dags())
def test_engine_matches_reference_on_dags(dag):
    size, edges = dag
    graph = build(size, edges)
    assert not graph.has_positive_cycle()
    assert_engine_matches_reference(graph)


@settings(**SMALL)
@given(digraph=random_digraphs())
def test_engine_matches_reference_on_cyclic_graphs(digraph):
    size, edges = digraph
    graph = build(size, edges)
    assert_engine_matches_reference(graph)


@settings(**SMALL)
@given(digraph=random_digraphs())
def test_memoized_rows_are_stable(digraph):
    size, edges = digraph
    graph = build(size, edges)
    for source in graph.nodes:
        first, raised = engine_row(graph, source)
        second, raised_again = engine_row(graph, source)
        assert raised == raised_again
        assert first == second
    if not graph.has_positive_cycle():
        computed = graph.engine.all_pairs()
        # Every row was already memoized by the per-source queries above.
        assert computed == 0


@settings(**SMALL)
@given(digraph=random_digraphs(), data=st.data())
def test_batched_rows_raise_like_sequential_rows(digraph, data):
    """``rows()`` answers as a sequential ``row()`` loop, raise included.

    Rows (full and ``targets=``-restricted) equal the naive reference; a
    batch holding a positive-cycle source raises :class:`PositiveCycleError`
    at the first offending source in batch order, with exactly the rows of
    the sources before it memoized.
    """
    size, edges = digraph
    graph = build(size, edges)
    sources = data.draw(st.permutations(list(graph.nodes)))
    expected = []
    for source in sources:
        row, raised = reference_row(graph, source)
        if raised:
            break
        expected.append(row)
    engine = LongestPathEngine(graph)
    if len(expected) == len(sources):
        assert engine.rows(sources) == expected
        targets = sources[::2]
        assert engine.rows(sources, targets=targets) == [
            [row[target] for target in targets] for row in expected
        ]
        return
    try:
        engine.rows(sources)
        raised = False
    except PositiveCycleError:
        raised = True
    assert raised
    assert engine.cached_row_count == len(expected)
    assert engine.rows(sources[: len(expected)]) == expected


# ---------------------------------------------------------------------------
# Agreement under growth (incremental row extension).
# ---------------------------------------------------------------------------


@settings(**SMALL)
@given(
    digraph=random_digraphs(),
    growth=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(-4, 4)),
        min_size=1,
        max_size=6,
    ),
)
def test_incremental_extension_matches_fresh_reference(digraph, growth):
    size, edges = digraph
    graph = build(size, edges)
    # Warm the memo with every currently-computable row.
    for source in graph.nodes:
        engine_row(graph, source)
    # Grow the graph (new edges may introduce brand-new nodes) and require
    # the incrementally extended rows to agree with a from-scratch reference.
    for source, target, weight in growth:
        graph.add_edge(f"n{source}", f"n{target}", weight)
    assert_engine_matches_reference(graph)


@settings(**SMALL)
@given(
    digraph=random_digraphs(),
    growth=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(-4, 4)),
        min_size=1,
        max_size=4,
    ),
)
def test_extension_equals_cold_engine(digraph, growth):
    """A warmed engine after growth equals a cold engine on the final graph."""
    size, edges = digraph
    warmed = build(size, edges)
    for source in warmed.nodes:
        engine_row(warmed, source)
    for source, target, weight in growth:
        warmed.add_edge(f"n{source}", f"n{target}", weight)

    cold = build(size, edges)
    for source, target, weight in growth:
        cold.add_edge(f"n{source}", f"n{target}", weight)

    assert warmed.has_positive_cycle() == cold.has_positive_cycle()
    for source in cold.nodes:
        warm_row, warm_raised = engine_row(warmed, source)
        cold_row, cold_raised = engine_row(cold, source)
        assert warm_raised == cold_raised
        assert warm_row == cold_row


# ---------------------------------------------------------------------------
# Agreement on real scenario graphs (random nets).
# ---------------------------------------------------------------------------


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 50),
    num_processes=st.integers(3, 5),
    observer=st.integers(0, 4),
)
def test_engine_matches_reference_on_extended_bounds_graphs(
    seed, num_processes, observer
):
    run = flooding_scenario(
        num_processes=num_processes, seed=seed, horizon=10
    ).run()
    processes = sorted(run.processes)
    sigma = run.final_node(processes[observer % len(processes)])
    extended = ExtendedBoundsGraph(sigma, run.timed_network)
    graph = extended.graph
    assert not graph.has_positive_cycle()
    boundary = sorted(boundary_nodes(sigma).values(), key=lambda node: node.process)
    for source in boundary:
        assert graph.longest_path_weights(source) == graph.longest_path_weights(
            source, reference=True
        )
        for target in boundary:
            assert graph.longest_path_weight(source, target) == graph.longest_path_weight(
                source, target, reference=True
            )


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 50), num_processes=st.integers(3, 5))
def test_batched_knowledge_equals_per_query_knowledge(seed, num_processes):
    """``max_known_gaps`` answers exactly what a per-pair query loop answers.

    The batch path adds every general node before querying (engine rows are
    extended incrementally), so this also exercises growth caused by chain
    nodes of unresolved general nodes.
    """
    run = flooding_scenario(num_processes=num_processes, seed=seed, horizon=10).run()
    processes = sorted(run.processes)
    sigma = run.final_node(processes[0])
    net = run.timed_network
    boundary = sorted(boundary_nodes(sigma).values(), key=lambda node: node.process)
    nodes = [general(node) for node in boundary]
    # One hop along a real channel beyond each boundary node (a chain node).
    for node in boundary:
        neighbors = sorted(net.out_neighbors(node.process))
        if neighbors and not node.is_initial:
            nodes.append(general(node, (node.process, neighbors[0])))
    pairs = [(theta1, theta2) for theta1 in nodes for theta2 in nodes]

    batched = KnowledgeChecker(sigma, net).max_known_gaps(pairs)
    per_query_checker = KnowledgeChecker(sigma, net)
    per_query = [
        per_query_checker.max_known_gap(theta1, theta2) for theta1, theta2 in pairs
    ]
    assert batched == per_query

    # And both agree with the naive reference relaxation on the final graph.
    extended = per_query_checker.extended_graph
    keys = [
        (extended.add_general_node(theta1), extended.add_general_node(theta2))
        for theta1, theta2 in pairs
    ]
    reference = [
        extended.graph.longest_path_weight(key1, key2, reference=True)
        for key1, key2 in keys
    ]
    assert per_query == reference


# ---------------------------------------------------------------------------
# Overlay edits by delta.
# ---------------------------------------------------------------------------

#: Overlay endpoints: base nodes ``n0..n5`` plus ``psi0..psi2``, which start
#: overlay-only and may later join the base graph.
ENDPOINTS = [f"n{index}" for index in range(6)] + [f"psi{index}" for index in range(3)]

overlay_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "remove", "grow"]),
        st.sampled_from(ENDPOINTS),
        st.sampled_from(ENDPOINTS),
        st.integers(-4, 2),
        st.integers(0, 20),
    ),
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(digraph=random_dags(), ops=overlay_ops)
def test_overlay_edits_match_the_combined_reference(digraph, ops):
    """``update_overlay`` deltas answer as the naive relaxation of base+overlay.

    Edits interleave with base growth -- including growth that turns an
    overlay-only vertex into a base node; rows, key sets and
    ``PositiveCycleError`` must agree.
    """
    size, edges = digraph
    graph = build(size, edges)
    engine = LongestPathEngine(graph)
    overlay = []
    for kind, source, target, weight, pick in ops:
        if kind == "grow":
            graph.add_edge(source, target, weight)
            continue
        if kind == "add":
            edge, delta = (source, target, weight), {"added": [(source, target, weight)]}
            overlay.append(edge)
        elif overlay:
            edge = overlay.pop(pick % len(overlay))
            delta = {"removed": [edge]}
        else:
            continue
        engine.update_overlay(**delta)
        combined = WeightedGraph()
        for node in graph.nodes:
            combined.add_node(node)
        for base_edge in graph.edges:
            combined.add_edge(base_edge.source, base_edge.target, base_edge.weight)
        for overlay_edge in overlay:
            combined.add_edge(*overlay_edge)
        for source_node in combined.nodes:
            expected = reference_row(combined, source_node)
            try:
                got = engine.overlay_row(source_node), False
            except PositiveCycleError:
                got = None, True
            assert got == expected, f"mismatch from {source_node} after {kind}"
