"""Property-based tests for the core analysis: causality, bounds graphs, timing."""

from hypothesis import given, settings, strategies as st

from repro.core import (
    basic_bounds_graph,
    is_p_closed,
    is_valid_timing,
    local_bounds_graph,
    local_bounds_graph_from_run,
    longest_zigzag_between,
    past_nodes,
    precedence_set,
    run_timing,
    slow_run,
    slow_timing,
    slow_timing_domain,
    verify_against_run,
)
from repro.core.causality import in_past, in_past_many
from repro.core.run_construction import realized_gap
from repro.scenarios import flooding_scenario, get_scenario
from repro.simulation import SeededRandomDelivery

SMALL = dict(max_examples=15, deadline=None)


def make_run(seed, num_processes=4, horizon=12):
    return flooding_scenario(num_processes=num_processes, seed=seed, horizon=horizon).run()


@settings(**SMALL)
@given(seed=st.integers(min_value=0, max_value=300))
def test_past_is_causally_closed(seed):
    run = make_run(seed)
    for process in run.processes:
        sigma = run.final_node(process)
        past = past_nodes(sigma)
        for node in past:
            assert past_nodes(node) <= past


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 6))
def test_in_past_many_matches_in_past(seed):
    run = (
        get_scenario("grid-flood")
        .build(rows=2, cols=3, seed=seed, horizon=8)
        .with_delivery(SeededRandomDelivery(seed=seed))
        .run()
    )
    probes = [node for timeline in run.timelines.values() for _, node in timeline]
    for process in sorted(run.processes):
        sigma = run.final_node(process)
        assert in_past_many(probes, sigma) == [in_past(node, sigma) for node in probes]


@settings(**SMALL)
@given(seed=st.integers(min_value=0, max_value=300))
def test_happens_before_implies_not_later(seed):
    run = make_run(seed)
    for process in run.processes:
        sigma = run.final_node(process)
        for node in past_nodes(sigma):
            assert run.time_of(node) <= run.time_of(sigma)


@settings(**SMALL)
@given(seed=st.integers(min_value=0, max_value=300))
def test_bounds_graph_edges_hold_and_no_positive_cycle(seed):
    run = make_run(seed)
    graph = basic_bounds_graph(run)
    ok, message = verify_against_run(graph, run)
    assert ok, message
    assert not graph.has_positive_cycle()


@settings(**SMALL)
@given(seed=st.integers(min_value=0, max_value=300))
def test_local_graph_matches_induced_subgraph(seed):
    run = make_run(seed)
    for process in run.processes:
        sigma = run.final_node(process)
        local = local_bounds_graph(sigma, run.timed_network)
        induced = local_bounds_graph_from_run(run, sigma)
        assert set(local.nodes) == set(induced.nodes)
        assert {(e.source, e.target, e.weight) for e in local.edges} == {
            (e.source, e.target, e.weight) for e in induced.edges
        }


@settings(**SMALL)
@given(seed=st.integers(min_value=0, max_value=300))
def test_actual_times_are_a_valid_timing(seed):
    run = make_run(seed)
    graph = basic_bounds_graph(run)
    assert is_valid_timing(graph, run_timing(run))


@settings(**SMALL)
@given(seed=st.integers(min_value=0, max_value=200))
def test_slow_timing_is_valid_on_p_closed_domain(seed):
    run = make_run(seed, horizon=10)
    graph = basic_bounds_graph(run)
    sigma = run.final_node(run.processes[-1])
    domain = slow_timing_domain(run, sigma)
    assert is_p_closed(graph, domain)
    timing = slow_timing(run, sigma)
    assert set(timing) == set(domain)
    assert is_valid_timing(graph, timing)


@settings(**SMALL)
@given(seed=st.integers(min_value=0, max_value=200))
def test_slow_run_is_legal_and_attains_constraints(seed):
    run = make_run(seed, horizon=10)
    graph = basic_bounds_graph(run)
    sigma = run.final_node(run.processes[0])
    slowed = slow_run(run, sigma)
    slowed.validate(require_forced_delivery=False)
    for node in precedence_set(graph, sigma):
        if node.is_initial:
            continue
        constraint = graph.longest_path_weight(node, sigma)
        assert realized_gap(slowed, node, sigma) == constraint


@settings(**SMALL)
@given(seed=st.integers(min_value=0, max_value=200))
def test_theorem1_for_longest_zigzags_between_final_nodes(seed):
    run = make_run(seed)
    finals = [run.final_node(p) for p in run.processes]
    for source in finals:
        for target in finals:
            if source == target:
                continue
            found = longest_zigzag_between(run, source, target)
            if found is None:
                continue
            weight, pattern = found
            assert pattern.is_valid_in(run)
            assert run.time_of(target) - run.time_of(source) >= weight
