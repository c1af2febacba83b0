"""Property tests: incremental knowledge sessions == fresh per-sigma checkers.

The whole point of :class:`KnowledgeSession` is to be *indistinguishable*
from building a fresh :class:`KnowledgeChecker` at every observed node while
doing only O(delta) work per step.  These tests replay observer timelines of
randomly generated runs -- across scenario families (figures, grids, tori,
rings, random nets) and delivery adversaries (earliest, latest, seeded
random) -- and require identical ``max_known_gap``/``knows`` answers at
*every* node, for basic pairs and for chain thetas that start unresolved and
resolve mid-timeline (the psi re-anchoring edge cases: ``E''`` retraction,
boundary advance, chain-anchor dropping and chain bridging).
"""

from hypothesis import given, settings, strategies as st

from repro.core import KnowledgeChecker, KnowledgeSession, general
from repro.core.causality import boundary_nodes
from repro.core.extended_graph import ExtendedGraphError
from repro.coordination import EagerKnowledgeProbe, early_task, late_task
from repro.coordination.optimal import find_go_node
from repro.scenarios import figure2b_scenario, get_scenario
from repro.simulation import (
    Context,
    EarliestDelivery,
    LatestDelivery,
    ProtocolAssignment,
    SeededRandomDelivery,
    go_at,
    go_sender_protocol,
    simulate,
)
from repro.simulation.network import grid, torus
from repro.simulation.protocols import relayed_actor_protocol

SMALL = dict(max_examples=8, deadline=None)

#: Registered scenario families the replay sweeps over (name, params).
SCENARIOS = [
    ("figure2b", {}),
    ("line-flood", {"num_processes": 3}),
    ("ring-flood", {"num_processes": 4}),
    ("grid-flood", {"rows": 2, "cols": 2, "horizon": 8}),
    ("torus-flood", {"horizon": 6}),
    ("flooding", {"num_processes": 4, "horizon": 8}),
]

ADVERSARIES = ["earliest", "latest", "random"]


def adversary(kind, seed):
    if kind == "earliest":
        return EarliestDelivery()
    if kind == "latest":
        return LatestDelivery()
    return SeededRandomDelivery(seed=seed)


def observer_timeline(run):
    """The process that saw the most of the run -- the interesting observer."""
    process = max(
        sorted(run.processes),
        key=lambda p: len(boundary_nodes(run.final_node(p))),
    )
    return [node for _, node in run.timelines[process] if not node.is_initial]


def query_set(run, sigma):
    """Basic boundary pairs plus chain thetas (resolved and unresolved)."""
    net = run.timed_network
    boundary = sorted(boundary_nodes(sigma).values(), key=lambda node: node.process)
    queries = [general(node) for node in boundary]
    for node in boundary:
        if node.is_initial:
            continue
        for destination in sorted(net.out_neighbors(node.process))[:2]:
            queries.append(general(node, (node.process, destination)))
            two_hop = sorted(net.out_neighbors(destination))
            if two_hop:
                queries.append(
                    general(node, (node.process, destination, two_hop[0]))
                )
    return queries


def assert_answers_match(run, session, sigma, include_auxiliary=True):
    """The session answers every query at ``sigma`` as a fresh checker does."""
    checker = KnowledgeChecker(sigma, run.timed_network, include_auxiliary=include_auxiliary)
    queries = query_set(run, sigma)
    for theta1 in queries:
        for theta2 in queries:
            if theta1 is theta2:
                continue
            try:
                expected = checker.max_known_gap(theta1, theta2)
            except ExtendedGraphError:
                expected = ExtendedGraphError
            try:
                got = session.max_known_gap(theta1, theta2)
            except ExtendedGraphError:
                got = ExtendedGraphError
            assert got == expected, (
                f"{theta1.describe()} -> {theta2.describe()} at "
                f"{sigma.describe()}: checker={expected} session={got}"
            )


def assert_session_matches_checker(run, include_auxiliary, nodes=None):
    """Advance one session along a timeline; compare answers at every node."""
    session = KnowledgeSession(run.timed_network, include_auxiliary=include_auxiliary)
    for sigma in nodes if nodes is not None else observer_timeline(run):
        session.advance(sigma)
        assert_answers_match(run, session, sigma, include_auxiliary)
    return session


@settings(**SMALL)
@given(
    scenario=st.sampled_from(SCENARIOS),
    adversary_kind=st.sampled_from(ADVERSARIES),
    seed=st.integers(0, 5),
)
def test_session_matches_fresh_checker_everywhere(scenario, adversary_kind, seed):
    name, params = scenario
    spec = get_scenario(name)
    build_params = dict(params)
    if "seed" in {p.name for p in spec.params}:
        build_params["seed"] = seed
    run = spec.build(**build_params).with_delivery(adversary(adversary_kind, seed)).run()
    assert_session_matches_checker(run, include_auxiliary=True)


@settings(**SMALL)
@given(
    scenario=st.sampled_from(SCENARIOS[:4]),
    adversary_kind=st.sampled_from(ADVERSARIES),
    seed=st.integers(0, 3),
)
def test_session_matches_checker_without_auxiliary(scenario, adversary_kind, seed):
    """The local-graph ablation must track its fresh counterpart too."""
    name, params = scenario
    spec = get_scenario(name)
    build_params = dict(params)
    if "seed" in {p.name for p in spec.params}:
        build_params["seed"] = seed
    run = spec.build(**build_params).with_delivery(adversary(adversary_kind, seed)).run()
    assert_session_matches_checker(run, include_auxiliary=False)


@settings(**SMALL)
@given(
    rows=st.integers(2, 3),
    cols=st.integers(2, 3),
    upper_slack=st.integers(0, 2),
    seed=st.integers(0, 5),
    wrap=st.booleans(),
)
def test_psi_reanchoring_on_coordination_timelines(rows, cols, upper_slack, seed, wrap):
    """Chain thetas through the go node resolve mid-timeline; answers agree.

    This is the Protocol-2 shape: the ``go -> A`` chain starts entirely
    beyond B's view (anchored to psi nodes), then its hops are seen to
    arrive one by one -- every step retracts ``E''`` edges, advances
    boundaries, and eventually drops the chain anchor and bridges the chain
    vertex to the resolved basic node.
    """
    if rows * cols < 2:
        return
    net = (torus if wrap else grid)(rows, cols, 1, 1 + upper_slack)
    go_sender = "r0c0"
    actor = sorted(net.out_neighbors(go_sender))[0]
    protocols = ProtocolAssignment()
    protocols.assign(go_sender, go_sender_protocol())
    protocols.assign(actor, relayed_actor_protocol("a", go_sender))
    run = simulate(
        Context(net),
        protocols,
        delivery=SeededRandomDelivery(seed=seed),
        external_inputs=go_at(1, go_sender),
        horizon=10,
    )
    observer = f"r{rows - 1}c{cols - 1}"
    session = KnowledgeSession(net)
    theta_by_go = {}
    for _, node in run.timelines[observer]:
        if node.is_initial:
            continue
        session.advance(node)
        go_node = session.find_go_node(go_sender)
        assert go_node == find_go_node(node, go_sender)
        checker = KnowledgeChecker(node, net)
        if go_node is None:
            continue
        theta = theta_by_go.setdefault(go_node, general(go_node, (go_sender, actor)))
        assert session.max_known_gap(theta, node) == checker.max_known_gap(theta, node)
        assert session.max_known_gap(node, theta) == checker.max_known_gap(node, theta)
        assert session.known_window(theta, node) == checker.known_window(theta, node)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 4), adversary_kind=st.sampled_from(ADVERSARIES))
def test_session_batches_match_checker_batches(seed, adversary_kind):
    """Batched queries agree with the checker's batch API pair for pair."""
    spec = get_scenario("grid-flood")
    run = (
        spec.build(rows=2, cols=3, seed=seed, horizon=8)
        .with_delivery(adversary(adversary_kind, seed))
        .run()
    )
    net = run.timed_network
    nodes = observer_timeline(run)
    session = KnowledgeSession(net)
    for sigma in nodes:
        session.advance(sigma)
        checker = KnowledgeChecker(sigma, net)
        queries = query_set(run, sigma)
        pairs = [
            (theta1, theta2)
            for theta1 in queries
            for theta2 in queries
            if theta1 is not theta2
        ]
        try:
            expected = checker.max_known_gaps(pairs)
        except ExtendedGraphError:
            continue
        assert session.max_known_gaps(pairs) == expected


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 5), chunk=st.sampled_from([1, 2, 4]))
def test_advance_many_chunks_match_fresh_checker(seed, chunk):
    """A session fed ``advance_many`` chunks answers like a fresh checker.

    Queries are compared at each chunk's last node, where the session stands
    after the call.
    """
    run = (
        get_scenario("grid-flood")
        .build(rows=2, cols=3, seed=seed, horizon=8)
        .with_delivery(SeededRandomDelivery(seed=seed))
        .run()
    )
    nodes = observer_timeline(run)
    session = KnowledgeSession(run.timed_network)
    for start in range(0, len(nodes), chunk):
        block = nodes[start : start + chunk]
        session.advance_many(block)
        assert_answers_match(run, session, block[-1])


# ---------------------------------------------------------------------------
# Chunked coordination replays ride advance_many.
# ---------------------------------------------------------------------------

CHUNK_SIZES = (1, 2, 3, 8, 64)


@settings(max_examples=6, deadline=None)
@given(margin=st.integers(0, 4), kind=st.sampled_from(["late", "early"]))
def test_chunked_probe_matches_per_step_on_figure2b(margin, kind):
    run = figure2b_scenario(margin=margin).run()
    task = late_task(margin) if kind == "late" else early_task(margin)
    results = {
        EagerKnowledgeProbe(task).first_actionable_node(run, chunk_steps=chunk)
        for chunk in CHUNK_SIZES
    }
    assert len(results) == 1


@settings(max_examples=8, deadline=None)
@given(
    rows=st.integers(2, 3),
    cols=st.integers(2, 3),
    margin=st.integers(0, 3),
    seed=st.integers(0, 5),
    kind=st.sampled_from(["late", "early"]),
)
def test_chunked_probe_matches_per_step_on_grid_runs(rows, cols, margin, seed, kind):
    """Chunk boundaries never change which node the probe reports."""
    net = grid(rows, cols, 1, 2)
    go_sender = "r0c0"
    actor = sorted(net.out_neighbors(go_sender))[0]
    observer = f"r{rows - 1}c{cols - 1}"
    protocols = ProtocolAssignment()
    protocols.assign(go_sender, go_sender_protocol())
    protocols.assign(actor, relayed_actor_protocol("a", go_sender))
    run = simulate(
        Context(net),
        protocols,
        delivery=SeededRandomDelivery(seed=seed),
        external_inputs=go_at(1, go_sender),
        horizon=10,
    )
    maker = late_task if kind == "late" else early_task
    task = maker(margin, go_sender=go_sender, actor_a=actor, actor_b=observer)
    results = {
        EagerKnowledgeProbe(task).first_actionable_node(run, chunk_steps=chunk)
        for chunk in CHUNK_SIZES
    }
    assert len(results) == 1
