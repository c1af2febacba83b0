"""Exploring what a process can *know* about timing it never observed.

This example digs one level below the coordination protocols and exposes the
paper's analysis machinery directly:

* the basic bounds graph ``GB(r)`` of a run and its longest paths (the tight
  constraints of Theorem 2, realised by the slow run);
* the extended bounds graph ``GE(r, sigma)`` of an observer, including the
  "over the horizon" inferences that auxiliary nodes provide; and
* how the observer's knowledge of ``time(b-node) - time(a-node)`` sharpens
  step by step as more of the zigzag pattern becomes visible to it.

Run with:  python examples/knowledge_explorer.py
"""

from repro.core import (
    ExtendedBoundsGraph,
    KnowledgeChecker,
    check_theorem2,
    general,
    past_nodes,
    slow_run,
)
from repro.scenarios import figure2b_scenario, zigzag_chain_equation_weight
from repro.simulation import GO_TRIGGER
from repro.viz import extended_graph_listing, path_listing, spacetime_diagram


def main() -> None:
    margin = 7
    scenario = figure2b_scenario(margin=margin)
    run = scenario.run()
    print("Run (Figure 2b pattern):")
    print(spacetime_diagram(run, end=20))
    print()

    go_node = run.external_node(GO_TRIGGER, "C")
    theta_a = general(go_node, ("C", "A"))
    a_node = run.resolve(theta_a)
    b_record = run.find_action("B", "b")
    assert b_record is not None

    # --- Theorem 2: the tightest provable constraint between a's and b's nodes.
    report = check_theorem2(run, a_node, b_record.node)
    print(
        f"Longest GB(r) path from a's node to b's node has weight {report.constraint_weight} "
        f"(Equation (1) gives {zigzag_chain_equation_weight(scenario, 2)})"
    )
    graph = run.bounds_graph()
    weight, edges = graph.longest_path(a_node, b_record.node)
    print(path_listing(edges, run))
    slowed = slow_run(run, b_record.node)
    print(
        "In the slow run (every constraint tight) the gap becomes exactly "
        f"{slowed.time_of(b_record.node) - slowed.time_of(a_node)}."
    )
    print()

    # --- How B's knowledge evolves along its own timeline.
    print("B's knowledge of  time(B's node) - time(a)  as its local state grows:")
    for time, node in run.timelines["B"]:
        if node.is_initial or go_node not in past_nodes(node):
            continue
        checker = KnowledgeChecker(node, run.timed_network)
        known = checker.max_known_gap(theta_a, node)
        marker = "  <- acts here" if node == b_record.node else ""
        print(f"  t={time:>3}: B knows the gap is at least {known}{marker}")
    print()

    # --- The extended bounds graph that produced those answers.
    sigma = b_record.node
    extended = ExtendedBoundsGraph(sigma, run.timed_network)
    print("Extended bounds graph at B's action node:")
    print(extended_graph_listing(extended, run))


if __name__ == "__main__":
    main()
