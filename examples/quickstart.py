"""Quickstart: coordinate two actions without clocks, using zigzag causality.

This walks the full pipeline on the paper's Figure 2b pattern:

1. build a timed network (channels with lower/upper transmission bounds);
2. simulate a run in which C spontaneously triggers A's action ``a`` and B
   must perform ``b`` at least ``x`` time units later (``Late<a --x--> b>``);
3. let B run the paper's optimal Protocol 2, which acts exactly when a
   sigma-visible zigzag of weight >= x exists;
4. inspect *why* B was allowed to act: the knowledge computed from its
   extended bounds graph, and the witnessing zigzag pattern.

Run with:  python examples/quickstart.py
"""

from repro.core import KnowledgeChecker, TwoLeggedFork, ZigzagPattern, general, is_visible_zigzag
from repro.coordination import evaluate, late_task
from repro.scenarios import figure2b_scenario, zigzag_chain_equation_weight
from repro.viz import action_table, spacetime_diagram


def main() -> None:
    margin = 5
    task = late_task(margin)

    # Figure 2b: C -> {A, D}, E -> {D, B}, plus D -> B reports that make the
    # zigzag visible to B.  B runs the optimal protocol for Late<a --5--> b>.
    scenario = figure2b_scenario(margin=margin)
    print(f"Scenario: {scenario.name} -- {scenario.description}\n")

    run = scenario.run()
    print("Space-time diagram (time flows right, G! = external trigger):")
    print(spacetime_diagram(run, end=min(run.horizon, 22)))
    print()
    print("Actions performed:")
    print(action_table(run))
    print()

    outcome = evaluate(run, task)
    print(f"Task {task.describe()}: {outcome.describe()}")
    assert outcome.satisfied

    # Why was B allowed to act?  Reconstruct its knowledge at the action node.
    sigma = run.find_action("B", "b").node
    go_node = task.go_node(run)
    theta_a = general(go_node, ("C", "A"))  # the node at which A performs `a`
    checker = KnowledgeChecker(sigma, run.timed_network)
    known = checker.max_known_gap(theta_a, sigma)
    print(
        f"\nAt its action node, B knows  time(b) - time(a) >= {known} "
        f"(required margin: {margin})."
    )

    # The witnessing sigma-visible zigzag (Figure 2b's two forks).
    externals = {r.process: r.receiver_node for r in run.external_deliveries}
    pattern = ZigzagPattern(
        (
            TwoLeggedFork(general(externals["C"]), ("C", "D"), ("C", "A")),
            TwoLeggedFork(general(externals["E"]), ("E", "B"), ("E", "D")),
        )
    )
    print(f"Witnessing zigzag: {pattern.describe()}")
    print(f"  weight in this run: {pattern.weight(run)}")
    print(f"  visible to B at its action node: {is_visible_zigzag(pattern, sigma, run)}")
    print(
        "  Equation (1) fork-weight sum: "
        f"{zigzag_chain_equation_weight(scenario, 2)}"
    )


if __name__ == "__main__":
    main()
