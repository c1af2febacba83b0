"""Valid timing functions, p-closed sets, and the slow timing (Definitions 9-13).

The constructive half of the paper's necessity proofs works by *re-timing*
runs: one assigns new occurrence times to (a subset of) the basic nodes of a
run and shows the result is again a legal run.  A timing function is *valid*
for a set of nodes when it satisfies every bounds-graph edge constraint inside
the set, and the set must be *precedence-closed* (p-closed) so that no
constraint from outside the set is violated by delaying nodes inside it.

The *slow timing* of a node ``sigma`` (Definition 13) delays every node that
can reach ``sigma`` in the bounds graph as much as the constraints allow, so
that the gap between any such node and ``sigma`` becomes exactly the longest
path weight between them -- which is what makes the longest-path constraint
tight and powers Theorem 2.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, TYPE_CHECKING

from .bounds_graph import is_p_closed, precedence_set
from .graph import NEG_INF, WeightedGraph
from .nodes import BasicNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.runs import Run


class TimingError(ValueError):
    """Raised when a timing function violates the constraints it must satisfy."""


def validate_timing(
    graph: WeightedGraph[BasicNode],
    timing: Mapping[BasicNode, int],
    require_nonnegative: bool = True,
) -> None:
    """Check that ``timing`` is a valid timing function for its domain (Def. 10).

    Every edge of the graph whose endpoints are both in the domain must
    satisfy ``T(source) + weight <= T(target)``.
    """
    domain = set(timing)
    if require_nonnegative and any(value < 0 for value in timing.values()):
        raise TimingError("timing functions must assign non-negative times")
    for edge in graph.edges:
        if edge.source in domain and edge.target in domain:
            if timing[edge.source] + edge.weight > timing[edge.target]:
                raise TimingError(
                    f"edge {edge.label} from {edge.source.describe()} to "
                    f"{edge.target.describe()} with weight {edge.weight} is violated by "
                    f"T={timing[edge.source]} -> T={timing[edge.target]}"
                )


def is_valid_timing(
    graph: WeightedGraph[BasicNode], timing: Mapping[BasicNode, int]
) -> bool:
    """Boolean form of :func:`validate_timing`."""
    try:
        validate_timing(graph, timing)
    except TimingError:
        return False
    return True


def run_timing(run: "Run", nodes: Optional[Iterable[BasicNode]] = None) -> Dict[BasicNode, int]:
    """The actual occurrence times of (a subset of) a run's nodes.

    The identity re-timing: always a valid timing function for the run's own
    bounds graph, used as a sanity baseline in tests.
    """
    selected = set(nodes) if nodes is not None else None
    timing: Dict[BasicNode, int] = {}
    for node in run.nodes():
        if selected is None or node in selected:
            timing[node] = run.time_of(node)
    return timing


def longest_distances_to(
    graph: WeightedGraph[BasicNode], target: BasicNode
) -> Dict[BasicNode, int]:
    """Longest-path weight from every node *to* ``target`` (only reachable nodes).

    Computed by one Bellman-Ford pass on the reversed graph.
    """
    reversed_graph: WeightedGraph[BasicNode] = WeightedGraph()
    for node in graph.nodes:
        reversed_graph.add_node(node)
    for edge in graph.edges:
        reversed_graph.add_edge(edge.target, edge.source, edge.weight, edge.label)
    distances = reversed_graph.longest_path_weights(target)
    return {node: int(value) for node, value in distances.items() if value != NEG_INF}


def slow_timing(run: "Run", sigma: BasicNode) -> Dict[BasicNode, int]:
    """The slow timing function of ``sigma`` in the run (Definition 13).

    Defined on ``V_sigma`` (the nodes with a path to ``sigma`` in ``GB(r)``):
    ``T(sigma') = D - d(sigma')`` where ``d(sigma')`` is the longest-path
    weight from ``sigma'`` to ``sigma`` and ``D`` is the largest such weight.
    Under this timing the gap between any node of ``V_sigma`` and ``sigma`` is
    exactly the longest-path constraint, i.e. every constraint is tight.
    """
    graph = run.bounds_graph()
    if sigma not in graph:
        raise TimingError(f"{sigma.describe()} does not appear in the run")
    distances = longest_distances_to(graph, sigma)
    if not distances:
        raise TimingError("no node reaches sigma in the bounds graph")
    maximum = max(distances.values())
    return {node: maximum - weight for node, weight in distances.items()}


def slow_timing_domain(run: "Run", sigma: BasicNode) -> FrozenSet[BasicNode]:
    """``V_sigma``: the domain of the slow timing function."""
    return precedence_set(run.bounds_graph(), sigma)


def check_p_closed(run: "Run", nodes: Iterable[BasicNode]) -> bool:
    """Whether a node set is p-closed w.r.t. the run's bounds graph (Def. 11)."""
    return is_p_closed(run.bounds_graph(), nodes)


def tight_gap(run: "Run", sigma_from: BasicNode, sigma_to: BasicNode) -> Optional[int]:
    """The longest-path weight from ``sigma_from`` to ``sigma_to`` in ``GB(r)``.

    This is the tightest precedence constraint the run's communication pattern
    forces between the two nodes (``None`` when the pattern forces nothing).
    """
    return run.bounds_graph().longest_path_weight(sigma_from, sigma_to)
