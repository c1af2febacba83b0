"""Converting bounds-graph paths into zigzag patterns (Lemma 5).

Lemma 5 of the paper states that every path in the basic bounds graph
``GB(r)`` between two basic nodes induces a zigzag pattern of equal weight
between (general nodes corresponding to) those basic nodes.  The construction
is the bridge between the graph-theoretic argument of Theorem 2 and the
communication-pattern statement of the theorem: the longest path from
``sigma1`` to ``sigma2`` both *is* the tightest provable constraint and
*materialises* as a zigzag in the run.

The conversion follows the paper's inductive proof edge by edge:

* a ``lower`` edge (a message from the current node) extends the pattern with
  a fork whose head leg is that single message, joined to the next fork;
* an ``upper`` edge (a message *to* the current node) extends the next fork's
  tail leg by the message's hop, again joined;
* a ``succ`` edge contributes a trivial fork that is *not* joined to its
  successor, adding the one-unit separation to the weight.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, TYPE_CHECKING

from .bounds_graph import LOWER_EDGE, SUCCESSOR_EDGE, UPPER_EDGE
from .forks import TwoLeggedFork, trivial_fork
from .graph import Edge
from .nodes import BasicNode, GeneralNode, general
from .zigzag import ZigzagPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.runs import Run


class ConversionError(ValueError):
    """Raised when a path cannot be converted (malformed labels or endpoints)."""


def path_to_zigzag(
    run: "Run",
    path_edges: Sequence[Edge[BasicNode]],
    theta1: Optional[GeneralNode] = None,
    theta2: Optional[GeneralNode] = None,
) -> ZigzagPattern:
    """Convert a ``GB(r)`` path into a zigzag pattern of the same weight.

    ``path_edges`` is the edge sequence of a path from ``basic(theta1, r)`` to
    ``basic(theta2, r)``; when the general nodes are omitted they default to
    the path's basic endpoints themselves.
    """
    if not path_edges and theta1 is None and theta2 is None:
        raise ConversionError("an empty path needs explicit endpoint nodes")
    if path_edges:
        source = path_edges[0].source
        target = path_edges[-1].target
        for first, second in zip(path_edges, path_edges[1:]):
            if first.target != second.source:
                raise ConversionError("edges do not form a contiguous path")
    else:
        source = run.resolve(theta1)  # type: ignore[arg-type]
        target = run.resolve(theta2)  # type: ignore[arg-type]
        if source is None or target is None or source != target:
            raise ConversionError("empty path endpoints must resolve to the same node")

    start = theta1 if theta1 is not None else general(source)
    end = theta2 if theta2 is not None else general(target)

    resolved_start = run.resolve(start)
    resolved_end = run.resolve(end)
    if resolved_start != source or resolved_end != target:
        raise ConversionError(
            "the provided general nodes do not resolve to the path's endpoints"
        )

    return _convert(run, list(path_edges), start, end)


def _convert(
    run: "Run",
    edges: list,
    theta1: GeneralNode,
    theta2: GeneralNode,
) -> ZigzagPattern:
    # Base case: no edges left -- both endpoints are the same basic node.
    if not edges:
        return ZigzagPattern((trivial_fork(theta1), trivial_fork(theta2)))

    edge = edges[0]
    rest = edges[1:]
    next_theta = general(edge.target)
    suffix = _convert(run, rest, next_theta, theta2)

    process = theta1.process
    if edge.label == LOWER_EDGE:
        # A message sent at theta1's node to edge.target's process: new fork whose
        # head is that delivery and whose tail is theta1 itself; it is joined to the
        # suffix because its head *is* the suffix's tail node.
        fork = TwoLeggedFork(theta1, (process, edge.target.process), (process,))
        return ZigzagPattern((fork,) + suffix.forks)
    if edge.label == UPPER_EDGE:
        # A message sent at edge.target's node and received at theta1's node:
        # extend the suffix's first fork's tail leg by that hop and prepend a
        # trivial fork at theta1 (joined: the extended tail resolves to theta1's node).
        first = suffix.forks[0]
        extended = TwoLeggedFork(
            first.base,
            first.head_path,
            first.tail_path + (process,),
        )
        return ZigzagPattern((trivial_fork(theta1), extended) + suffix.forks[1:])
    if edge.label == SUCCESSOR_EDGE:
        # theta1's node is the predecessor of the suffix's tail node on the same
        # timeline: prepend a trivial fork, deliberately *not* joined, which is what
        # contributes the +1 separation to the weight.
        return ZigzagPattern((trivial_fork(theta1),) + suffix.forks)
    raise ConversionError(f"unknown bounds-graph edge label {edge.label!r}")


def longest_zigzag_between(
    run: "Run", source: BasicNode, target: BasicNode
) -> Optional[Tuple[int, ZigzagPattern]]:
    """The maximum-weight zigzag between two basic nodes of a run.

    Computes the longest path in ``GB(r)`` and converts it via Lemma 5.
    Returns ``None`` when no path (hence no zigzag-derived constraint) exists.
    """
    result = run.bounds_graph().longest_path(source, target)
    if result is None:
        return None
    weight, edges = result
    pattern = path_to_zigzag(run, edges, general(source), general(target))
    return weight, pattern
