"""A small weighted-digraph toolkit used by the bounds-graph machinery.

The bounds graphs of the paper are directed graphs whose edges carry integer
weights and whose *longest* paths encode tight timing constraints.  Because an
edge ``(u, v, w)`` means ``time(v) >= time(u) + w``, longest paths compose
constraints and positive cycles are impossible in any graph describing a real
execution (a positive cycle would force a node to occur strictly after
itself).

Two query paths coexist:

* the plain Bellman–Ford relaxation of the original implementation, kept
  verbatim behind ``reference=True`` as the executable specification that the
  test-suite cross-validates against; and
* the batched :class:`~repro.core.longest_paths.LongestPathEngine` (the
  default), which interns nodes into dense indices, runs a topologically
  ordered DP over the SCC condensation, memoizes per-source rows, and extends
  them incrementally as the graph grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, Hashable, Iterable, Iterator, List, Optional, Tuple, TypeVar

NodeT = TypeVar("NodeT", bound=Hashable)

#: Value representing "no path" in longest-path computations.
NEG_INF = float("-inf")


class PositiveCycleError(RuntimeError):
    """Raised when a bounds graph contains a positive-weight cycle.

    A positive cycle means the constraint system is infeasible: some node
    would have to occur strictly later than itself.  A legal run can never
    produce one, so encountering it indicates corrupted input.
    """


@dataclass(frozen=True)
class Edge(Generic[NodeT]):
    """A weighted edge ``source --weight--> target`` with an optional label."""

    source: NodeT
    target: NodeT
    weight: int
    label: str = ""


class WeightedGraph(Generic[NodeT]):
    """A directed multigraph with integer edge weights."""

    def __init__(self) -> None:
        self._adjacency: Dict[NodeT, List[Edge[NodeT]]] = {}
        self._node_list: List[NodeT] = []  # insertion order, for suffix reads
        self._edges: List[Edge[NodeT]] = []
        self._version = 0
        self._engine = None

    # -- construction -------------------------------------------------------------

    def add_node(self, node: NodeT) -> None:
        if node not in self._adjacency:
            self._adjacency[node] = []
            self._node_list.append(node)
            self._version += 1

    def add_edge(self, source: NodeT, target: NodeT, weight: int, label: str = "") -> Edge[NodeT]:
        edge = Edge(source, target, int(weight), label)
        self.add_node(source)
        self.add_node(target)
        self._adjacency[source].append(edge)
        self._edges.append(edge)
        self._version += 1
        return edge

    # -- queries -----------------------------------------------------------------------

    def __contains__(self, node: NodeT) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    @property
    def nodes(self) -> Tuple[NodeT, ...]:
        return tuple(self._node_list)

    @property
    def edges(self) -> Tuple[Edge[NodeT], ...]:
        return tuple(self._edges)

    def nodes_from(self, start: int) -> List[NodeT]:
        """The nodes added after the first ``start``, in insertion order.

        Costs O(suffix), unlike slicing :attr:`nodes`, which copies the whole
        graph first: incremental readers poll this on every growth step.
        """
        return self._node_list[start:]

    def edges_from(self, start: int) -> List[Edge[NodeT]]:
        """The edges added after the first ``start``, in insertion order (O(suffix))."""
        return self._edges[start:]

    def out_edges(self, node: NodeT) -> Tuple[Edge[NodeT], ...]:
        return tuple(self._adjacency.get(node, ()))

    def in_edges(self, node: NodeT) -> Tuple[Edge[NodeT], ...]:
        return tuple(edge for edge in self._edges if edge.target == node)

    def successors(self, node: NodeT) -> Iterator[NodeT]:
        for edge in self._adjacency.get(node, ()):
            yield edge.target

    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def version(self) -> int:
        """Monotone counter bumped on every node/edge insertion (cache key)."""
        return self._version

    # -- longest paths -------------------------------------------------------------------

    @property
    def engine(self):
        """The batched :class:`LongestPathEngine` bound to this graph (lazy)."""
        if self._engine is None:
            from .longest_paths import LongestPathEngine

            self._engine = LongestPathEngine(self)
        return self._engine

    def longest_path_weights(self, source: NodeT, reference: bool = False) -> Dict[NodeT, float]:
        """Longest-path weight from ``source`` to every node (``-inf`` if unreachable).

        Raises :class:`PositiveCycleError` if a positive-weight cycle is
        reachable from ``source``.  With ``reference=True`` the original
        Bellman-Ford relaxation runs from scratch (the executable
        specification used by tests); the default delegates to the memoized
        batched engine.
        """
        if not reference:
            return self.engine.row(source)
        if source not in self._adjacency:
            raise KeyError(f"source {source!r} is not a node of the graph")
        distance: Dict[NodeT, float] = {node: NEG_INF for node in self._adjacency}
        distance[source] = 0
        node_count = len(self._adjacency)
        for _ in range(max(node_count - 1, 0)):
            changed = False
            for edge in self._edges:
                base = distance[edge.source]
                if base == NEG_INF:
                    continue
                candidate = base + edge.weight
                if candidate > distance[edge.target]:
                    distance[edge.target] = candidate
                    changed = True
            if not changed:
                break
        for edge in self._edges:
            base = distance[edge.source]
            if base != NEG_INF and base + edge.weight > distance[edge.target]:
                raise PositiveCycleError(
                    "positive-weight cycle reachable from the source; the constraint "
                    "system is infeasible"
                )
        return distance

    def longest_path_weight(
        self, source: NodeT, target: NodeT, reference: bool = False
    ) -> Optional[int]:
        """The weight of the longest path from ``source`` to ``target``.

        Returns ``None`` when the target is unreachable.
        """
        if not reference:
            return self.engine.weight(source, target)
        if target not in self._adjacency:
            raise KeyError(f"target {target!r} is not a node of the graph")
        weight = self.longest_path_weights(source, reference=True).get(target, NEG_INF)
        if weight == NEG_INF:
            return None
        return int(weight)

    def longest_path(
        self, source: NodeT, target: NodeT
    ) -> Optional[Tuple[int, Tuple[Edge[NodeT], ...]]]:
        """The longest path from ``source`` to ``target`` as ``(weight, edges)``.

        Returns ``None`` when the target is unreachable.  Ties are broken
        arbitrarily but deterministically.  Path *reconstruction* stays on the
        naive relaxation (parent tracking is per-query by nature); weight-only
        queries should use :meth:`longest_path_weight`, which is batched.
        """
        if source not in self._adjacency:
            raise KeyError(f"source {source!r} is not a node of the graph")
        if target not in self._adjacency:
            raise KeyError(f"target {target!r} is not a node of the graph")
        distance: Dict[NodeT, float] = {node: NEG_INF for node in self._adjacency}
        parent: Dict[NodeT, Optional[Edge[NodeT]]] = {node: None for node in self._adjacency}
        distance[source] = 0
        node_count = len(self._adjacency)
        for _ in range(max(node_count - 1, 0)):
            changed = False
            for edge in self._edges:
                base = distance[edge.source]
                if base == NEG_INF:
                    continue
                candidate = base + edge.weight
                if candidate > distance[edge.target]:
                    distance[edge.target] = candidate
                    parent[edge.target] = edge
                    changed = True
            if not changed:
                break
        for edge in self._edges:
            base = distance[edge.source]
            if base != NEG_INF and base + edge.weight > distance[edge.target]:
                raise PositiveCycleError(
                    "positive-weight cycle reachable from the source; the constraint "
                    "system is infeasible"
                )
        if distance[target] == NEG_INF:
            return None
        edges: List[Edge[NodeT]] = []
        current = target
        while current != source:
            edge = parent[current]
            if edge is None:
                break
            edges.append(edge)
            current = edge.source
        edges.reverse()
        return int(distance[target]), tuple(edges)

    def has_positive_cycle(self, reference: bool = False) -> bool:
        """Whether any positive-weight cycle exists anywhere in the graph."""
        if not reference:
            return self.engine.has_positive_cycle()
        distance: Dict[NodeT, float] = {node: 0 for node in self._adjacency}
        node_count = len(self._adjacency)
        for _ in range(max(node_count - 1, 0)):
            changed = False
            for edge in self._edges:
                candidate = distance[edge.source] + edge.weight
                if candidate > distance[edge.target]:
                    distance[edge.target] = candidate
                    changed = True
            if not changed:
                return False
        return any(
            distance[edge.source] + edge.weight > distance[edge.target] for edge in self._edges
        )

    def reachable_to(self, target: NodeT) -> frozenset:
        """Nodes from which ``target`` is reachable (including ``target`` itself)."""
        if target not in self._adjacency:
            raise KeyError(f"target {target!r} is not a node of the graph")
        predecessors: Dict[NodeT, List[NodeT]] = {node: [] for node in self._adjacency}
        for edge in self._edges:
            predecessors[edge.target].append(edge.source)
        seen = {target}
        stack = [target]
        while stack:
            current = stack.pop()
            for pred in predecessors[current]:
                if pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        return frozenset(seen)

    def reachable_from(self, source: NodeT) -> frozenset:
        """Nodes reachable from ``source`` (including ``source`` itself)."""
        if source not in self._adjacency:
            raise KeyError(f"source {source!r} is not a node of the graph")
        seen = {source}
        stack = [source]
        while stack:
            current = stack.pop()
            for edge in self._adjacency[current]:
                if edge.target not in seen:
                    seen.add(edge.target)
                    stack.append(edge.target)
        return frozenset(seen)

    def induced_subgraph(self, nodes: Iterable[NodeT]) -> "WeightedGraph[NodeT]":
        """The subgraph induced by ``nodes`` (edges with both endpoints inside)."""
        keep = set(nodes)
        result: WeightedGraph[NodeT] = WeightedGraph()
        for node in keep:
            if node in self._adjacency:
                result.add_node(node)
        for edge in self._edges:
            if edge.source in keep and edge.target in keep:
                result.add_edge(edge.source, edge.target, edge.weight, edge.label)
        return result
