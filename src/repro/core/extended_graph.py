"""The extended bounds graph ``GE(r, sigma)`` (Definition 16) and its
knowledge-oriented augmentation.

``GB(r, sigma)`` -- the part of the bounds graph a node can see -- misses
timing information that the node nevertheless possesses: messages that left
its past but have not (yet) been seen to arrive impose constraints through
their upper bounds, and under a flooding full-information protocol the node
even knows that *future* deliveries beyond its view will themselves trigger
further sends.  The paper captures this by adding one *auxiliary node*
``psi_i`` per process, standing for the earliest point on ``i``'s timeline
beyond the view of ``sigma`` at which messages will be delivered, together
with three extra edge sets:

* ``E'``  : ``boundary_i --1--> psi_i`` (the auxiliary node strictly follows
  the last ``i``-node in the past);
* ``E''`` : ``psi_j --(-U_ij)--> sigma_s`` for every message sent at a past
  node ``sigma_s`` towards ``j`` that was not delivered inside the past;
* ``E'''``: ``psi_i --(-U_ji)--> psi_j`` for every channel ``(j, i)``
  (flooding: the first beyond-view delivery at ``j`` triggers a send to ``i``
  that must itself land beyond the view within ``U_ji``).

On top of ``GE(r, sigma)`` this module adds *chain nodes* for arbitrary
``sigma``-recognized general nodes: the unresolved suffix of a general node's
message chain is materialised as virtual vertices connected by the chain's
lower/upper bound edges and anchored after the relevant auxiliary nodes.
Longest paths in the resulting graph are exactly the timed-precedence facts
``sigma`` *knows* (Theorem 4); :mod:`repro.core.knowledge` exposes that as an
API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..simulation.network import Process, TimedNetwork
from .causality import (
    boundary_nodes,
    local_delivery_map,
    past_nodes,
)
from .bounds_graph import local_bounds_graph
from .graph import WeightedGraph
from .longest_paths import LongestPathEngine
from .nodes import BasicNode, GeneralNode

#: Edge labels specific to the extended graph.
AUXILIARY_EDGE = "aux"  # E'  : boundary -> psi
UNDELIVERED_EDGE = "undelivered"  # E'' : psi -> sending node
FLOODING_EDGE = "flooding"  # E''': psi -> psi
CHAIN_LOWER_EDGE = "chain-lower"
CHAIN_UPPER_EDGE = "chain-upper"
CHAIN_ANCHOR_EDGE = "chain-anchor"


class ExtendedGraphError(ValueError):
    """Raised when the extended graph is asked about nodes it cannot reason about."""


@dataclass(frozen=True, init=False)
class AuxiliaryNode:
    """The auxiliary node ``psi_i`` of process ``i``."""

    process: Process
    # Every psi-overlay edit hashes psi nodes, so the hash is computed once
    # (as for BasicNode); __reduce__ recomputes it in another process.
    _hash: int = field(repr=False, compare=False)

    def __init__(self, process: Process) -> None:
        object.__setattr__(self, "process", process)
        object.__setattr__(self, "_hash", hash(("psi", process)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (AuxiliaryNode, (self.process,))

    def describe(self) -> str:
        return f"psi({self.process})"


@dataclass(frozen=True)
class ChainNode:
    """A virtual vertex for an unresolved hop of a general node's message chain.

    ``prefix`` is the general node ``<sigma', p[0..k]>`` describing the
    delivery this vertex stands for.  Chain nodes are shared between general
    nodes with a common prefix, so repeatedly adding related general nodes
    never duplicates vertices.
    """

    prefix: GeneralNode

    @property
    def process(self) -> Process:
        return self.prefix.process

    def describe(self) -> str:
        return f"chain({self.prefix.describe()})"


GraphKey = Union[BasicNode, AuxiliaryNode, ChainNode]

#: One auxiliary-layer edge: ``(source, target, weight, label)``.
AuxiliaryEdge = Tuple[GraphKey, GraphKey, int, str]


def undelivered_pairs(
    past: Iterable[BasicNode],
    delivered: Mapping[Tuple[BasicNode, Process], BasicNode],
    timed_network: TimedNetwork,
) -> List[Tuple[BasicNode, Process]]:
    """``(sender_node, destination)`` sends with no delivery inside the past.

    Under flooding, every non-initial past node sent to all of its
    out-neighbours; the pairs whose delivery is not visible are the ones the
    ``E''`` edges constrain.  Incremental callers maintain this set with
    O(delta) work instead (new nodes add pairs, new visible deliveries
    retract them) -- this function is the from-scratch reference shape.
    """
    pairs: List[Tuple[BasicNode, Process]] = []
    for node in past:
        if node.is_initial:
            continue  # initial nodes never send (processes are event driven)
        for destination in timed_network.out_neighbors(node.process):
            if (node, destination) not in delivered:
                pairs.append((node, destination))
    return pairs


def flooding_edges(timed_network: TimedNetwork) -> List[AuxiliaryEdge]:
    """The static ``E'''`` edges: one per channel, independent of any view."""
    edges: List[AuxiliaryEdge] = []
    for sender, receiver in timed_network.channels:
        upper = timed_network.U(sender, receiver)
        edges.append(
            (AuxiliaryNode(receiver), AuxiliaryNode(sender), -upper, FLOODING_EDGE)
        )
    return edges


def auxiliary_layer_edges(
    boundary: Mapping[Process, BasicNode],
    undelivered: Iterable[Tuple[BasicNode, Process]],
    timed_network: TimedNetwork,
) -> List[AuxiliaryEdge]:
    """The ``E'``/``E''``/``E'''`` edge set for one view of a run.

    This is the *whole* retractable part of the extended bounds graph: as the
    view grows, boundaries advance (``E'``), messages are seen to arrive
    (``E''`` edges must be dropped), and only ``E'''`` stays fixed.  The
    one-shot :class:`ExtendedBoundsGraph` builds it here; the incremental
    :class:`~repro.core.knowledge_session.KnowledgeSession` keeps the same
    set as a volatile engine overlay and edits it by delta on every step.
    """
    edges: List[AuxiliaryEdge] = []
    # E': the auxiliary node of i strictly follows i's boundary node.
    for process in sorted(boundary):
        edges.append((boundary[process], AuxiliaryNode(process), 1, AUXILIARY_EDGE))
    # E'': messages sent from the past that were not delivered inside it.
    upper_of = timed_network.U
    for sender_node, destination in undelivered:
        upper = upper_of(sender_node.process, destination)
        edges.append(
            (AuxiliaryNode(destination), sender_node, -upper, UNDELIVERED_EDGE)
        )
    # E''': flooding propagates the "beyond the view" frontier.
    edges.extend(flooding_edges(timed_network))
    return edges


def resolve_chain_prefix(
    theta: GeneralNode,
    delivered: Mapping[Tuple[BasicNode, Process], BasicNode],
) -> Tuple[BasicNode, int]:
    """Follow ``theta``'s chain through the visible deliveries.

    Returns ``(last_resolved_node, hops_resolved)``: the basic node reached
    after the longest chain prefix whose messages are all seen to arrive.
    """
    resolved = theta.base
    hops_resolved = 0
    for next_process in theta.path[1:]:
        receiver = delivered.get((resolved, next_process))
        if receiver is None:
            break
        resolved = receiver
        hops_resolved += 1
    return resolved, hops_resolved


class ExtendedBoundsGraph:
    """``GE(r, sigma)`` plus chain nodes for general nodes of interest.

    The graph is built purely from ``sigma``'s local state and the static
    timed network; it assumes the system runs a flooding full-information
    protocol (every non-initial node sends to all of its out-neighbours),
    which is the setting of Theorem 4.
    """

    def __init__(
        self,
        sigma: BasicNode,
        timed_network: TimedNetwork,
        include_auxiliary: bool = True,
    ):
        self.sigma = sigma
        self.timed_network = timed_network
        self.include_auxiliary = include_auxiliary
        # These all come from the intern pool's identity-keyed causal caches
        # (bitset pasts), so building several graphs / checkers over the same
        # sigma re-walks nothing.
        self.past = past_nodes(sigma)
        self.boundary = boundary_nodes(sigma)
        self.delivered = local_delivery_map(sigma)
        self.graph: WeightedGraph[GraphKey] = local_bounds_graph(sigma, timed_network)
        self._chain_nodes: set = set()
        if include_auxiliary:
            self._build_auxiliary_layer()

    # -- construction ------------------------------------------------------------

    def _build_auxiliary_layer(self) -> None:
        net = self.timed_network

        # Auxiliary nodes, one per process.
        for process in net.processes:
            self.graph.add_node(AuxiliaryNode(process))

        for source, target, weight, label in auxiliary_layer_edges(
            self.boundary, undelivered_pairs(self.past, self.delivered, net), net
        ):
            self.graph.add_edge(source, target, weight, label)

    # -- node access ----------------------------------------------------------------

    def auxiliary(self, process: Process) -> AuxiliaryNode:
        if process not in self.timed_network.processes:
            raise ExtendedGraphError(f"unknown process {process!r}")
        return AuxiliaryNode(process)

    def basic_keys(self) -> Tuple[BasicNode, ...]:
        return tuple(node for node in self.graph.nodes if isinstance(node, BasicNode))

    def auxiliary_keys(self) -> Tuple[AuxiliaryNode, ...]:
        return tuple(node for node in self.graph.nodes if isinstance(node, AuxiliaryNode))

    def chain_keys(self) -> Tuple[ChainNode, ...]:
        return tuple(node for node in self.graph.nodes if isinstance(node, ChainNode))

    # -- general nodes -----------------------------------------------------------------

    def add_general_node(self, theta: GeneralNode) -> GraphKey:
        """Ensure ``theta`` is represented in the graph and return its vertex.

        ``theta`` must be sigma-recognized.  The resolved prefix of its chain
        maps to basic nodes already present; every unresolved hop becomes a
        :class:`ChainNode` connected by the channel's lower/upper bound edges
        and anchored after the auxiliary node of its process (the delivery
        necessarily happens beyond the view of ``sigma``).
        """
        # Equivalent to ``is_recognized(theta, self.sigma)`` but answered from
        # the past set cached at construction instead of re-walking the
        # causal past on every query.
        if theta.base not in self.past:
            raise ExtendedGraphError(
                f"{theta.describe()} is not recognized at {self.sigma.describe()}"
            )

        current: GraphKey = theta.base
        if current not in self.graph:
            raise ExtendedGraphError(
                f"base node {theta.base.describe()} is missing from the past of "
                f"{self.sigma.describe()}"
            )

        resolved, hops_resolved = resolve_chain_prefix(theta, self.delivered)
        current = resolved

        if hops_resolved == theta.hops:
            return current

        if resolved.is_initial:
            raise ExtendedGraphError(
                f"the chain of {theta.describe()} leaves the initial node "
                f"{resolved.describe()}, which never sends messages; the general node "
                "does not appear in any run"
            )

        previous_key: GraphKey = resolved
        previous_process = resolved.process
        for hop_index in range(hops_resolved + 1, theta.hops + 1):
            prefix = theta.prefix(hop_index)
            hop_process = prefix.process
            key = ChainNode(prefix)
            if key not in self._chain_nodes:
                self._chain_nodes.add(key)
                lower = self.timed_network.L(previous_process, hop_process)
                upper = self.timed_network.U(previous_process, hop_process)
                self.graph.add_edge(previous_key, key, lower, CHAIN_LOWER_EDGE)
                self.graph.add_edge(key, previous_key, -upper, CHAIN_UPPER_EDGE)
                if self.include_auxiliary:
                    self.graph.add_edge(
                        AuxiliaryNode(hop_process), key, 0, CHAIN_ANCHOR_EDGE
                    )
            previous_key = key
            previous_process = hop_process
        return previous_key

    def add_general_nodes(self, thetas: Sequence[GeneralNode]) -> List[GraphKey]:
        """Materialise many general nodes up front and return their vertices.

        Batching the mutations before any longest-path query lets the engine
        settle on one graph snapshot, so memoized rows are computed once and
        shared across every query instead of being extended after each
        interleaved insertion.
        """
        return [self.add_general_node(theta) for theta in thetas]

    # -- queries ---------------------------------------------------------------------------

    @property
    def engine(self) -> LongestPathEngine:
        """The batched longest-path engine over the current graph snapshot."""
        return self.graph.engine

    def longest_weight(self, source: GraphKey, target: GraphKey) -> Optional[int]:
        """The longest-path weight between two vertices, or ``None`` if unreachable."""
        return self.graph.longest_path_weight(source, target)

    def longest_weight_between(
        self, theta1: GeneralNode, theta2: GeneralNode
    ) -> Optional[int]:
        """Longest constraint-path weight between two sigma-recognized general nodes."""
        key1 = self.add_general_node(theta1)
        key2 = self.add_general_node(theta2)
        return self.longest_weight(key1, key2)

    def batch_weights(
        self, pairs: Sequence[Tuple[GeneralNode, GeneralNode]]
    ) -> List[Optional[int]]:
        """Longest constraint-path weights for many general-node pairs at once.

        All general nodes are added to the graph first (the only mutating
        step), then every weight is answered off the engine's memoized rows.
        Equivalent to calling :meth:`longest_weight_between` per pair, but the
        relaxation cost is paid per distinct *source*, not per query.
        """
        flat = self.add_general_nodes([theta for pair in pairs for theta in pair])
        engine = self.graph.engine
        return [
            engine.weight(flat[index], flat[index + 1])
            for index in range(0, len(flat), 2)
        ]

    def all_pairs(self) -> int:
        """Materialise every longest-path row of the current graph at once.

        Returns the number of rows actually computed; afterwards any number
        of :meth:`longest_weight` queries on the same sigma are O(1) lookups
        until the graph grows again.
        """
        return self.graph.engine.all_pairs()

    def constraint_path(
        self, theta1: GeneralNode, theta2: GeneralNode
    ):
        """The longest constraint path between two general nodes as ``(weight, edges)``."""
        key1 = self.add_general_node(theta1)
        key2 = self.add_general_node(theta2)
        return self.graph.longest_path(key1, key2)

    def edge_summary(self) -> Dict[str, int]:
        """How many edges of each kind the graph contains (useful for Figure 8)."""
        counts: Dict[str, int] = {}
        for edge in self.graph.edges:
            counts[edge.label] = counts.get(edge.label, 0) + 1
        return counts

    def describe(self) -> str:
        counts = self.edge_summary()
        summary = ", ".join(f"{label}={count}" for label, count in sorted(counts.items()))
        return (
            f"ExtendedBoundsGraph(sigma={self.sigma.describe()}, "
            f"nodes={len(self.graph)}, edges={self.graph.edge_count()}, {summary})"
        )
