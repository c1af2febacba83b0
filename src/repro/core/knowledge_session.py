"""Incremental knowledge sessions: carry ``GE(r, sigma)`` along a timeline.

A :class:`~repro.core.knowledge.KnowledgeChecker` answers any number of
queries against *one* local state cheaply, but a protocol does not sit at one
local state: Protocol 2 re-evaluates its knowledge guard at every step of its
process's timeline, and ``past(r, sigma_{t+1})`` is a strict superset of
``past(r, sigma_t)``.  Rebuilding the extended bounds graph from scratch at
every step therefore re-pays O(past) graph construction plus a fresh engine
for work that is almost entirely shared with the previous step.

:class:`KnowledgeSession` keeps that shared work alive across steps:

* **Causal-past deltas.**  Pasts are pool-memoized bitsets
  (:func:`~repro.core.causality.past_mask`), so the step delta is one
  ``new & ~old`` and only the delta's nodes are ever materialised.
* **A monotone core graph.**  Basic past nodes with their ``succ``/``lower``/
  ``upper`` edges, plus chain nodes with their chain-bound edges, only ever
  *grow* -- they are appended to one persistent
  :class:`~repro.core.graph.WeightedGraph` whose
  :class:`~repro.core.longest_paths.LongestPathEngine` keeps its index maps
  and extends its memoized rows incrementally.
* **A volatile auxiliary overlay, edited by delta.**  The ``psi`` layer is
  the only retractable part of the extended graph: an ``E''`` edge must be
  dropped the moment its message is seen to arrive, a chain anchor the
  moment its hop resolves, and ``E'`` re-anchors to the advancing boundary.
  The session tracks exactly those changes with O(delta) work per step and
  sends them to the engine's overlay as one
  :meth:`LongestPathEngine.update_overlay` call per install, so the static
  ``E'''`` set is mapped once per session and the undelivered messages of
  earlier steps are never re-mapped.  Queries relax a memoized core row
  against the overlay instead of recomputing anything; that relaxation
  still visits every overlay edge once per query.
* **Chain re-anchoring.**  Chain nodes persist in the core (their bound
  edges stay valid once their delivery is seen), but when a chain prefix
  resolves to an actual basic node the first unresolved hop is *bridged* to
  the resolution point, so session answers coincide with a fresh checker's
  at every step -- the property-test suite verifies exactly that, psi
  re-anchoring cases included.

Sessions are self-healing: advancing to a node whose past does not contain
the previous observer (a new run, a different process) or under a different
intern pool resets the session to a cold build, so long-lived protocol
objects can hold one session without lifecycle bookkeeping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from ..obs import metrics as _metrics
from ..simulation import interning as _interning
from ..simulation.messages import ExternalReceipt, GO_TRIGGER
from ..simulation.network import Process, TimedNetwork
from .bounds_graph import append_past_nodes, ordered_past_delta
from .causality import in_past, mask_members, past_mask
from .extended_graph import (
    AuxiliaryNode,
    CHAIN_LOWER_EDGE,
    CHAIN_UPPER_EDGE,
    ChainNode,
    ExtendedGraphError,
    GraphKey,
    resolve_chain_prefix,
)
from .graph import WeightedGraph
from .nodes import BasicNode, GeneralNode, general
from .precedence import TimedPrecedence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .longest_paths import EngineStats

__all__ = ["KnowledgeSession"]

# Process-wide session counters (every session feeds the same set).
_C_ADVANCES = _metrics.counter("session.advances")
_C_CHUNK_ADVANCES = _metrics.counter("session.chunk_advances")
_C_RESETS = _metrics.counter("session.resets")
_C_NODES_APPENDED = _metrics.counter("session.nodes_appended")
_C_PSI_REINSTALLS = _metrics.counter("session.psi_reinstalls")


class KnowledgeSession:
    """Knowledge queries for an observer advancing along a timeline.

    Query-for-query equivalent to building a fresh
    :class:`~repro.core.knowledge.KnowledgeChecker` at every observed node,
    but each :meth:`advance` does O(delta) graph work instead of O(past).

    Usage::

        session = KnowledgeSession(timed_network)
        for sigma in observer_timeline:
            session.advance(sigma)
            if session.knows(theta_a, sigma, margin):
                ...
    """

    def __init__(self, timed_network: TimedNetwork, include_auxiliary: bool = True):
        self.timed_network = timed_network
        self.include_auxiliary = include_auxiliary
        self.advances = 0
        self.chunk_advances = 0
        self.resets = 0
        self.nodes_appended = 0
        # Per channel ``(s, r)``, weighing ``-U_sr``: the E''' edge
        # ``psi_r -> psi_s`` (static for a fixed network, so built once), and
        # the E'' edge ``psi_r -> sigma_s`` that a send from ``sigma_s`` to
        # ``r`` adds until it is seen to arrive (``_send_edges[s]`` holds
        # ``(r, psi_r, weight)``).
        psi = {process: AuxiliaryNode(process) for process in timed_network.processes}
        self._flooding: List[Tuple[GraphKey, GraphKey, int]] = []
        self._send_edges: Dict[Process, List[Tuple[Process, AuxiliaryNode, int]]] = {
            process: [] for process in timed_network.processes
        }
        for sender, receiver in timed_network.channels:
            weight = -timed_network.U(sender, receiver)
            self._flooding.append((psi[receiver], psi[sender], weight))
            self._send_edges[sender].append((receiver, psi[receiver], weight))
        self._psi = psi
        self._cold_start()

    # -- lifecycle ---------------------------------------------------------------

    def _cold_start(self) -> None:
        self._pool = _interning._POOL
        self._sigma: Optional[BasicNode] = None
        self._mask = 0
        self._graph: WeightedGraph[GraphKey] = WeightedGraph()
        self._boundary: Dict[Process, BasicNode] = {}
        self._delivered: Dict[Tuple[BasicNode, Process], BasicNode] = {}
        # Sends not seen to arrive -> ``[E'' edge, state]``, where state is
        # False while the edge awaits its install, True once installed, and
        # None when the send arrived before any install (it never will be).
        self._undelivered: Dict[Tuple[BasicNode, Process], List] = {}
        # Chain node -> the vertex its bound edges are currently linked from
        # (a basic node once the preceding hop resolved, an earlier chain
        # node otherwise).
        self._chain_links: Dict[ChainNode, GraphKey] = {}
        self._go_nodes: Dict[Tuple[Process, str], Tuple[Optional[BasicNode], int]] = {}
        # The psi layer reaches the engine's overlay as deltas.  The overlay
        # holds E' from ``_psi_boundary``, the installed E'' edges, E''' and
        # one anchor per chain node in ``_anchored``.
        self._psi_boundary: Dict[Process, BasicNode] = {}
        self._anchored: Set[ChainNode] = set()
        # Changes the next _refresh_overlay sends.  The static E''' set goes
        # with the first install only.
        self._edges_pending: List[Tuple[GraphKey, GraphKey, int]] = (
            list(self._flooding) if self.include_auxiliary else []
        )
        self._moved_pending: Set[Process] = set()
        self._sends_pending: List[List] = []  # ``_undelivered`` entries
        self._arrivals_pending: List[Tuple[GraphKey, GraphKey, int]] = []
        self._chains_pending: List[ChainNode] = []
        self._delivered_grew = False
        self._overlay_dirty = True

    @property
    def sigma(self) -> Optional[BasicNode]:
        """The current observer node (``None`` before the first advance)."""
        return self._sigma

    @property
    def engine_stats(self) -> "EngineStats":
        return self._graph.engine.stats

    def _needs_reset(self, sigma: BasicNode) -> bool:
        if _interning._POOL is not self._pool:
            return True  # nodes/bitsets of the old pool are no longer canonical
        if self._sigma is None:
            return False
        if sigma is self._sigma:
            return False
        return not in_past(self._sigma, sigma)

    # -- advancing ---------------------------------------------------------------

    def advance(self, sigma: BasicNode) -> "KnowledgeSession":
        """Move the observer to ``sigma``, absorbing the causal-past delta.

        Monotone moves (``previous sigma in past(sigma)``, the timeline case)
        append only the delta; anything else -- a different run, a pool swap,
        an unrelated observer -- transparently resets to a cold build.
        Returns ``self`` so ``session.advance(sigma).knows(...)`` reads well.
        """
        if self._needs_reset(sigma):
            self.resets += 1
            _C_RESETS.value += 1
            self._cold_start()
        if sigma is self._sigma:
            return self
        new_mask = past_mask(sigma)
        delta = new_mask & ~self._mask
        ordered = ordered_past_delta(mask_members(delta)) if delta else []

        # Pass 1: the monotone bookkeeping every new node contributes --
        # boundary advance and freshly sent (so far undelivered) messages.
        undelivered = self._undelivered
        for node in ordered:
            current = self._boundary.get(node.process)
            if current is None or current.step_count < node.step_count:
                self._boundary[node.process] = node
                self._moved_pending.add(node.process)
            if not node.is_initial:
                for destination, psi, weight in self._send_edges[node.process]:
                    entry = [(psi, node, weight), False]
                    undelivered[(node, destination)] = entry
                    self._sends_pending.append(entry)

        # Pass 2: grow the core graph; its returned deliveries retract the
        # matching E'' pairs (the "seen to arrive" re-anchoring).  A pair
        # sent and delivered between two installs never reaches the engine.
        for sender_node, destination, receiver_node in append_past_nodes(
            self._graph, ordered, self.timed_network
        ):
            key = (sender_node, destination)
            self._delivered[key] = receiver_node
            self._delivered_grew = True
            entry = undelivered.pop(key, None)
            if entry is not None:
                if entry[1]:
                    self._arrivals_pending.append(entry[0])
                else:
                    entry[1] = None

        self._sigma = sigma
        self._mask = new_mask
        self._overlay_dirty = True
        self.advances += 1
        self.nodes_appended += len(ordered)
        _C_ADVANCES.value += 1
        _C_NODES_APPENDED.value += len(ordered)
        return self

    def advance_many(self, sigmas: Sequence[BasicNode]) -> "KnowledgeSession":
        """Advance through a whole chunk of timeline nodes in one absorption.

        Equivalent in final state to ``for sigma in sigmas: advance(sigma)``,
        but the intermediate nodes pay no per-step bookkeeping at all: the
        chunk contributes *one* causal-past delta (``past(last) & ~previous``
        subsumes every step in between on a timeline), one ordered
        materialisation, one core-graph append and -- because the auxiliary
        overlay installs lazily, on the first query -- at most one engine
        overlay install.  This is the "one engine pass per chunk" contract
        the coordination replays and the sweep analysis passes batch against.

        Queries after the call are answered at the chunk's *last* node; a
        consumer that must observe an intermediate node ends a chunk at it.
        An empty chunk is a no-op.
        """
        last: Optional[BasicNode] = None
        for sigma in sigmas:
            last = sigma
        if last is None:
            return self
        self.chunk_advances += 1
        _C_CHUNK_ADVANCES.value += 1
        return self.advance(last)

    # -- the auxiliary overlay -----------------------------------------------------

    def _chain_is_unresolved(self, chain_node: ChainNode) -> bool:
        """Whether the chain hop this vertex stands for is still beyond the view."""
        prefix = chain_node.prefix
        _, hops_resolved = resolve_chain_prefix(prefix, self._delivered)
        return hops_resolved < prefix.hops

    def _refresh_overlay(self) -> None:
        """Send the psi-layer changes since the last install to the engine.

        Only what changed is mapped: E' for processes whose boundary moved,
        E'' for pairs sent or seen to arrive, anchors for new chain nodes and
        for anchored chain hops that resolved.  The engine then answers as if
        the whole layer had been rebuilt (the property suite checks that).
        """
        if not self._overlay_dirty:
            return
        self._overlay_dirty = False
        added, self._edges_pending = self._edges_pending, []
        moved, self._moved_pending = self._moved_pending, set()
        sent, self._sends_pending = self._sends_pending, []
        removed, self._arrivals_pending = self._arrivals_pending, []
        new_chains, self._chains_pending = self._chains_pending, []
        delivered_grew, self._delivered_grew = self._delivered_grew, False
        if not self.include_auxiliary:
            return
        psi = self._psi
        # E': the auxiliary node of a process follows its boundary node.
        for process in moved:
            boundary = self._boundary[process]
            previous = self._psi_boundary.get(process)
            if previous is not None:
                removed.append((previous, psi[process], 1))
            added.append((boundary, psi[process], 1))
            self._psi_boundary[process] = boundary
        # E'': messages sent from the past and not seen to arrive (the ones
        # seen to arrive since the last install are already in ``removed``).
        for entry in sent:
            if entry[1] is False:
                entry[1] = True
                added.append(entry[0])
        # Chain anchors: an unresolved chain hop happens at or after its
        # process's psi.  Resolution needs a new delivery, and deliveries
        # only accumulate, so a resolved hop is retracted once, for good.
        if delivered_grew:
            resolved = [chain for chain in self._anchored if not self._chain_is_unresolved(chain)]
            for chain_node in resolved:
                self._anchored.remove(chain_node)
                removed.append((psi[chain_node.process], chain_node, 0))
        for chain_node in new_chains:
            if self._chain_is_unresolved(chain_node):
                self._anchored.add(chain_node)
                added.append((psi[chain_node.process], chain_node, 0))
        self._graph.engine.update_overlay(added, removed)
        _C_PSI_REINSTALLS.value += 1

    # -- general nodes ----------------------------------------------------------------

    def _require_advanced(self) -> BasicNode:
        if self._sigma is None:
            raise ExtendedGraphError(
                "the session has not observed any node yet; call advance(sigma) first"
            )
        return self._sigma

    def _materialize(self, theta: GeneralNode) -> GraphKey:
        """Ensure ``theta`` is represented in the core graph; return its vertex.

        The incremental counterpart of
        :meth:`ExtendedBoundsGraph.add_general_node`: chain nodes are shared
        by prefix across steps, and when the resolution frontier has advanced
        past a chain node's previous link the first unresolved hop is
        *bridged* to the actual resolution point, so the vertex keeps exactly
        the in/out bound edges a fresh graph would give it.  Stale chain
        edges left behind by earlier steps remain valid constraints (their
        deliveries happened within the same bounds), so they never change an
        answer -- only retractable psi edges live in the overlay.
        """
        sigma = self._require_advanced()
        if not in_past(theta.base, sigma):
            raise ExtendedGraphError(
                f"{theta.describe()} is not recognized at {sigma.describe()}"
            )
        resolved, hops_resolved = resolve_chain_prefix(theta, self._delivered)
        if hops_resolved == theta.hops:
            return resolved

        if resolved.is_initial:
            raise ExtendedGraphError(
                f"the chain of {theta.describe()} leaves the initial node "
                f"{resolved.describe()}, which never sends messages; the general node "
                "does not appear in any run"
            )

        net = self.timed_network
        previous_key: GraphKey = resolved
        previous_process = resolved.process
        for hop_index in range(hops_resolved + 1, theta.hops + 1):
            prefix = theta.prefix(hop_index)
            hop_process = prefix.process
            key = ChainNode(prefix)
            linked = self._chain_links.get(key)
            if linked is None or (
                hop_index == hops_resolved + 1 and linked is not previous_key
            ):
                lower = net.L(previous_process, hop_process)
                upper = net.U(previous_process, hop_process)
                self._graph.add_edge(previous_key, key, lower, CHAIN_LOWER_EDGE)
                self._graph.add_edge(key, previous_key, -upper, CHAIN_UPPER_EDGE)
                if linked is None:
                    self._chains_pending.append(key)
                    self._overlay_dirty = True
                self._chain_links[key] = previous_key
            previous_key = key
            previous_process = hop_process
        return previous_key

    def _as_general(self, node: BasicNode | GeneralNode) -> GeneralNode:
        return node if isinstance(node, GeneralNode) else general(node)

    # -- queries (KnowledgeChecker-parity API) --------------------------------------

    def max_known_gap(
        self, earlier: BasicNode | GeneralNode, later: BasicNode | GeneralNode
    ) -> Optional[int]:
        """The largest ``x`` such that ``K_sigma(earlier --x--> later)`` holds."""
        return self.max_known_gaps([(earlier, later)])[0]

    def max_known_gaps(
        self,
        pairs: Sequence[Tuple[BasicNode | GeneralNode, BasicNode | GeneralNode]],
    ) -> List[Optional[int]]:
        """Batched :meth:`max_known_gap`, one overlay snapshot for the batch."""
        keys: List[GraphKey] = []
        for earlier, later in pairs:
            keys.append(self._materialize(self._as_general(earlier)))
            keys.append(self._materialize(self._as_general(later)))
        self._refresh_overlay()
        engine = self._graph.engine
        return [
            engine.overlay_weight(keys[index], keys[index + 1])
            for index in range(0, len(keys), 2)
        ]

    def knows(
        self,
        earlier: BasicNode | GeneralNode,
        later: BasicNode | GeneralNode,
        margin: int,
    ) -> bool:
        """``K_sigma(earlier --margin--> later)`` at the current observer node."""
        gap = self.max_known_gap(earlier, later)
        return gap is not None and gap >= margin

    def knows_statement(self, statement: TimedPrecedence) -> bool:
        return self.knows(statement.earlier, statement.later, statement.margin)

    def knows_statements(self, statements: Sequence[TimedPrecedence]) -> List[bool]:
        gaps = self.max_known_gaps(
            [(statement.earlier, statement.later) for statement in statements]
        )
        return [
            gap is not None and gap >= statement.margin
            for statement, gap in zip(statements, gaps)
        ]

    def known_window(
        self, earlier: BasicNode | GeneralNode, later: BasicNode | GeneralNode
    ) -> Tuple[Optional[int], Optional[int]]:
        """The interval sigma knows contains ``time(later) - time(earlier)``."""
        lower, reverse = self.max_known_gaps([(earlier, later), (later, earlier)])
        upper = None if reverse is None else -reverse
        return lower, upper

    # -- memoized go-node lookup ------------------------------------------------------

    def find_go_node(
        self, go_sender: Process, go_trigger: str = GO_TRIGGER
    ) -> Optional[BasicNode]:
        """The node at which ``go_sender`` received the trigger, if visible.

        Memoized per ``(go_sender, go_trigger)``: once found, subsequent
        calls are a single ``in_past`` bit probe; while unfound, each call
        scans only past nodes the previous call has not seen (the bitset
        delta), never the whole past again.  Ties (several trigger receipts)
        resolve to the earliest node on the sender's timeline.
        """
        sigma = self._require_advanced()
        key = (go_sender, go_trigger)
        found, scanned_mask = self._go_nodes.get(key, (None, 0))
        if found is not None:
            if in_past(found, sigma):
                return found
            scanned_mask = 0  # stale cache (cannot happen on monotone advances)
        best: Optional[BasicNode] = None
        for node in mask_members(self._mask & ~scanned_mask):
            if node.process != go_sender or node.is_initial:
                continue
            if any(
                isinstance(obs, ExternalReceipt) and obs.tag == go_trigger
                for obs in node.history.last_step
            ):
                if best is None or node.step_count < best.step_count:
                    best = node
        self._go_nodes[key] = (best, self._mask)
        return best

    # -- introspection -----------------------------------------------------------------

    def describe(self) -> str:
        sigma = "-" if self._sigma is None else self._sigma.describe()
        return (
            f"KnowledgeSession(sigma={sigma}, advances={self.advances}, "
            f"resets={self.resets}, nodes={self.nodes_appended}, "
            f"core_edges={self._graph.edge_count()}, "
            f"undelivered={len(self._undelivered)}, chains={len(self._chain_links)})"
        )
