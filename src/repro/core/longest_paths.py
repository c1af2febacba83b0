"""A batched longest-path engine for bounds-graph queries.

Theorem 4 turns every knowledge query into a longest-constraint-path lookup,
so a :class:`~repro.core.knowledge.KnowledgeChecker` that answers many
queries against one local state ``sigma`` keeps asking the same
:class:`~repro.core.graph.WeightedGraph` for longest paths.  The naive
Bellman-Ford relaxation in :meth:`WeightedGraph.longest_path_weights` is
re-run from scratch for every query, which makes the knowledge and
bounds-stats analysis passes the dominant cost of ``repro sweep``.

:class:`LongestPathEngine` removes that redundancy in three steps:

1. **Index-mapped arrays.**  The hashable node objects are interned into
   dense integer indices once; edges become three parallel ``int`` arrays.
   All inner loops run over machine integers instead of dict lookups on
   frozen dataclasses.
2. **Topologically-ordered DP.**  Bounds graphs are not DAGs (every
   delivery contributes a forward ``lower`` edge *and* a backward ``upper``
   edge), but their strongly connected components condense into one.  The
   engine computes the SCC condensation (iterative Tarjan) and relaxes
   edges SCC-by-SCC in topological order: cross-component edges are relaxed
   exactly once, and only the edges inside a component are iterated to a
   fixpoint (at most ``|scc|`` sweeps, which doubles as the positive-cycle
   detector).
3. **Memoized rows, batch mode, incremental growth.**  Single-source rows
   are cached per source (:meth:`row`), :meth:`all_pairs` materialises every
   row once so that an arbitrary number of subsequent queries are O(1)
   lookups, and when the underlying graph *grows* (bounds graphs only ever
   gain nodes and edges -- e.g. chain nodes added per general-node query, or
   a run extended by one step) cached rows are *extended* by a worklist
   relaxation seeded from the new edges instead of being recomputed.
4. **A volatile overlay.**  :class:`~repro.core.knowledge_session.
   KnowledgeSession` keeps the *monotone* part of an extended bounds graph
   (basic past + chain core) in the engine's base graph but must replace the
   auxiliary ``psi`` layer on every step: ``E''`` edges are retracted when a
   message is seen to arrive and chain anchors when a chain hop resolves.
   :meth:`set_overlay` installs such a volatile edge set *next to* the base
   graph without mutating it, and :meth:`update_overlay` edits it by a
   delta, mapping only the edges that changed; :meth:`overlay_weight`
   answers longest-path queries over base+overlay by seeding a worklist
   relaxation with the memoized base row (longest paths only grow when
   edges are added, so the base fixpoint is a valid lower seed).  An edit
   therefore discards only the per-step overlay rows -- the base rows,
   index maps, SCCs and the mapping of every unchanged overlay edge persist
   across steps.

The engine is exact: it raises :class:`PositiveCycleError` for exactly the
sources from which the naive relaxation raises, and agrees with it on every
weight.  The naive relaxation is retained on :class:`WeightedGraph` behind
``reference=True`` and the property-test suite cross-validates the two on
random DAGs, random cyclic graphs, and real scenario graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Dict, Generic, Iterable, List, Optional, Sequence, Tuple

from ..obs import metrics as _metrics
from .graph import NEG_INF, NodeT, PositiveCycleError, WeightedGraph

__all__ = ["EngineStats", "LongestPathEngine"]

_POSITIVE_CYCLE_MESSAGE = (
    "positive-weight cycle reachable from the source; the "
    "constraint system is infeasible"
)

# Process-wide engine counters (every engine instance feeds the same set);
# bound once so one metric event is a single attribute add on the hot path.
_C_QUERIES = _metrics.counter("engine.queries")
_C_ROWS_COMPUTED = _metrics.counter("engine.rows_computed")
_C_ROWS_EXTENDED = _metrics.counter("engine.rows_extended")
_C_ROW_HITS = _metrics.counter("engine.row_cache_hits")
_C_SYNCS = _metrics.counter("engine.syncs")
_C_SCC_RECOMPUTES = _metrics.counter("engine.scc_recomputes")
_C_OVERLAY_INSTALLS = _metrics.counter("engine.overlay_installs")
_C_OVERLAY_ROWS = _metrics.counter("engine.overlay_rows_computed")
_C_OVERLAY_HITS = _metrics.counter("engine.overlay_row_cache_hits")


@dataclass
class EngineStats:
    """Counters describing how much work the engine actually performed."""

    rows_computed: int = 0
    rows_extended: int = 0
    row_cache_hits: int = 0
    syncs: int = 0
    queries: int = 0
    overlay_rows_computed: int = 0
    overlay_row_cache_hits: int = 0
    overlay_installs: int = 0
    #: Distinct overlay edges whose endpoints were mapped to engine indices:
    #: one per edge a :meth:`LongestPathEngine.set_overlay` or
    #: :meth:`LongestPathEngine.update_overlay` adds, never one per query.
    overlay_edges_mapped: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class LongestPathEngine(Generic[NodeT]):
    """Batched longest-path queries over one (growing) :class:`WeightedGraph`.

    The engine observes the graph through its monotonically increasing
    ``version`` counter.  Synchronisation is lazy: the first query after the
    graph grew absorbs the new nodes/edges, recomputes the SCC condensation,
    and extends every cached row incrementally.
    """

    def __init__(self, graph: WeightedGraph[NodeT]):
        self._graph = graph
        self._synced_version = -1
        self._synced_edge_count = 0
        # Index-mapped representation.
        self._nodes: List[NodeT] = []
        self._index: Dict[NodeT, int] = {}
        self._edge_src: List[int] = []
        self._edge_dst: List[int] = []
        self._edge_weight: List[int] = []
        self._out: List[List[int]] = []
        # SCC condensation, recomputed lazily on first row computation after
        # growth (row *extensions* and overlay relaxations never need it).
        self._comp: List[int] = []
        self._scc_members: List[List[int]] = []
        self._scc_intra: List[List[int]] = []
        self._scc_cross: List[List[int]] = []
        self._scc_version = -1
        # Memoized state.
        self._rows: Dict[int, List[float]] = {}
        self._positive_cycle: Optional[bool] = None
        self.stats = EngineStats()
        self._clear_overlay()

    # -- synchronisation with the underlying graph ------------------------------

    def _sync(self) -> None:
        graph = self._graph
        if graph.version == self._synced_version:
            return
        self.stats.syncs += 1
        _C_SYNCS.value += 1
        overlay_index = self._overlay_index
        remap_overlay = False
        for node in graph.nodes_from(len(self._nodes)):
            self._index[node] = len(self._nodes)
            self._nodes.append(node)
            self._out.append([])
            if overlay_index and node in overlay_index:
                remap_overlay = True  # an overlay-only vertex joined the base
        new_edge_start = self._synced_edge_count
        for edge in graph.edges_from(new_edge_start):
            edge_id = len(self._edge_src)
            source = self._index[edge.source]
            self._edge_src.append(source)
            self._edge_dst.append(self._index[edge.target])
            self._edge_weight.append(edge.weight)
            self._out[source].append(edge_id)
        self._synced_edge_count = len(self._edge_src)
        self._synced_version = graph.version
        self._positive_cycle = None
        self._overlay_rows.clear()
        if remap_overlay:
            self._remap_overlay()
        if self._rows:
            for source_index, dist in list(self._rows.items()):
                try:
                    self._extend_row(dist, new_edge_start)
                except PositiveCycleError:
                    # The growth made a positive cycle reachable from this
                    # row's source.  Queries from *other* sources must not be
                    # poisoned, so drop the row; re-querying this source will
                    # recompute it and raise, matching the naive reference.
                    del self._rows[source_index]
                else:
                    self.stats.rows_extended += 1
                    _C_ROWS_EXTENDED.value += 1

    def _ensure_sccs(self) -> None:
        """Recompute the condensation only when a fresh DP sweep needs it."""
        if self._scc_version != self._synced_version:
            self._recompute_sccs()
            self._scc_version = self._synced_version

    def _recompute_sccs(self) -> None:
        """Iterative Tarjan; component ids come out in topological order."""
        _C_SCC_RECOMPUTES.value += 1
        n = len(self._nodes)
        order = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: List[int] = []
        counter = 0
        components_reverse_topo: List[List[int]] = []
        for root in range(n):
            if order[root] != -1:
                continue
            work: List[List[int]] = [[root, 0]]
            while work:
                frame = work[-1]
                node, edge_pos = frame
                if edge_pos == 0:
                    order[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack[node] = True
                descended = False
                out = self._out[node]
                while frame[1] < len(out):
                    target = self._edge_dst[out[frame[1]]]
                    frame[1] += 1
                    if order[target] == -1:
                        work.append([target, 0])
                        descended = True
                        break
                    if on_stack[target] and order[target] < low[node]:
                        low[node] = order[target]
                if descended:
                    continue
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == order[node]:
                    members: List[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        members.append(member)
                        if member == node:
                            break
                    components_reverse_topo.append(members)
        count = len(components_reverse_topo)
        comp = [0] * n
        members_topo: List[List[int]] = [[] for _ in range(count)]
        for reverse_position, members in enumerate(components_reverse_topo):
            component = count - 1 - reverse_position
            members_topo[component] = members
            for member in members:
                comp[member] = component
        intra: List[List[int]] = [[] for _ in range(count)]
        cross: List[List[int]] = [[] for _ in range(count)]
        for edge_id in range(len(self._edge_src)):
            source_comp = comp[self._edge_src[edge_id]]
            if source_comp == comp[self._edge_dst[edge_id]]:
                intra[source_comp].append(edge_id)
            else:
                cross[source_comp].append(edge_id)
        self._comp = comp
        self._scc_members = members_topo
        self._scc_intra = intra
        self._scc_cross = cross

    # -- row computation ----------------------------------------------------------

    def _compute_row(self, source: int):
        """One topologically-ordered DP sweep from ``source``."""
        self._ensure_sccs()
        dist: List[float] = [NEG_INF] * len(self._nodes)
        dist[source] = 0
        edge_src = self._edge_src
        edge_dst = self._edge_dst
        edge_weight = self._edge_weight
        for component in range(self._comp[source], len(self._scc_members)):
            members = self._scc_members[component]
            if all(dist[member] == NEG_INF for member in members):
                continue
            intra = self._scc_intra[component]
            if intra:
                for _ in range(len(members) + 1):
                    changed = False
                    for edge_id in intra:
                        base = dist[edge_src[edge_id]]
                        if base == NEG_INF:
                            continue
                        candidate = base + edge_weight[edge_id]
                        if candidate > dist[edge_dst[edge_id]]:
                            dist[edge_dst[edge_id]] = candidate
                            changed = True
                    if not changed:
                        break
                else:
                    raise PositiveCycleError(_POSITIVE_CYCLE_MESSAGE)
            for edge_id in self._scc_cross[component]:
                base = dist[edge_src[edge_id]]
                if base == NEG_INF:
                    continue
                candidate = base + edge_weight[edge_id]
                if candidate > dist[edge_dst[edge_id]]:
                    dist[edge_dst[edge_id]] = candidate
        return dist

    def _materialize_rows(self, indices: Iterable[int]) -> int:
        """Compute and cache every uncached row in ``indices``.

        Rows are computed per source in caller order, so a positive-cycle
        source raises exactly where a sequential :meth:`row` loop would.
        """
        computed = 0
        for index in indices:
            if index not in self._rows:
                self._rows[index] = self._compute_row(index)
                self.stats.rows_computed += 1
                _C_ROWS_COMPUTED.value += 1
                computed += 1
        return computed

    def _extend_row(self, dist: List[float], new_edge_start: int) -> None:
        """Grow a cached row in place after the graph gained nodes/edges.

        Longest-path weights are monotone under edge insertion, so the old
        values are a valid lower seed: a worklist relaxation rooted at the
        new edges converges to the exact new fixpoint without touching the
        untouched bulk of the graph.
        """
        node_count = len(self._nodes)
        if len(dist) < node_count:
            dist.extend([NEG_INF] * (node_count - len(dist)))
        edge_src = self._edge_src
        edge_dst = self._edge_dst
        edge_weight = self._edge_weight
        pending: deque = deque()
        queued = [False] * node_count
        for edge_id in range(new_edge_start, len(edge_src)):
            base = dist[edge_src[edge_id]]
            if base == NEG_INF:
                continue
            candidate = base + edge_weight[edge_id]
            target = edge_dst[edge_id]
            if candidate > dist[target]:
                dist[target] = candidate
                if not queued[target]:
                    queued[target] = True
                    pending.append(target)
        pop_budget = node_count * node_count + len(edge_src)
        while pending:
            pop_budget -= 1
            if pop_budget < 0:
                raise PositiveCycleError(_POSITIVE_CYCLE_MESSAGE)
            node = pending.popleft()
            queued[node] = False
            base = dist[node]
            for edge_id in self._out[node]:
                candidate = base + edge_weight[edge_id]
                target = edge_dst[edge_id]
                if candidate > dist[target]:
                    dist[target] = candidate
                    if not queued[target]:
                        queued[target] = True
                        pending.append(target)

    def _row(self, source_index: int):
        row = self._rows.get(source_index)
        if row is not None:
            self.stats.row_cache_hits += 1
            _C_ROW_HITS.value += 1
            return row
        row = self._compute_row(source_index)
        self._rows[source_index] = row
        self.stats.rows_computed += 1
        _C_ROWS_COMPUTED.value += 1
        return row

    def _source_index(self, source: NodeT) -> int:
        try:
            return self._index[source]
        except KeyError:
            raise KeyError(f"source {source!r} is not a node of the graph") from None

    def _target_index(self, target: NodeT) -> int:
        try:
            return self._index[target]
        except KeyError:
            raise KeyError(f"target {target!r} is not a node of the graph") from None

    # -- public queries ---------------------------------------------------------

    def row(self, source: NodeT) -> Dict[NodeT, float]:
        """Longest-path weight from ``source`` to every node (``-inf`` if unreachable).

        Memoized per source; agrees with the naive
        :meth:`WeightedGraph.longest_path_weights` reference exactly,
        including raising :class:`PositiveCycleError` when a positive cycle
        is reachable from ``source``.
        """
        self._sync()
        self.stats.queries += 1
        _C_QUERIES.value += 1
        dist = self._row(self._source_index(source))
        return dict(zip(self._nodes, dist))

    def rows(self, sources: Sequence[NodeT], targets: Optional[Sequence[NodeT]] = None) -> List:
        """Memoized rows for a batch of sources, index-aligned with ``sources``.

        Equivalent to ``[self.row(s) for s in sources]`` -- same memoization,
        same stats accounting, and the same :class:`PositiveCycleError`
        behaviour (the first offending source in ``sources`` order raises).

        With ``targets``, each row is a list of the weights to those nodes
        instead, index-aligned with ``targets`` (``-inf`` when unreachable):
        no per-row dict over the whole graph when only a few cells are read.
        """
        self._sync()
        indices = [self._source_index(source) for source in sources]
        target_indices = None
        if targets is not None:
            target_indices = [self._target_index(target) for target in targets]
        self.stats.queries += len(indices)
        _C_QUERIES.value += len(indices)
        cached = set(self._rows)
        self._materialize_rows(indices)
        out: List = []
        for index in indices:
            if index in cached:
                self.stats.row_cache_hits += 1
                _C_ROW_HITS.value += 1
            else:
                # Later duplicates of a just-computed source are cache hits,
                # exactly as they would be in a sequential row() loop.
                cached.add(index)
            dist = self._rows[index]
            if target_indices is None:
                out.append(dict(zip(self._nodes, dist)))
            else:
                out.append([dist[target] for target in target_indices])
        return out

    def weight(self, source: NodeT, target: NodeT) -> Optional[int]:
        """Longest-path weight between two nodes, ``None`` when unreachable."""
        self._sync()
        self.stats.queries += 1
        _C_QUERIES.value += 1
        source_index = self._source_index(source)
        target_index = self._target_index(target)
        value = self._row(source_index)[target_index]
        if value == NEG_INF:
            return None
        return int(value)

    def all_pairs(self) -> int:
        """Materialise every source row once; subsequent queries are lookups.

        Returns the number of rows that had to be computed (rows already
        cached -- including rows incrementally extended after graph growth --
        are reused, so calling :meth:`all_pairs` repeatedly is idempotent).
        """
        self._sync()
        return self._materialize_rows(range(len(self._nodes)))

    def reachable_from(self, source: NodeT) -> frozenset:
        """Nodes reachable from ``source`` (including itself), off the cached row."""
        self._sync()
        self.stats.queries += 1
        _C_QUERIES.value += 1
        dist = self._row(self._source_index(source))
        return frozenset(
            node for node, value in zip(self._nodes, dist) if value != NEG_INF
        )

    # -- the volatile overlay ----------------------------------------------------
    #
    # The overlay is a multiset of edges next to the base graph.  Each distinct
    # edge is mapped to engine indices once, when it is added: a base endpoint
    # takes its base index, any other endpoint becomes an *overlay vertex*
    # with a negative id (slot ``k`` is id ``-1 - k``).  An overlay row is the
    # base row followed by one cell per slot, so ``dist[-1 - k]`` finds slot
    # ``k`` whatever the base size: base growth never remaps the overlay, and
    # an edit costs only the edges it adds or removes.

    def _clear_overlay(self) -> None:
        #: Distinct edge -> ``[multiplicity, source id, target id]``.
        self._overlay_edges: Dict[Tuple[NodeT, NodeT, int], List[int]] = {}
        #: Source id -> its distinct ``(target id, weight)`` pairs.
        self._overlay_out: Dict[int, Dict[Tuple[int, int], None]] = {}
        #: Current overlay vertices (endpoints of some overlay edge) -> id.
        self._overlay_index: Dict[NodeT, int] = {}
        self._overlay_refs: List[int] = []  # per slot: distinct incident edges
        self._overlay_free: List[int] = []  # released slots, reused first
        self._overlay_size = 0  # edges, counted with multiplicity
        self._overlay_rows: Dict[int, List[float]] = {}

    def _new_vertex(self, node: NodeT) -> int:
        """Take a slot (a released one first) for a fresh overlay-only vertex."""
        if self._overlay_free:
            slot = self._overlay_free.pop()
        else:
            slot = len(self._overlay_refs)
            self._overlay_refs.append(0)
        self._overlay_index[node] = -1 - slot
        return -1 - slot

    def _edit_overlay(
        self,
        added: Iterable[Tuple[NodeT, NodeT, int]],
        removed: Iterable[Tuple[NodeT, NodeT, int]],
    ) -> bool:
        """Apply additions, then removals; whether anything was applied.

        Edges are ``(source, target, weight)`` tuples with ``int`` weights.
        """
        index = self._index
        overlay_index = self._overlay_index
        refs = self._overlay_refs
        installed = self._overlay_edges
        out = self._overlay_out
        adds = removes = mapped = 0
        for edge in added:
            adds += 1
            entry = [1, 0, 0]
            existing = installed.setdefault(edge, entry)
            if existing is not entry:
                existing[0] += 1
                continue
            # Map each endpoint: a base index, else an overlay vertex id
            # (one reference per distinct incident edge keeps its slot).
            source, target, weight = edge
            source_id = index.get(source)
            if source_id is None:
                source_id = overlay_index.get(source)
                if source_id is None:
                    source_id = self._new_vertex(source)
                refs[-1 - source_id] += 1
            target_id = index.get(target)
            if target_id is None:
                target_id = overlay_index.get(target)
                if target_id is None:
                    target_id = self._new_vertex(target)
                refs[-1 - target_id] += 1
            entry[1] = source_id
            entry[2] = target_id
            bucket = out.get(source_id)
            if bucket is None:
                out[source_id] = bucket = {}
            bucket[(target_id, weight)] = None
            mapped += 1
        for edge in removed:
            removes += 1
            entry = installed.pop(edge, None)
            if entry is None:
                raise KeyError(f"overlay edge {edge!r} is not installed")
            if entry[0] > 1:
                entry[0] -= 1
                installed[edge] = entry
                continue
            _, source_id, target_id = entry
            bucket = out[source_id]
            del bucket[(target_id, edge[2])]
            if not bucket:
                del out[source_id]
            for node, vertex in ((edge[0], source_id), (edge[1], target_id)):
                if vertex < 0:
                    refs[-1 - vertex] -= 1
                    if not refs[-1 - vertex]:
                        del overlay_index[node]
                        self._overlay_free.append(-1 - vertex)
        self._overlay_size += adds - removes
        self.stats.overlay_edges_mapped += mapped
        return bool(adds or removes)

    def _remap_overlay(self) -> None:
        """Map every overlay edge afresh (an overlay vertex joined the base)."""
        edges = self.overlay_edges()
        self._clear_overlay()
        self._edit_overlay(edges, ())

    def _overlay_edited(self, changed: bool) -> None:
        if changed:
            self._overlay_rows.clear()
        self.stats.overlay_installs += 1
        _C_OVERLAY_INSTALLS.value += 1

    def set_overlay(self, edges: Iterable[Tuple[NodeT, NodeT, int]]) -> None:
        """Install (replacing any previous) a volatile edge layer.

        Overlay edges live *next to* the base graph: they participate in
        :meth:`overlay_weight` / :meth:`overlay_row` queries but never touch
        the base graph, its memoized rows, or its SCCs.  Endpoints may be
        base-graph nodes or fresh overlay-only vertices (e.g. the auxiliary
        ``psi`` nodes of an extended bounds graph).  Unlike the base graph the
        overlay may *shrink* between installs -- that is its purpose: the
        per-step retractable constraints of a
        :class:`~repro.core.knowledge_session.KnowledgeSession` go here.
        Costs one mapping per edge; :meth:`update_overlay` edits by delta.
        """
        self._sync()
        self._clear_overlay()
        self._edit_overlay([(source, target, int(weight)) for source, target, weight in edges], ())
        self._overlay_edited(True)

    def update_overlay(
        self,
        added: Iterable[Tuple[NodeT, NodeT, int]] = (),
        removed: Iterable[Tuple[NodeT, NodeT, int]] = (),
    ) -> None:
        """Edit the installed overlay by a delta instead of replacing it.

        The ``added`` edges join the overlay, then one copy of each
        ``removed`` edge leaves it (``KeyError`` if none is installed).  Edges
        are ``(source, target, weight)`` tuples with ``int`` weights.
        Queries afterwards answer exactly as after :meth:`set_overlay` of the
        edited edge multiset, but only the added and removed edges are
        touched; edges that stay installed are never re-mapped.
        """
        self._sync()
        self._overlay_edited(self._edit_overlay(added, removed))

    def _combined_index(self, node: NodeT, role: str) -> int:
        index = self._index.get(node)
        if index is None:
            index = self._overlay_index.get(node)
        if index is None:
            raise KeyError(f"{role} {node!r} is not a node of the graph or overlay")
        return index

    def _compute_overlay_row(self, source: int):
        """Base row (memoized) extended to a base+overlay fixpoint.

        Longest-path weights only grow when edges are added, so the settled
        base row is a valid lower seed for the combined graph; a worklist
        relaxation rooted at the overlay edges converges to the exact
        combined fixpoint, exactly like :meth:`_extend_row` does for base
        growth.
        """
        overlay_out = self._overlay_out
        slots = len(self._overlay_refs)
        total = len(self._nodes) + slots
        if source >= 0:
            dist = list(self._row(source)) + [NEG_INF] * slots
        else:
            dist = [NEG_INF] * total
            dist[source] = 0
        edge_dst = self._edge_dst
        edge_weight = self._edge_weight
        pending: deque = deque()
        queued = [False] * total
        if source < 0:
            queued[source] = True
            pending.append(source)
        for origin, targets in overlay_out.items():
            base = dist[origin]
            if base == NEG_INF:
                continue
            for target, weight in targets:
                candidate = base + weight
                if candidate > dist[target]:
                    dist[target] = candidate
                    if not queued[target]:
                        queued[target] = True
                        pending.append(target)
        pop_budget = total * total + len(self._edge_src) + self._overlay_size
        while pending:
            pop_budget -= 1
            if pop_budget < 0:
                raise PositiveCycleError(_POSITIVE_CYCLE_MESSAGE)
            node = pending.popleft()
            queued[node] = False
            base = dist[node]
            if node >= 0:
                for edge_id in self._out[node]:
                    candidate = base + edge_weight[edge_id]
                    target = edge_dst[edge_id]
                    if candidate > dist[target]:
                        dist[target] = candidate
                        if not queued[target]:
                            queued[target] = True
                            pending.append(target)
            for target, weight in overlay_out.get(node, ()):
                candidate = base + weight
                if candidate > dist[target]:
                    dist[target] = candidate
                    if not queued[target]:
                        queued[target] = True
                        pending.append(target)
        return dist

    def _overlay_row_values(self, source: int):
        row = self._overlay_rows.get(source)
        if row is not None:
            self.stats.overlay_row_cache_hits += 1
            _C_OVERLAY_HITS.value += 1
            return row
        row = self._compute_overlay_row(source)
        self._overlay_rows[source] = row
        self.stats.overlay_rows_computed += 1
        _C_OVERLAY_ROWS.value += 1
        return row

    def overlay_weight(self, source: NodeT, target: NodeT) -> Optional[int]:
        """Longest-path weight over base+overlay, ``None`` when unreachable.

        With an empty overlay this agrees with :meth:`weight` exactly.
        """
        self._sync()
        self.stats.queries += 1
        _C_QUERIES.value += 1
        source_index = self._combined_index(source, "source")
        target_index = self._combined_index(target, "target")
        value = self._overlay_row_values(source_index)[target_index]
        if value == NEG_INF:
            return None
        return int(value)

    def overlay_row(self, source: NodeT) -> Dict[NodeT, float]:
        """Longest-path weights from ``source`` over base+overlay, per node.

        Keyed by every base node and every current overlay vertex.
        """
        self._sync()
        self.stats.queries += 1
        _C_QUERIES.value += 1
        dist = self._overlay_row_values(self._combined_index(source, "source"))
        row = dict(zip(self._nodes, dist))
        for node, vertex in self._overlay_index.items():
            row[node] = dist[vertex]
        return row

    def has_positive_cycle(self) -> bool:
        """Whether any positive-weight cycle exists anywhere in the graph.

        Cycles live entirely inside strongly connected components, so each
        component is checked independently with a zero-initialised
        relaxation; the result is memoized until the graph grows.
        """
        self._sync()
        if self._positive_cycle is not None:
            return self._positive_cycle
        self._ensure_sccs()
        edge_src = self._edge_src
        edge_dst = self._edge_dst
        edge_weight = self._edge_weight
        result = False
        for component, intra in enumerate(self._scc_intra):
            if not intra:
                continue
            dist = {member: 0 for member in self._scc_members[component]}
            for _ in range(len(dist) + 1):
                changed = False
                for edge_id in intra:
                    candidate = dist[edge_src[edge_id]] + edge_weight[edge_id]
                    if candidate > dist[edge_dst[edge_id]]:
                        dist[edge_dst[edge_id]] = candidate
                        changed = True
                if not changed:
                    break
            else:
                result = True
                break
        self._positive_cycle = result
        return result

    # -- introspection ---------------------------------------------------------

    @property
    def cached_row_count(self) -> int:
        return len(self._rows)

    def overlay_edges(self) -> List[Tuple[NodeT, NodeT, int]]:
        """The installed overlay edges, each repeated by its multiplicity."""
        return [edge for edge, entry in self._overlay_edges.items() for _ in range(entry[0])]

    def component_count(self) -> int:
        self._sync()
        self._ensure_sccs()
        return len(self._scc_members)

    def describe(self) -> str:
        self._sync()
        self._ensure_sccs()
        return (
            f"LongestPathEngine(nodes={len(self._nodes)}, "
            f"edges={len(self._edge_src)}, sccs={len(self._scc_members)}, "
            f"rows={len(self._rows)})"
        )
