"""Lamport causality in the bcm model: happens-before, pasts, and recognition.

Because the library always runs full-information protocols (every message
carries its sender's entire history), the happens-before relation and the
causal past of a basic node are determined by the node's local state alone --
the run it came from adds nothing (footnote 6 of the paper).  The functions in
this module therefore work directly on :class:`~repro.core.nodes.BasicNode`
objects, walking the history DAG embedded in their local states.

Since basic nodes are hash-consed (:mod:`repro.simulation.interning`), every
derived causal quantity is memoized in the intern pool and keyed by identity:

* :func:`_direct_causes` rows are computed once per node;
* causal pasts are **bitsets** over the pool's dense node uids
  (``past_masks``), so the past of a node is one ``|``-fold over its direct
  causes' masks and membership tests are single bit probes;
* the materialised frozenset (:func:`past_nodes`), the per-process boundary
  map (:func:`boundary_nodes`), and the visible-delivery map
  (:func:`local_delivery_map`) are cached per queried node.

Nodes interned in a *different* pool (after a pool swap or a process
boundary) are transparently re-canonicalised into the current pool before
their uid is used, so all entry points stay correct across pools -- only the
caches are per-pool.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..simulation import interning as _interning
from ..simulation.interning import InternPool
from ..simulation.messages import MessageReceipt
from ..simulation.network import Process
from .nodes import BasicNode, GeneralNode


def _canonical_uid(pool: InternPool, node: BasicNode) -> int:
    """The node's dense uid in ``pool``, re-interning nodes from other pools."""
    uid = node.uid
    table = pool.node_by_uid
    if 0 <= uid < len(table) and table[uid] is node:
        return uid
    # The node was interned elsewhere: its (structurally equal) canonical
    # twin in this pool carries the uid the bitsets here are built over.
    return BasicNode(node.process, node.history).uid


def _direct_causes(node: BasicNode) -> Tuple[BasicNode, ...]:
    """The immediate happens-before predecessors of ``node``.

    These are the node's local predecessor (one step earlier on its own
    timeline) and, for every message received in its last step, the basic node
    at which that message was sent.  Memoized per node in the intern pool.
    """
    pool = _interning._POOL
    cached = pool.direct_causes.get(node)
    if cached is not None:
        return cached
    causes = []
    previous = node.predecessor()
    if previous is not None:
        causes.append(previous)
        for observation in node.history.last_step:
            if isinstance(observation, MessageReceipt):
                message = observation.message
                causes.append(BasicNode(message.sender, message.sender_history))
    result = tuple(causes)
    pool.direct_causes[node] = result
    return result


def _past_mask(pool: InternPool, node: BasicNode) -> int:
    """``past(node)`` as a bitset over the pool's dense node uids.

    Iterative post-order over the cause DAG: each node's mask is its own bit
    OR-ed with its direct causes' (already computed) masks, so shared
    sub-pasts are folded once, not re-walked per query.
    """
    masks = pool.past_masks
    cached = masks.get(node)
    if cached is not None:
        return cached
    stack = [node]
    while stack:
        current = stack[-1]
        if current in masks:
            stack.pop()
            continue
        causes = _direct_causes(current)
        pending = [cause for cause in causes if cause not in masks]
        if pending:
            stack.extend(pending)
            continue
        mask = 1 << _canonical_uid(pool, current)
        for cause in causes:
            mask |= masks[cause]
        masks[current] = mask
        stack.pop()
    return masks[node]


def _mask_members(pool: InternPool, mask: int) -> FrozenSet[BasicNode]:
    """Materialise a past bitset back into its set of basic nodes."""
    table = pool.node_by_uid
    members = []
    remaining = mask
    while remaining:
        lowest = remaining & -remaining
        members.append(table[lowest.bit_length() - 1])
        remaining ^= lowest
    return frozenset(members)


def past_nodes(node: BasicNode) -> FrozenSet[BasicNode]:
    """``past(r, sigma)``: every basic node that happens-before ``sigma``.

    The result includes ``sigma`` itself (happens-before is reflexive on a
    process's own timeline in the paper's Definition 2(i)).  Cached per node;
    repeated calls return the same frozenset object.
    """
    pool = _interning._POOL
    cached = pool.past_sets.get(node)
    if cached is not None:
        return cached
    result = _mask_members(pool, _past_mask(pool, node))
    pool.past_sets[node] = result
    return result


def past_mask(node: BasicNode) -> int:
    """``past(node)`` as a bitset over the current pool's dense node uids.

    The raw-mask form of :func:`past_nodes`: cheap to intersect, union and
    diff.  Incremental consumers (the knowledge sessions) keep the previous
    step's mask and materialise only ``past_mask(new) & ~old`` -- the causal
    delta -- instead of re-walking the whole past.
    """
    return _past_mask(_interning._POOL, node)


def mask_members(mask: int) -> FrozenSet[BasicNode]:
    """Materialise a past bitset (e.g. a delta of two masks) into its nodes."""
    return _mask_members(_interning._POOL, mask)


def in_past(node: BasicNode, sigma: BasicNode) -> bool:
    """``node in past(sigma)``, answered by one bit probe on the cached mask.

    Equivalent to ``node in past_nodes(sigma)`` (and, because pasts contain
    the full local timeline prefix, to ``happens_before(node, sigma)``)
    without materialising the set.
    """
    pool = _interning._POOL
    mask = _past_mask(pool, sigma)
    return bool(mask >> _canonical_uid(pool, node) & 1)


def in_past_many(nodes: Sequence[BasicNode], sigma: BasicNode) -> List[bool]:
    """Batched :func:`in_past`: ``[node in past(sigma) for node in nodes]``.

    Sigma's mask is fetched (or built) once for the whole batch, then each
    node is one bit probe on it.  The result list is index-aligned with
    ``nodes``.
    """
    pool = _interning._POOL
    mask = _past_mask(pool, sigma)
    return [bool(mask >> _canonical_uid(pool, node) & 1) for node in nodes]


def happens_before(earlier: BasicNode, later: BasicNode, strict: bool = False) -> bool:
    """Whether ``earlier`` happens-before ``later`` (Definition 2).

    With ``strict=True`` the relation excludes equality of the two nodes.
    """
    if strict and earlier == later:
        return False
    if earlier.precedes_locally(later):
        return True
    return in_past(earlier, later)


def is_recognized(theta: GeneralNode, sigma: BasicNode) -> bool:
    """Whether ``theta`` is a ``sigma``-recognized node.

    A general node ``<sigma', p'>`` is sigma-recognized iff ``sigma'`` is in
    the past of ``sigma``; under an FFIP, sigma then knows that the node
    appears in the run (the chain messages are guaranteed to be sent and,
    eventually, delivered).
    """
    return happens_before(theta.base, sigma)


def boundary_nodes(sigma: BasicNode) -> Dict[Process, BasicNode]:
    """The boundary node of every process with respect to ``sigma`` (Definition 15).

    The boundary node of process ``i`` is the last ``i``-node in
    ``past(sigma)``.  Processes with no node in the past are absent from the
    returned mapping.  Cached per sigma (a fresh dict is returned so callers
    may mutate their copy).
    """
    pool = _interning._POOL
    cached = pool.boundaries.get(sigma)
    if cached is None:
        latest: Dict[Process, BasicNode] = {}
        for node in past_nodes(sigma):
            current = latest.get(node.process)
            if current is None or current.precedes_locally(node):
                latest[node.process] = node
        pool.boundaries[sigma] = cached = latest
    return dict(cached)


def local_delivery_map(
    sigma: BasicNode,
) -> Dict[Tuple[BasicNode, Process], BasicNode]:
    """Deliveries visible in ``sigma``'s past: ``(sender_node, dest) -> receiver_node``.

    For every node in ``past(sigma)`` and every message receipt in its last
    step, record that the message sent at the embedded sender node to this
    node's process was delivered at this node.  This is the information
    ``sigma`` has about which messages have already landed inside its past;
    it drives both general-node resolution from a local state and the
    construction of the extended bounds graph.  Cached per sigma (a fresh
    dict is returned so callers may mutate their copy).
    """
    pool = _interning._POOL
    cached = pool.delivery_maps.get(sigma)
    if cached is None:
        delivered: Dict[Tuple[BasicNode, Process], BasicNode] = {}
        for node in past_nodes(sigma):
            if node.is_initial:
                continue
            for observation in node.history.last_step:
                if isinstance(observation, MessageReceipt):
                    sender_node = BasicNode(
                        observation.message.sender, observation.message.sender_history
                    )
                    delivered[(sender_node, node.process)] = node
        pool.delivery_maps[sigma] = cached = delivered
    return dict(cached)


def resolve_within_past(
    theta: GeneralNode, sigma: BasicNode
) -> Tuple[BasicNode, int]:
    """Resolve as much of ``theta``'s chain as lies inside ``past(sigma)``.

    Returns ``(last_resolved_node, hops_resolved)``: the basic node reached
    after following the longest prefix of ``theta.path`` whose chain messages
    have all been delivered inside ``past(sigma)``, together with the number
    of hops of that prefix.  If ``hops_resolved == theta.hops`` then
    ``basic(theta, r)`` itself lies in the past of ``sigma`` and equals the
    returned node.

    Raises ``ValueError`` if ``theta`` is not sigma-recognized.
    """
    if not is_recognized(theta, sigma):
        raise ValueError(
            f"general node {theta.describe()} is not recognized at {sigma.describe()}"
        )
    delivered = local_delivery_map(sigma)
    current = theta.base
    hops = 0
    for next_process in theta.path[1:]:
        receiver = delivered.get((current, next_process))
        if receiver is None:
            break
        current = receiver
        hops += 1
    return current, hops


def common_past(nodes: Iterable[BasicNode]) -> FrozenSet[BasicNode]:
    """The intersection of the pasts of several basic nodes."""
    pool = _interning._POOL
    iterator = iter(nodes)
    try:
        first = next(iterator)
    except StopIteration:
        return frozenset()
    mask = _past_mask(pool, first)
    for node in iterator:
        mask &= _past_mask(pool, node)
    return _mask_members(pool, mask)


def causal_frontier(sigma: BasicNode) -> Dict[Process, Optional[BasicNode]]:
    """Like :func:`boundary_nodes` but listing every process (``None`` if unseen)."""
    boundary = boundary_nodes(sigma)
    return {process: boundary.get(process) for process in {sigma.process, *boundary}}
