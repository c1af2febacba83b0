"""Hash-consing for the bcm substrate: one object per structural value.

The bcm model is full-information: every :class:`~repro.simulation.messages.Message`
carries its sender's entire :class:`~repro.simulation.messages.History`, so
histories nest recursively and the same prefix is re-embedded thousands of
times per run.  Treating equality, hashing, and causal-past traversal
structurally makes deep runs quadratic (or worse) in the horizon.  This module
restructures the *sharing topology* instead: every structurally distinct
history, message, observation, and basic node is constructed exactly once per
:class:`InternPool`, so

* ``a == b`` degrades to ``a is b`` for values of the same pool (the
  structural comparison is kept as a guarded fallback for values that cross
  pools, e.g. after a pool swap or process boundary);
* ``History.extend`` is O(step) instead of O(history) -- histories are
  persistent parent-pointer chains, and extending re-uses the interned child
  when it exists; and
* run-level caches (causal pasts as bitsets over dense node uids, boundary
  maps, delivery maps) can be keyed by identity and live exactly as long as
  the pool that owns their values.

The pool is deliberately *not* a weak-value table: it pins every value
interned into it.  That is the right trade for simulation workloads (a run
re-uses its prefixes constantly and the pool dies with the workload), but it
means long-lived processes should scope heavy work with :func:`intern_pool`::

    with intern_pool():
        run = scenario.run()          # everything interned into a fresh pool
        ...                           # caches filled, identity equality holds
    # pool dropped here; the run stays valid (guarded structural fallbacks)

Each OS process has its own current pool (module global), which is what makes
ProcessPool sweep workers naturally isolated; pools are not thread-scoped, so
do not swap pools concurrently from multiple threads.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple


class InternPool:
    """One hash-consing universe plus the identity-keyed caches built on it.

    The first group of tables interns values (structural key -> the unique
    instance); the second group memoizes derived causal data keyed by those
    instances.  Everything is per-pool so dropping the pool drops both the
    values it pinned and every cache entry about them.
    """

    __slots__ = (
        # value tables
        "externals",  # tag -> ExternalReceipt
        "actions",  # name -> LocalAction
        "receipts",  # Message -> MessageReceipt
        "messages",  # (sender, recipients, history, payload) -> Message
        "history_initials",  # process -> initial History
        "history_children",  # (parent History, step) -> History
        "nodes",  # History -> BasicNode
        "node_by_uid",  # dense uid -> BasicNode (uids index bitset pasts)
        # derived caches (identity-keyed through cached hashes)
        "direct_causes",  # BasicNode -> Tuple[BasicNode, ...]
        "past_masks",  # BasicNode -> int bitmask over node uids
        "past_sets",  # BasicNode -> FrozenSet[BasicNode]
        "boundaries",  # BasicNode -> {process: BasicNode}
        "delivery_maps",  # BasicNode -> {(sender_node, dest): receiver_node}
        # cross-pool canonicalisation (id(foreign value) -> canonical value;
        # the pin list keeps the foreign objects alive so ids stay unique)
        "canonical_memo",
        "canonical_pins",
    )

    def __init__(self) -> None:
        self.externals: Dict[str, Any] = {}
        self.actions: Dict[str, Any] = {}
        self.receipts: Dict[Any, Any] = {}
        self.messages: Dict[Tuple[Any, ...], Any] = {}
        self.history_initials: Dict[str, Any] = {}
        self.history_children: Dict[Tuple[Any, Any], Any] = {}
        self.nodes: Dict[Any, Any] = {}
        self.node_by_uid: List[Any] = []
        self.direct_causes: Dict[Any, Tuple[Any, ...]] = {}
        self.past_masks: Dict[Any, int] = {}
        self.past_sets: Dict[Any, Any] = {}
        self.boundaries: Dict[Any, Dict[str, Any]] = {}
        self.delivery_maps: Dict[Any, Dict[Any, Any]] = {}
        self.canonical_memo: Dict[int, Any] = {}
        self.canonical_pins: List[Any] = []

    def register_node(self, node: Any) -> int:
        """Assign the next dense uid to a freshly interned basic node."""
        uid = len(self.node_by_uid)
        self.node_by_uid.append(node)
        return uid

    def clear(self) -> None:
        """Drop every interned value and cache (previously returned objects stay valid)."""
        for name in self.__slots__:
            getattr(self, name).clear()

    def stats(self) -> Dict[str, int]:
        """Table sizes, for tests and capacity reporting."""
        return {name: len(getattr(self, name)) for name in self.__slots__}


#: The current pool of this process.  Hot constructors read this attribute
#: directly (``interning._POOL``); swap it only via :func:`set_pool` /
#: :func:`intern_pool`.
_POOL = InternPool()


def current_pool() -> InternPool:
    """The pool new values are interned into right now."""
    return _POOL


def set_pool(pool: InternPool) -> InternPool:
    """Install ``pool`` as the current pool and return the previous one."""
    global _POOL
    previous = _POOL
    _POOL = pool
    return previous


@contextmanager
def intern_pool(pool: Optional[InternPool] = None) -> Iterator[InternPool]:
    """Scope a block to its own intern pool (a fresh one unless given).

    On exit the previous pool is restored; values created inside the scope
    remain usable (their equality falls back to the guarded structural path
    against values of other pools) but are no longer pinned once the caller
    drops them.
    """
    scoped = pool if pool is not None else InternPool()
    previous = set_pool(scoped)
    try:
        yield scoped
    finally:
        set_pool(previous)


def intern_stats() -> Dict[str, int]:
    """Table sizes of the current pool."""
    return _POOL.stats()
