"""Sigma-visible zigzag patterns (Definition 7).

A zigzag pattern guarantees a timed precedence, but a process can only *use*
the guarantee if it can tell that the pattern exists.  Information does not
flow along a zigzag (forks point away from each other), so visibility has to
be arranged explicitly: a zigzag ``Z = (F1, ..., Fc)`` is ``sigma``-visible in
a run when

* the head of every fork except the last happens-before ``sigma`` (so sigma
  has seen the order in which the pivotal intermediate messages arrived), and
* the base of the last fork is a general node rooted in sigma's past.

Theorem 4 says sigma-visible zigzags of weight at least ``x`` are exactly what
it takes for ``sigma`` to know ``theta1 --x--> theta2``; the quantitative side
of that equivalence is computed by :mod:`repro.core.knowledge`, while this
module provides the pattern-level predicate and a search utility that
exhibits an explicit witness pattern on small instances.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

from .causality import in_past_many
from .forks import TwoLeggedFork
from .nodes import BasicNode, GeneralNode
from .zigzag import ZigzagPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.runs import Run


def is_visible_zigzag(pattern: ZigzagPattern, sigma: BasicNode, run: "Run") -> bool:
    """Whether ``pattern`` is a sigma-visible zigzag pattern of ``run``.

    Recognition checks are probes against sigma's cached past bitset (pasts
    include the full local timeline prefix, so past membership is exactly
    happens-before here).  All of the pattern's probes -- every non-final
    fork head plus the last fork's base -- go through one batched
    :func:`in_past_many` call, which fetches sigma's mask once.
    """
    if not pattern.is_valid_in(run):
        return False
    forks = pattern.forks
    probes: List[BasicNode] = []
    for fork in forks[:-1]:
        head = run.resolve(fork.head)
        if head is None:
            return False
        probes.append(head)
    probes.append(forks[-1].base.base)
    return all(in_past_many(probes, sigma))


def visible_weight(pattern: ZigzagPattern, sigma: BasicNode, run: "Run") -> Optional[int]:
    """The pattern's weight if it is sigma-visible in the run, else ``None``."""
    if not is_visible_zigzag(pattern, sigma, run):
        return None
    return pattern.weight(run)


def _candidate_forks(
    run: "Run",
    sigma: BasicNode,
    max_leg_hops: int,
) -> List[TwoLeggedFork]:
    """All forks rooted in sigma's past with legs of at most ``max_leg_hops`` hops.

    Used by the exhaustive search on small instances; the number of candidate
    forks grows quickly with the leg length, so keep ``max_leg_hops`` small.
    """
    net = run.timed_network.network
    forks: List[TwoLeggedFork] = []
    past = run.past(sigma)
    for base in past:
        if base.is_initial:
            continue
        origin = base.process
        legs = [path for path in net.iter_paths(origin, max_leg_hops)]
        for head_path in legs:
            for tail_path in legs:
                forks.append(TwoLeggedFork(base, head_path, tail_path))
    return forks


def search_visible_zigzag(
    run: "Run",
    sigma: BasicNode,
    theta1: GeneralNode,
    theta2: GeneralNode,
    min_weight: int,
    max_forks: int = 3,
    max_leg_hops: int = 2,
) -> Optional[ZigzagPattern]:
    """Exhaustively search for a sigma-visible zigzag from theta1 to theta2.

    This is a reference implementation used by tests and small demos: it
    enumerates fork sequences (up to ``max_forks`` forks with legs of up to
    ``max_leg_hops`` hops) and returns the first sigma-visible pattern whose
    endpoints resolve to the requested nodes and whose weight reaches
    ``min_weight``.  For anything beyond toy sizes use the extended bounds
    graph characterisation in :mod:`repro.core.knowledge` instead.
    """
    target_tail = run.resolve(theta1)
    target_head = run.resolve(theta2)
    if target_tail is None or target_head is None:
        return None
    candidates = _candidate_forks(run, sigma, max_leg_hops)

    # Index forks by the basic node their tail resolves to, for chaining.
    tails: dict = {}
    for fork in candidates:
        resolved = run.resolve(fork.tail)
        if resolved is None:
            continue
        tails.setdefault(resolved.process, []).append((fork, resolved))

    def extend(partial: Tuple[TwoLeggedFork, ...]) -> Optional[ZigzagPattern]:
        pattern = ZigzagPattern(partial)
        head = run.resolve(pattern.head)
        if head is not None and head == target_head:
            if (
                pattern.is_valid_in(run)
                and is_visible_zigzag(pattern, sigma, run)
                and pattern.weight(run) >= min_weight
            ):
                return pattern
        if len(partial) >= max_forks:
            return None
        current_head = run.resolve(partial[-1].head)
        if current_head is None:
            return None
        for fork, resolved_tail in tails.get(current_head.process, ()):
            if run.time_of(resolved_tail) < run.time_of(current_head):
                continue
            found = extend(partial + (fork,))
            if found is not None:
                return found
        return None

    for fork in candidates:
        resolved_tail = run.resolve(fork.tail)
        if resolved_tail != target_tail:
            continue
        found = extend((fork,))
        if found is not None:
            return found
    return None
