"""Re-timing runs: the run-by-timing construction (Lemma 8).

Given a run ``r``, a p-closed subset ``V'`` of its bounds-graph nodes and a
valid timing function ``T`` on ``V'``, Lemma 8 constructs a legal run ``r[T]``
containing exactly the nodes of ``V'`` (plus the initial nodes), each
occurring at its prescribed time.  Combined with the slow timing of a node
``sigma`` this realises a run in which every constraint towards ``sigma`` is
tight, which is the engine behind Theorem 2 (zigzag necessity).

Two pragmatic deviations from the paper, both documented in DESIGN.md:

* runs here are finite prefixes, so messages sent by ``V'`` nodes towards
  processes outside ``V'`` may simply remain pending at the horizon rather
  than being delivered "in the far future"; and
* the timing of initial nodes is pinned to 0 (as it must be in any run)
  regardless of the value the timing function assigns them -- valid timing
  functions on p-closed sets always assign non-initial nodes times >= 1, so
  this never conflicts with the constraints.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple, TYPE_CHECKING

from ..simulation.context import ExternalInput
from ..simulation.runs import (
    DeliveryRecord,
    ExternalDeliveryRecord,
    Run,
    SendRecord,
)
from .bounds_graph import is_p_closed
from .nodes import BasicNode
from .timing import slow_timing, validate_timing

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


class ConstructionError(ValueError):
    """Raised when the run-by-timing construction is given inconsistent inputs."""


def run_by_timing(
    run: Run,
    timing: Mapping[BasicNode, int],
    check: bool = True,
) -> Run:
    """Construct ``r[T]``: the run whose nodes are ``timing``'s domain, re-timed.

    ``timing``'s domain must be a p-closed subset of the run's bounds-graph
    nodes and the timing must be valid for it; both are verified when
    ``check`` is true.  The returned run preserves the local states (and hence
    all message contents) of the selected nodes; only their occurrence times
    change.
    """
    graph = run.bounds_graph()
    domain = set(timing)
    unknown = [node for node in domain if node not in graph]
    if unknown:
        raise ConstructionError(
            f"timing domain contains nodes not in the run: {[n.describe() for n in unknown]}"
        )
    if check:
        if not is_p_closed(graph, domain):
            raise ConstructionError("the timing domain is not p-closed")
        validate_timing(graph, timing)

    horizon = max([0, *timing.values()])

    # Timelines: the initial node of every process at time 0, then the selected
    # non-initial nodes of that process at their prescribed times.
    timelines: Dict[str, List[Tuple[int, BasicNode]]] = {}
    for process in run.processes:
        timelines[process] = [(0, BasicNode.initial(process))]
    for node in sorted(domain, key=lambda n: (timing[n], n.process, n.step_count)):
        if node.is_initial:
            continue
        assigned = timing[node]
        if assigned < 1:
            raise ConstructionError(
                f"non-initial node {node.describe()} assigned illegal time {assigned}"
            )
        timelines[node.process].append((assigned, node))
    for process, timeline in timelines.items():
        ordered = sorted(timeline, key=lambda item: item[0])
        for (time_a, node_a), (time_b, node_b) in zip(ordered, ordered[1:]):
            if time_a == time_b:
                raise ConstructionError(
                    f"two nodes of {process} assigned the same time {time_a}"
                )
            if node_b.predecessor() != node_a:
                raise ConstructionError(
                    f"nodes of {process} are not consecutive local states under the "
                    "assigned timing"
                )
        timelines[process] = ordered

    # Sends: every send of the original run whose sender node is kept.
    sends: List[SendRecord] = []
    for record in run.sends:
        if record.sender_node in domain and not record.sender_node.is_initial:
            sends.append(
                SendRecord(
                    message=record.message,
                    sender_node=record.sender_node,
                    destination=record.destination,
                    send_time=timing[record.sender_node],
                )
            )

    # Deliveries: exactly the original deliveries between kept nodes, re-timed.
    deliveries: List[DeliveryRecord] = []
    delivered_keys = set()
    for record in run.deliveries:
        if record.sender_node in domain and record.receiver_node in domain:
            new_send = SendRecord(
                message=record.send.message,
                sender_node=record.sender_node,
                destination=record.destination,
                send_time=timing[record.sender_node],
            )
            deliveries.append(
                DeliveryRecord(
                    send=new_send,
                    receiver_node=record.receiver_node,
                    delivery_time=timing[record.receiver_node],
                )
            )
            delivered_keys.add((record.sender_node, record.destination))

    pending = tuple(
        record
        for record in sends
        if (record.sender_node, record.destination) not in delivered_keys
    )

    # External inputs: re-timed to the new time of their receiving node.
    externals: List[ExternalDeliveryRecord] = []
    for record in run.external_deliveries:
        if record.receiver_node in domain:
            new_time = timing[record.receiver_node]
            externals.append(
                ExternalDeliveryRecord(
                    external=ExternalInput(new_time, record.process, record.tag),
                    receiver_node=record.receiver_node,
                )
            )

    constructed = Run(
        context=run.context,
        horizon=horizon,
        timelines={p: tuple(t) for p, t in timelines.items()},
        sends=tuple(sends),
        deliveries=tuple(deliveries),
        external_deliveries=tuple(externals),
        pending=pending,
    )
    if check:
        constructed.validate(require_forced_delivery=False)
    return constructed


def slow_run(run: Run, sigma: BasicNode) -> Run:
    """The run realising the slow timing of ``sigma`` (the witness for Theorem 2).

    In the returned run, for every node ``sigma'`` that reaches ``sigma`` in
    the bounds graph, ``time(sigma) - time(sigma')`` equals the longest-path
    weight from ``sigma'`` to ``sigma`` -- i.e. every provable constraint is
    attained with equality.
    """
    timing = slow_timing(run, sigma)
    return run_by_timing(run, timing)


def realized_gap(run: Run, sigma_from: BasicNode, sigma_to: BasicNode) -> Optional[int]:
    """``time(sigma_to) - time(sigma_from)`` in a run, ``None`` if either is absent."""
    if not run.appears(sigma_from) or not run.appears(sigma_to):
        return None
    return run.time_of(sigma_to) - run.time_of(sigma_from)
