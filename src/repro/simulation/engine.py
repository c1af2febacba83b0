"""The discrete-event simulation engine for the bcm model.

The model's semantics live in one function, :func:`step`, which advances a
run prefix (:class:`RunState`) by the atomic step at time ``now``:

1. it collects the internal messages whose delivery time is ``now`` and the
   external inputs scheduled for ``now``;
2. it delivers them: each receiving process observes all of them in one atomic
   step (external receipts first, then internal receipts in a deterministic
   order), the process's protocol chooses local actions, and the new basic
   node is recorded on the process's timeline;
3. it records the messages the protocol asked for, stamped with the sender's
   new history (full-information payload), and returns them.

The step never picks a delivery time: its caller does, once per returned
send, through :meth:`RunState.deliver_at`.  :class:`Simulator` asks its
:class:`~repro.simulation.delivery.DeliveryStrategy` for one delay per send;
:func:`~repro.simulation.enumerate.enumerate_runs` branches over every legal
delivery time.  A delivery time past the horizon leaves the message in
transit, and :meth:`RunState.finish` records it as pending, in send order.

Processes are event-driven: they take a step only when at least one message is
delivered to them, and they never act spontaneously at time 0, exactly as in
the paper's model.

Run construction rides on the hash-consed substrate of
:mod:`repro.simulation.interning`: ``History.extend`` appends to a persistent
parent-pointer chain (O(step), no prefix copy), and the messages/nodes built
here are interned so every later equality, serialisation table lookup, or
causal-past walk over the run works by identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.nodes import BasicNode
from .context import Context, ExternalInput, schedule
from .delivery import DeliveryStrategy, EarliestDelivery
from .messages import (
    ExternalReceipt,
    History,
    LocalAction,
    Message,
    MessageReceipt,
    Observation,
)
from .network import Process, TimedNetwork
from .protocols import (
    Protocol,
    ProtocolAssignment,
    StepContext,
    StepDecision,
)
from .runs import (
    DeliveryRecord,
    ExternalDeliveryRecord,
    Run,
    SendRecord,
)


class SimulationError(RuntimeError):
    """Raised when the engine is configured inconsistently."""


@dataclass
class _InTransit:
    """A message in flight, with the delivery time chosen at send time."""

    send: SendRecord
    delivery_time: int


ProtocolsLike = Union[None, Protocol, ProtocolAssignment, Mapping[Process, Protocol]]


def _normalise_protocols(protocols: ProtocolsLike) -> ProtocolAssignment:
    if protocols is None:
        return ProtocolAssignment()
    if isinstance(protocols, ProtocolAssignment):
        return protocols
    if isinstance(protocols, Protocol):
        return ProtocolAssignment(protocols={}, default=protocols)
    if isinstance(protocols, Mapping):
        return ProtocolAssignment(protocols=dict(protocols))
    raise SimulationError(f"cannot interpret {protocols!r} as a protocol assignment")


def externals_by_time(
    externals: Iterable[ExternalInput], net: TimedNetwork
) -> Dict[int, List[ExternalInput]]:
    """A :func:`~repro.simulation.context.schedule` grouped by time, as :func:`step` reads it."""
    grouped: Dict[int, List[ExternalInput]] = {}
    for external in externals:
        if external.process not in net.processes:
            raise SimulationError(
                f"external input addressed to unknown process {external.process!r}"
            )
        grouped.setdefault(external.time, []).append(external)
    return grouped


@dataclass
class RunState:
    """A run prefix: everything needed to continue a run from some time on."""

    histories: Dict[Process, History]
    timelines: Dict[Process, List[Tuple[int, BasicNode]]]
    in_transit: List[_InTransit] = field(default_factory=list)
    sends: List[SendRecord] = field(default_factory=list)
    deliveries: List[DeliveryRecord] = field(default_factory=list)
    externals: List[ExternalDeliveryRecord] = field(default_factory=list)

    @classmethod
    def initial(cls, net: TimedNetwork) -> "RunState":
        """Every process in its initial node, at time 0, with nothing sent."""
        return cls(
            {process: History.initial(process) for process in net.processes},
            {process: [(0, BasicNode.initial(process))] for process in net.processes},
        )

    def copy(self) -> "RunState":
        return RunState(
            dict(self.histories),
            {process: list(timeline) for process, timeline in self.timelines.items()},
            list(self.in_transit),
            list(self.sends),
            list(self.deliveries),
            list(self.externals),
        )

    def deliver_at(self, send: SendRecord, delivery_time: int) -> None:
        """Put ``send`` in transit until ``delivery_time`` (past the horizon: pending)."""
        self.in_transit.append(_InTransit(send=send, delivery_time=delivery_time))

    def finish(self, context: Context, horizon: int) -> Run:
        """The run this prefix spells out at ``horizon``; what is in transit is pending."""
        return Run(
            context=context,
            horizon=horizon,
            timelines={process: tuple(t) for process, t in self.timelines.items()},
            sends=tuple(self.sends),
            deliveries=tuple(self.deliveries),
            external_deliveries=tuple(self.externals),
            pending=tuple(item.send for item in self.in_transit),
        )


def step(
    state: RunState,
    now: int,
    net: TimedNetwork,
    protocols: ProtocolAssignment,
    externals_by_time: Mapping[int, Sequence[ExternalInput]],
) -> List[SendRecord]:
    """Advance ``state`` in place by the atomic step at time ``now``.

    Returns the messages sent in this step, in process order and then
    destination order; they are already in ``state.sends``, and the caller
    puts each one in transit with :meth:`RunState.deliver_at`.
    """
    due = [item for item in state.in_transit if item.delivery_time == now]
    state.in_transit = [item for item in state.in_transit if item.delivery_time != now]

    incoming: Dict[Process, Tuple[List[ExternalInput], List[_InTransit]]] = {}
    for external in externals_by_time.get(now, ()):
        incoming.setdefault(external.process, ([], []))[0].append(external)
    for item in due:
        incoming.setdefault(item.send.destination, ([], []))[1].append(item)

    new_sends: List[SendRecord] = []
    for process in net.processes:
        if process not in incoming:
            continue
        observations, delivered_items, delivered_externals = _receipts(*incoming[process])
        previous = state.histories[process]
        ctx = StepContext(
            process=process,
            previous_history=previous,
            observations=observations,
            timed_network=net,
        )
        decision = protocols.for_process(process).on_step(ctx)
        new_history = previous.extend(
            observations + tuple(LocalAction(name) for name in decision.actions)
        )
        state.histories[process] = new_history
        new_node = BasicNode(process, new_history)
        state.timelines[process].append((now, new_node))

        for item in delivered_items:
            state.deliveries.append(
                DeliveryRecord(send=item.send, receiver_node=new_node, delivery_time=now)
            )
        for external in delivered_externals:
            state.externals.append(
                ExternalDeliveryRecord(external=external, receiver_node=new_node)
            )

        destinations = _destinations(decision, process, net)
        if destinations:
            message = Message(
                sender=process,
                recipients=destinations,
                sender_history=new_history,
                payload=decision.payload,
            )
            for destination in destinations:
                new_sends.append(
                    SendRecord(
                        message=message,
                        sender_node=new_node,
                        destination=destination,
                        send_time=now,
                    )
                )
    state.sends.extend(new_sends)
    return new_sends


def _receipts(
    externals: Sequence[ExternalInput], items: Sequence[_InTransit]
) -> Tuple[Tuple[Observation, ...], List[_InTransit], List[ExternalInput]]:
    """Deterministically order one process's receipts in one step.

    External receipts come first (sorted by tag), then internal receipts
    sorted by (send time, sender, recipients).  The ordering is arbitrary
    but fixed so that runs are reproducible.
    """
    sorted_externals = sorted(externals, key=lambda e: e.tag)
    sorted_items = sorted(
        items,
        key=lambda item: (
            item.send.send_time,
            item.send.sender,
            item.send.message.recipients,
        ),
    )
    observations: List[Observation] = [
        ExternalReceipt(external.tag) for external in sorted_externals
    ]
    observations.extend(MessageReceipt(item.send.message) for item in sorted_items)
    return tuple(observations), sorted_items, sorted_externals


def _destinations(
    decision: StepDecision, process: Process, net: TimedNetwork
) -> Tuple[Process, ...]:
    neighbors = net.out_neighbors(process)
    if decision.send_to is None:
        return neighbors
    for destination in decision.send_to:
        if destination not in neighbors:
            raise SimulationError(
                f"protocol of {process} asked to send to {destination!r} but there is "
                f"no channel ({process}, {destination})"
            )
    return tuple(decision.send_to)


class Simulator:
    """Runs a protocol in a bounded context and produces a :class:`Run`.

    Parameters
    ----------
    context:
        The bounded context ``gamma`` (timed network).
    protocols:
        Either a single protocol used by every process, a mapping from process
        to protocol, or a :class:`ProtocolAssignment`.  Unassigned processes
        default to the FFIP relay.
    delivery:
        The environment's delivery strategy (defaults to earliest delivery).
    external_inputs:
        The schedule of spontaneous external messages.
    horizon:
        Number of time steps to simulate.
    """

    def __init__(
        self,
        context: Context,
        protocols: ProtocolsLike = None,
        delivery: Optional[DeliveryStrategy] = None,
        external_inputs: Iterable[ExternalInput | Tuple[int, Process, str]] = (),
        horizon: int = 50,
    ):
        self.context = context
        self.protocols = _normalise_protocols(protocols)
        self.delivery = delivery if delivery is not None else EarliestDelivery()
        self.external_inputs = schedule(external_inputs)
        if horizon < 0:
            raise SimulationError("horizon must be non-negative")
        self.horizon = int(horizon)
        self._externals_by_time = externals_by_time(self.external_inputs, context.timed_network)

    def run(self) -> Run:
        """The one run in which every message takes the delay the strategy picks."""
        net = self.context.timed_network
        state = RunState.initial(net)
        for now in range(1, self.horizon + 1):
            for record in step(state, now, net, self.protocols, self._externals_by_time):
                delay = self.delivery.checked_delay(
                    record.message, record.destination, record.send_time, net
                )
                state.deliver_at(record, now + delay)
        return state.finish(self.context, self.horizon)


def simulate(
    context: Context,
    protocols: ProtocolsLike = None,
    delivery: Optional[DeliveryStrategy] = None,
    external_inputs: Iterable[ExternalInput | Tuple[int, Process, str]] = (),
    horizon: int = 50,
) -> Run:
    """One-call convenience wrapper around :class:`Simulator`."""
    return Simulator(
        context=context,
        protocols=protocols,
        delivery=delivery,
        external_inputs=external_inputs,
        horizon=horizon,
    ).run()
