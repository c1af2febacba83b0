"""Runs: finite executions of a protocol in a bounded context.

A run of the paper is an infinite sequence of global states; a simulator can
only ever produce a finite prefix, so :class:`Run` represents an execution up
to a ``horizon``.  Messages still in transit at the horizon are recorded as
*pending* (their forced-delivery deadline lies beyond the horizon or simply
was not reached); everything delivered inside the horizon respects the channel
bounds, which :meth:`Run.validate` checks.

The run records, for every process, its *timeline*: the sequence of basic
nodes (local states) it passes through together with the time at which each
node first appears (``time_r(sigma)`` in the paper).  It also records every
send and every delivery, which is what the bounds-graph construction of the
core package consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from ..core.nodes import BasicNode, GeneralNode
from .context import Context, ExternalInput
from .messages import (
    ExternalReceipt,
    History,
    LocalAction,
    Message,
    MessageReceipt,
    Observation,
)
from .network import Process, TimedNetwork, timed_network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.graph import WeightedGraph

#: Version stamp of the :meth:`Run.to_dict` wire format.
RUN_FORMAT_VERSION = 1


class RunError(ValueError):
    """Raised when a run is queried about nodes or chains it does not contain."""


class RunFormatError(RunError):
    """Raised by :meth:`Run.from_dict` on malformed or unsupported payloads."""


class RunValidationError(RunError):
    """Raised by :meth:`Run.validate` when the execution violates the model."""


@dataclass(frozen=True)
class SendRecord:
    """A message sent at ``send_time`` from ``sender_node`` towards ``destination``."""

    message: Message
    sender_node: BasicNode
    destination: Process
    send_time: int

    @property
    def sender(self) -> Process:
        return self.sender_node.process


@dataclass(frozen=True)
class DeliveryRecord:
    """A delivered message: the send plus the receiving node and time."""

    send: SendRecord
    receiver_node: BasicNode
    delivery_time: int

    @property
    def sender_node(self) -> BasicNode:
        return self.send.sender_node

    @property
    def sender(self) -> Process:
        return self.send.sender

    @property
    def destination(self) -> Process:
        return self.send.destination

    @property
    def send_time(self) -> int:
        return self.send.send_time

    @property
    def delay(self) -> int:
        return self.delivery_time - self.send.send_time


@dataclass(frozen=True)
class ExternalDeliveryRecord:
    """A spontaneous external message delivered to ``process`` at ``time``."""

    external: ExternalInput
    receiver_node: BasicNode

    @property
    def process(self) -> Process:
        return self.external.process

    @property
    def time(self) -> int:
        return self.external.time

    @property
    def tag(self) -> str:
        return self.external.tag


@dataclass(frozen=True)
class ActionRecord:
    """A local action performed at a node."""

    process: Process
    action: str
    node: BasicNode
    time: int


class _RunEncoder:
    """Encodes the history/message DAG of a run into flat, shared tables.

    Histories embed messages which embed earlier histories; naive recursive
    serialisation would duplicate every shared sub-history exponentially.
    The encoder assigns each distinct :class:`History` and :class:`Message`
    one integer id, so the emitted tables grow linearly with the run and the
    deep structure is reconstructed by reference.  Entries are appended in
    dependency order (children first), though the decoder resolves references
    lazily and does not rely on it.

    The id tables are keyed by the values themselves, which are hash-consed
    (:mod:`repro.simulation.interning`): their hashes are cached at
    construction and ``__eq__`` degrades to ``is`` within a pool, so each
    table lookup is an O(1) intern-id probe that never touches the deep
    structure.  Keying by equality (not raw ``id()``) keeps the emitted
    tables canonical even for runs that mix structurally equal values from
    different pools.
    """

    def __init__(self) -> None:
        self.histories: List[Any] = []
        self.messages: List[Any] = []
        self._history_ids: Dict[History, int] = {}
        self._message_ids: Dict[Message, int] = {}

    def history_id(self, history: History) -> int:
        existing = self._history_ids.get(history)
        if existing is not None:
            return existing
        steps = [
            [self._observation(observation) for observation in step]
            for step in history.steps
        ]
        index = len(self.histories)
        self.histories.append([history.process, steps])
        self._history_ids[history] = index
        return index

    def message_id(self, message: Message) -> int:
        existing = self._message_ids.get(message)
        if existing is not None:
            return existing
        payload = [
            message.sender,
            list(message.recipients),
            self.history_id(message.sender_history),
            message.payload,
        ]
        index = len(self.messages)
        self.messages.append(payload)
        self._message_ids[message] = index
        return index

    def node_id(self, node: BasicNode) -> int:
        """A basic node is ``(process, history)`` with the process implied."""
        return self.history_id(node.history)

    def send(self, record: SendRecord) -> List[Any]:
        return [
            self.message_id(record.message),
            self.node_id(record.sender_node),
            record.destination,
            record.send_time,
        ]

    def _observation(self, observation: Observation) -> List[Any]:
        if isinstance(observation, ExternalReceipt):
            return ["ext", observation.tag]
        if isinstance(observation, LocalAction):
            return ["act", observation.name]
        if isinstance(observation, MessageReceipt):
            return ["recv", self.message_id(observation.message)]
        raise RunError(f"cannot serialise observation {observation!r}")


class _RunDecoder:
    """Lazily rebuilds histories and messages from the encoder's tables."""

    def __init__(self, histories: Sequence[Any], messages: Sequence[Any]) -> None:
        self._histories = histories
        self._messages = messages
        self._history_cache: Dict[int, History] = {}
        self._message_cache: Dict[int, Message] = {}

    @staticmethod
    def _entry(table: Sequence[Any], index: int, kind: str) -> Any:
        """Table lookup that treats negative ids as corruption, not wraparound."""
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise RunFormatError(f"bad {kind} reference {index!r}")
        try:
            return table[index]
        except IndexError:
            raise RunFormatError(f"dangling {kind} reference {index}") from None

    def history(self, index: int) -> History:
        cached = self._history_cache.get(index)
        if cached is not None:
            return cached
        try:
            process, steps = self._entry(self._histories, index, "history")
        except (TypeError, ValueError) as exc:
            raise RunFormatError(f"bad history entry at index {index}") from exc
        value = History(
            process,
            tuple(tuple(self._observation(entry) for entry in step) for step in steps),
        )
        self._history_cache[index] = value
        return value

    def message(self, index: int) -> Message:
        cached = self._message_cache.get(index)
        if cached is not None:
            return cached
        try:
            sender, recipients, history_id, payload = self._entry(
                self._messages, index, "message"
            )
        except (TypeError, ValueError) as exc:
            raise RunFormatError(f"bad message entry at index {index}") from exc
        value = Message(sender, tuple(recipients), self.history(history_id), payload)
        self._message_cache[index] = value
        return value

    def node(self, index: int) -> BasicNode:
        history = self.history(index)
        return BasicNode(history.process, history)

    def send(self, entry: Sequence[Any]) -> SendRecord:
        try:
            message_id, node_id, destination, send_time = entry
        except (TypeError, ValueError) as exc:
            raise RunFormatError(f"bad send entry {entry!r}") from exc
        return SendRecord(
            message=self.message(message_id),
            sender_node=self.node(node_id),
            destination=destination,
            send_time=int(send_time),
        )

    def _observation(self, entry: Sequence[Any]) -> Observation:
        try:
            kind, value = entry
        except (TypeError, ValueError) as exc:
            raise RunFormatError(f"bad observation entry {entry!r}") from exc
        if kind == "ext":
            return ExternalReceipt(value)
        if kind == "act":
            return LocalAction(value)
        if kind == "recv":
            return MessageReceipt(self.message(value))
        raise RunFormatError(f"unknown observation kind {kind!r}")


@dataclass(eq=False)
class Run:
    """A finite execution prefix of a protocol in a bounded context."""

    context: Context
    horizon: int
    timelines: Mapping[Process, Tuple[Tuple[int, BasicNode], ...]]
    sends: Tuple[SendRecord, ...]
    deliveries: Tuple[DeliveryRecord, ...]
    external_deliveries: Tuple[ExternalDeliveryRecord, ...]
    pending: Tuple[SendRecord, ...] = ()

    # Derived indexes, built lazily.
    _times: Optional[Dict[BasicNode, int]] = field(default=None, repr=False)
    _delivery_index: Optional[Dict[Tuple[BasicNode, Process], DeliveryRecord]] = field(
        default=None, repr=False
    )
    _send_index: Optional[Dict[Tuple[BasicNode, Process], SendRecord]] = field(
        default=None, repr=False
    )
    _actions: Optional[Tuple[ActionRecord, ...]] = field(default=None, repr=False)
    _bounds_graph: Optional["WeightedGraph[BasicNode]"] = field(default=None, repr=False)

    # Runs are mutable containers (lazy indexes), so they stay unhashable.
    __hash__ = None

    def __eq__(self, other: object) -> bool:
        """Semantic equality over the recorded execution.

        Compares the execution itself (context, horizon, timelines, and the
        send/delivery/external/pending records) and ignores the lazily built
        derived indexes -- the generated dataclass ``__eq__`` compared those
        too, so two equal runs could compare unequal depending on which
        queries had been issued, on top of re-walking the deep history DAG.
        All leaf values are hash-consed, so the record comparisons degrade to
        pointer checks and whole-run equality is linear in the number of
        records (well under a second even on the large flooding scenarios).
        """
        if self is other:
            return True
        if not isinstance(other, Run):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and self.context == other.context
            and self.timelines == other.timelines
            and self.sends == other.sends
            and self.deliveries == other.deliveries
            and self.external_deliveries == other.external_deliveries
            and self.pending == other.pending
        )

    # -- derived indexes -----------------------------------------------------

    @property
    def timed_network(self) -> TimedNetwork:
        return self.context.timed_network

    @property
    def processes(self) -> Tuple[Process, ...]:
        return self.timed_network.processes

    def _time_index(self) -> Dict[BasicNode, int]:
        if self._times is None:
            times: Dict[BasicNode, int] = {}
            for process, timeline in self.timelines.items():
                for time, node in timeline:
                    times[node] = time
            self._times = times
        return self._times

    def _deliveries_by_send(self) -> Dict[Tuple[BasicNode, Process], DeliveryRecord]:
        if self._delivery_index is None:
            self._delivery_index = {
                (record.sender_node, record.destination): record
                for record in self.deliveries
            }
        return self._delivery_index

    def _sends_by_node(self) -> Dict[Tuple[BasicNode, Process], SendRecord]:
        if self._send_index is None:
            self._send_index = {
                (record.sender_node, record.destination): record for record in self.sends
            }
        return self._send_index

    # -- node queries ----------------------------------------------------------

    def nodes(self) -> Iterator[BasicNode]:
        """All basic nodes appearing in the run (per process, in timeline order)."""
        for process in self.processes:
            for _, node in self.timelines[process]:
                yield node

    def nodes_of(self, process: Process) -> Tuple[BasicNode, ...]:
        return tuple(node for _, node in self.timelines[process])

    def appears(self, node: BasicNode) -> bool:
        return node in self._time_index()

    def time_of(self, node: BasicNode) -> int:
        """``time_r(sigma)``: the first time at which the node's local state holds."""
        try:
            return self._time_index()[node]
        except KeyError:
            raise RunError(f"node {node.describe()} does not appear in this run") from None

    def node_at(self, process: Process, time: int) -> BasicNode:
        """The basic node of ``process`` whose local state holds at ``time``."""
        if time < 0 or time > self.horizon:
            raise RunError(f"time {time} outside run horizon [0, {self.horizon}]")
        timeline = self.timelines[process]
        current = timeline[0][1]
        for node_time, node in timeline:
            if node_time <= time:
                current = node
            else:
                break
        return current

    def final_node(self, process: Process) -> BasicNode:
        return self.timelines[process][-1][1]

    def initial_node(self, process: Process) -> BasicNode:
        return self.timelines[process][0][1]

    def successor(self, node: BasicNode) -> Optional[BasicNode]:
        """The next node on the same timeline, or ``None`` if it is the last."""
        timeline = self.timelines[node.process]
        for index, (_, candidate) in enumerate(timeline):
            if candidate == node:
                if index + 1 < len(timeline):
                    return timeline[index + 1][1]
                return None
        raise RunError(f"node {node.describe()} does not appear in this run")

    def predecessor(self, node: BasicNode) -> Optional[BasicNode]:
        """The previous node on the same timeline, or ``None`` for the initial node."""
        if not self.appears(node):
            raise RunError(f"node {node.describe()} does not appear in this run")
        return node.predecessor()

    # -- message queries -----------------------------------------------------

    def delivery_of(self, sender_node: BasicNode, destination: Process) -> Optional[DeliveryRecord]:
        """The delivery of the message sent at ``sender_node`` to ``destination``, if any."""
        return self._deliveries_by_send().get((sender_node, destination))

    def send_of(self, sender_node: BasicNode, destination: Process) -> Optional[SendRecord]:
        return self._sends_by_node().get((sender_node, destination))

    def deliveries_to(self, process: Process) -> Tuple[DeliveryRecord, ...]:
        return tuple(d for d in self.deliveries if d.destination == process)

    def deliveries_at(self, node: BasicNode) -> Tuple[DeliveryRecord, ...]:
        """The deliveries whose receipt created ``node``."""
        return tuple(d for d in self.deliveries if d.receiver_node == node)

    # -- general nodes ---------------------------------------------------------

    def resolve(self, theta: GeneralNode) -> Optional[BasicNode]:
        """``basic(theta, r)`` (Definition 4), or ``None`` if the chain is unresolved.

        The chain is unresolved when the base node does not appear in the run,
        when some process along the path was never sent the chain message, or
        when a chain message is still pending at the horizon.
        """
        current = theta.base
        if not self.appears(current):
            return None
        for hop in theta.path[1:]:
            delivery = self.delivery_of(current, hop)
            if delivery is None:
                return None
            current = delivery.receiver_node
        return current

    def time_of_general(self, theta: GeneralNode) -> int:
        """``time_r(theta)``: the time of the corresponding basic node."""
        resolved = self.resolve(theta)
        if resolved is None:
            raise RunError(f"general node {theta.describe()} does not appear in this run")
        return self.time_of(resolved)

    def general_appears(self, theta: GeneralNode) -> bool:
        return self.resolve(theta) is not None

    # -- causality --------------------------------------------------------------

    def past(self, node: BasicNode) -> frozenset:
        """``past(r, sigma)``: all basic nodes that happen-before ``node``."""
        from ..core.causality import past_nodes

        if not self.appears(node):
            raise RunError(f"node {node.describe()} does not appear in this run")
        return past_nodes(node)

    def happens_before(self, earlier: BasicNode, later: BasicNode) -> bool:
        """Lamport's happens-before over basic nodes of this run (Definition 2)."""
        from ..core.causality import happens_before

        return happens_before(earlier, later)

    def bounds_graph(self) -> "WeightedGraph[BasicNode]":
        """``GB(r)`` (Definition 8), built once per run; callers must not mutate it.

        Every reader of the run's bounds graph shares this one graph (and its
        memoizing longest-path engine).  The builder is looked up at call
        time, so a wrapper installed on
        :func:`repro.core.bounds_graph.basic_bounds_graph` sees each build.
        """
        if self._bounds_graph is None:
            from ..core import bounds_graph

            self._bounds_graph = bounds_graph.basic_bounds_graph(self)
        return self._bounds_graph

    # -- external inputs and actions -----------------------------------------------

    def external_node(self, tag: str, process: Optional[Process] = None) -> Optional[BasicNode]:
        """The node of the first external delivery tagged ``tag`` (to ``process``
        if given), or ``None``; e.g. the go node ``sigma_C`` for ``mu_go``."""
        for record in self.external_deliveries:
            if record.tag == tag and (process is None or record.process == process):
                return record.receiver_node
        return None

    def actions(self) -> Tuple[ActionRecord, ...]:
        """All local actions performed in the run, with their nodes and times.

        Built once per run; every later call returns the same tuple.
        """
        if self._actions is None:
            records: List[ActionRecord] = []
            for process in self.processes:
                for time, node in self.timelines[process]:
                    if node.is_initial:
                        continue
                    for observation in node.history.last_step:
                        if isinstance(observation, LocalAction):
                            records.append(ActionRecord(process, observation.name, node, time))
            self._actions = tuple(records)
        return self._actions

    def find_action(self, process: Process, action: str) -> Optional[ActionRecord]:
        """The first occurrence of ``action`` at ``process``, or ``None``."""
        for record in self.actions():
            if record.process == process and record.action == action:
                return record
        return None

    def action_time(self, process: Process, action: str) -> Optional[int]:
        record = self.find_action(process, action)
        return None if record is None else record.time

    # -- validation ---------------------------------------------------------------

    def validate(self, require_forced_delivery: bool = True) -> None:
        """Check that this execution is legal for the bcm model.

        * every delivered message respects its channel's ``[L, U]`` window;
        * every pending message's forced-delivery deadline lies beyond the
          horizon (unless ``require_forced_delivery`` is False);
        * timelines start at time 0 with the initial node and are strictly
          increasing in time, with each node extending its predecessor by one
          step;
        * every non-initial node's step contains at least one receipt
          (processes act only when scheduled by a delivery).
        """
        bounds = self.timed_network
        for record in self.deliveries:
            lower = bounds.L(record.sender, record.destination)
            upper = bounds.U(record.sender, record.destination)
            if not lower <= record.delay <= upper:
                raise RunValidationError(
                    f"delivery on channel ({record.sender}, {record.destination}) "
                    f"took {record.delay} time units, outside [{lower}, {upper}]"
                )
        if require_forced_delivery:
            for record in self.pending:
                deadline = record.send_time + bounds.U(record.sender, record.destination)
                if deadline <= self.horizon:
                    raise RunValidationError(
                        f"message from {record.sender} to {record.destination} sent at "
                        f"{record.send_time} should have been delivered by {deadline} "
                        f"but is still pending at horizon {self.horizon}"
                    )
        for process in self.processes:
            timeline = self.timelines[process]
            if not timeline:
                raise RunValidationError(f"process {process} has an empty timeline")
            first_time, first_node = timeline[0]
            if first_time != 0 or not first_node.is_initial:
                raise RunValidationError(
                    f"process {process} must start at time 0 in its initial node"
                )
            for (prev_time, prev_node), (time, node) in zip(timeline, timeline[1:]):
                if time <= prev_time:
                    raise RunValidationError(
                        f"process {process} timeline times must be strictly increasing"
                    )
                if node.predecessor() != prev_node:
                    raise RunValidationError(
                        f"process {process} node at time {time} does not extend its "
                        "predecessor by exactly one step"
                    )
                has_receipt = any(
                    not isinstance(obs, LocalAction) for obs in node.history.last_step
                )
                if not has_receipt:
                    raise RunValidationError(
                        f"process {process} took a step at time {time} without receiving "
                        "any message (processes are event-driven)"
                    )

    # -- serialisation ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable, lossless snapshot of this run.

        Histories and messages are emitted once each into shared tables (the
        payload DAG is heavily shared between nodes), so the output size is
        linear in the run.  :meth:`from_dict` inverts the encoding exactly:
        timelines, send/delivery/external records, pending messages, horizon
        and the timed network all round-trip.
        """
        encoder = _RunEncoder()

        send_table: List[SendRecord] = []
        send_indexes: Dict[SendRecord, int] = {}

        def send_index(record: SendRecord) -> int:
            index = send_indexes.get(record)
            if index is None:
                index = len(send_table)
                send_table.append(record)
                send_indexes[record] = index
            return index

        sends = [send_index(record) for record in self.sends]
        deliveries = [
            [
                send_index(record.send),
                encoder.node_id(record.receiver_node),
                record.delivery_time,
            ]
            for record in self.deliveries
        ]
        pending = [send_index(record) for record in self.pending]
        externals = [
            [
                record.external.time,
                record.external.process,
                record.external.tag,
                encoder.node_id(record.receiver_node),
            ]
            for record in self.external_deliveries
        ]
        # Emit timelines in network process order so the encoding is canonical
        # (independent of the timeline mapping's insertion order).
        ordered = [p for p in self.processes if p in self.timelines]
        ordered += [p for p in self.timelines if p not in set(ordered)]
        timelines = {
            process: [[time, encoder.node_id(node)] for time, node in self.timelines[process]]
            for process in ordered
        }
        net = self.timed_network
        return {
            "format": RUN_FORMAT_VERSION,
            "horizon": self.horizon,
            "context": {
                "description": self.context.description,
                "processes": list(net.processes),
                "channels": [
                    [i, j, net.L(i, j), net.U(i, j)] for i, j in net.channels
                ],
            },
            "histories": encoder.histories,
            "messages": encoder.messages,
            "send_table": [encoder.send(record) for record in send_table],
            "timelines": timelines,
            "sends": sends,
            "deliveries": deliveries,
            "external_deliveries": externals,
            "pending": pending,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Run":
        """Rebuild a :class:`Run` from :meth:`to_dict` output (or parsed JSON)."""
        if not isinstance(data, Mapping):
            raise RunFormatError(f"expected a mapping, got {type(data).__name__}")
        version = data.get("format")
        if version != RUN_FORMAT_VERSION:
            raise RunFormatError(
                f"unsupported run format {version!r}; expected {RUN_FORMAT_VERSION}"
            )
        try:
            context_data = data["context"]
            channels = {
                (i, j): (lower, upper)
                for i, j, lower, upper in context_data["channels"]
            }
            net = timed_network(channels, processes=context_data["processes"])
            context = Context(net, description=context_data.get("description", ""))
            decoder = _RunDecoder(data["histories"], data["messages"])
            send_table = tuple(decoder.send(entry) for entry in data["send_table"])

            def send_entry(index: Any) -> SendRecord:
                return _RunDecoder._entry(send_table, index, "send")

            sends = tuple(send_entry(index) for index in data["sends"])
            deliveries = tuple(
                DeliveryRecord(
                    send=send_entry(send_id),
                    receiver_node=decoder.node(node_id),
                    delivery_time=int(delivery_time),
                )
                for send_id, node_id, delivery_time in data["deliveries"]
            )
            externals = tuple(
                ExternalDeliveryRecord(
                    external=ExternalInput(int(time), process, tag),
                    receiver_node=decoder.node(node_id),
                )
                for time, process, tag, node_id in data["external_deliveries"]
            )
            raw_timelines = data["timelines"]
            ordered = [p for p in net.processes if p in raw_timelines]
            ordered += [p for p in raw_timelines if p not in set(ordered)]
            timelines = {
                process: tuple(
                    (int(time), decoder.node(node_id))
                    for time, node_id in raw_timelines[process]
                )
                for process in ordered
            }
            pending = tuple(send_entry(index) for index in data["pending"])
            horizon = int(data["horizon"])
        except RunFormatError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise RunFormatError(f"malformed run payload: {exc}") from exc
        except RecursionError:
            raise RunFormatError(
                "malformed run payload: cyclic history/message references"
            ) from None
        return cls(
            context=context,
            horizon=horizon,
            timelines=timelines,
            sends=sends,
            deliveries=deliveries,
            external_deliveries=externals,
            pending=pending,
        )

    # -- convenience --------------------------------------------------------------

    def describe(self) -> str:
        lines = [f"Run(horizon={self.horizon})"]
        for process in self.processes:
            entries = ", ".join(
                f"t={time}:{node.describe()}" for time, node in self.timelines[process]
            )
            lines.append(f"  {process}: {entries}")
        lines.append(f"  deliveries: {len(self.deliveries)}, pending: {len(self.pending)}")
        return "\n".join(lines)
