"""Exhaustive enumeration of the legal runs of a small context.

The bcm environment is nondeterministic: each message may be delivered at any
time inside its channel window.  For *small* networks and horizons it is
feasible to enumerate every legal schedule, which gives a ground-truth oracle
against which the analytical machinery (bounds graphs, knowledge, optimal
protocols) is validated in the test suite:

* Theorem 1 is checked by confirming that a zigzag's weight lower-bounds the
  head/tail gap in *every* enumerated run containing the pattern;
* Theorem 4 is checked by comparing the knowledge computed from the extended
  bounds graph with the minimum gap over all enumerated runs that are
  indistinguishable at the observing node.

The enumeration is the simulator's own :func:`~repro.simulation.engine.step`
plus an ``itertools.product`` over the legal delivery times of the messages
each step sends, so it cannot drift from the runs :class:`Simulator` builds.
All delivery times past the horizon collapse into one choice, ``horizon + 1``:
the message stays in transit and the finished run records it as pending, in
send order, exactly as a simulated run does.  This keeps the enumeration
finite and free of duplicate prefixes.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Tuple

from ..core.nodes import BasicNode
from .context import Context, ExternalInput, schedule
from .engine import ProtocolsLike, RunState, _normalise_protocols, externals_by_time, step
from .network import Process
from .runs import Run


def enumerate_runs(
    context: Context,
    protocols: ProtocolsLike = None,
    external_inputs: Iterable[ExternalInput | Tuple[int, Process, str]] = (),
    horizon: int = 10,
    max_runs: Optional[int] = None,
) -> Iterator[Run]:
    """Yield every legal run of ``protocols`` in ``context`` up to ``horizon``.

    The number of runs is exponential in the number of messages; keep networks
    tiny (2--4 processes) and horizons short (<= ~10) or pass ``max_runs``.
    """
    assignment = _normalise_protocols(protocols)
    net = context.timed_network
    by_time = externals_by_time(schedule(external_inputs), net)
    beyond = horizon + 1  # the one delivery time that stands for "still pending"
    produced = 0

    def expand(state: RunState, now: int) -> Iterator[Run]:
        """Every run extending ``state``, which this call owns and advances."""
        nonlocal produced
        if max_runs is not None and produced >= max_runs:
            return
        if now > horizon:
            produced += 1
            yield state.finish(context, horizon)
            return
        new_sends = step(state, now, net, assignment, by_time)
        if not new_sends:
            yield from expand(state, now + 1)
            return
        choices = [
            range(
                min(now + net.L(record.sender, record.destination), beyond),
                min(now + net.U(record.sender, record.destination), beyond) + 1,
            )
            for record in new_sends
        ]
        for delivery_times in itertools.product(*choices):
            if max_runs is not None and produced >= max_runs:
                return
            branch = state.copy()
            for record, delivery_time in zip(new_sends, delivery_times):
                branch.deliver_at(record, delivery_time)
            yield from expand(branch, now + 1)

    yield from expand(RunState.initial(net), 1)


def enumerate_indistinguishable_runs(
    context: Context,
    sigma: BasicNode,
    protocols: ProtocolsLike = None,
    external_inputs: Iterable[ExternalInput | Tuple[int, Process, str]] = (),
    horizon: int = 10,
    max_runs: Optional[int] = None,
) -> Iterator[Run]:
    """Yield the enumerated runs in which the basic node ``sigma`` appears.

    These are exactly the runs indistinguishable from the current one at
    ``sigma`` (``r' ~sigma r``), restricted to the given external schedule and
    horizon.
    """
    for run in enumerate_runs(
        context,
        protocols=protocols,
        external_inputs=external_inputs,
        horizon=horizon,
        max_runs=max_runs,
    ):
        if run.appears(sigma):
            yield run
