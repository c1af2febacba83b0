"""Randomised networks and workloads for property tests and validation benches.

All generators are seeded and deterministic: the same seed always yields the
same network, schedule and scenario, which keeps hypothesis shrinking and the
benchmark harness reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..simulation.context import ExternalInput
from ..simulation.delivery import SeededRandomDelivery
from ..simulation.messages import GO_TRIGGER
from ..simulation.network import TimedNetwork, timed_network
from ..simulation.protocols import (
    ProtocolAssignment,
    actor_protocol,
    go_sender_protocol,
    relayed_actor_protocol,
)
from .base import ParamSpec, Scenario, register_scenario


def random_timed_network(
    num_processes: int,
    seed: int = 0,
    edge_probability: float = 0.5,
    lower_range: Tuple[int, int] = (1, 4),
    upper_slack: Tuple[int, int] = (0, 5),
    ensure_strongly_connected: bool = True,
) -> TimedNetwork:
    """A random directed network with random per-channel bounds.

    A directed ring over all processes is always included when
    ``ensure_strongly_connected`` is true, so floods eventually reach
    everybody; additional channels are added independently with
    ``edge_probability``.  Each channel gets ``L`` uniform in ``lower_range``
    and ``U = L + slack`` with slack uniform in ``upper_slack``.
    """
    if num_processes < 2:
        raise ValueError("need at least two processes")
    rng = random.Random(seed)
    processes = [f"p{i}" for i in range(num_processes)]
    channels: Dict[Tuple[str, str], Tuple[int, int]] = {}

    def add_channel(src: str, dst: str) -> None:
        lower = rng.randint(*lower_range)
        upper = lower + rng.randint(*upper_slack)
        channels[(src, dst)] = (lower, upper)

    if ensure_strongly_connected:
        for index in range(num_processes):
            add_channel(processes[index], processes[(index + 1) % num_processes])
    for src in processes:
        for dst in processes:
            if src == dst or (src, dst) in channels:
                continue
            if rng.random() < edge_probability:
                add_channel(src, dst)
    return timed_network(channels, processes=processes)


def random_external_schedule(
    net: TimedNetwork,
    seed: int = 0,
    num_inputs: int = 2,
    latest_time: int = 6,
    tag_prefix: str = "mu_rand",
) -> List[ExternalInput]:
    """A random schedule of distinct external triggers.

    The first trigger is always ``mu_go``; later ones are tagged
    ``{tag_prefix}_{index}`` so callers (random nets, topology sweeps) can
    keep their trigger families distinguishable.
    """
    rng = random.Random(seed + 1)
    inputs: List[ExternalInput] = []
    for index in range(num_inputs):
        process = rng.choice(net.processes)
        time = rng.randint(1, max(1, latest_time))
        tag = GO_TRIGGER if index == 0 else f"{tag_prefix}_{index}"
        inputs.append(ExternalInput(time, process, tag))
    return inputs


@dataclass(frozen=True)
class RandomWorkload:
    """A random coordination workload: network, roles, schedule and delivery seed."""

    net: TimedNetwork
    go_sender: str
    actor_a: str
    actor_b: str
    externals: Tuple[ExternalInput, ...]
    seed: int


def random_workload(
    num_processes: int = 5,
    seed: int = 0,
    edge_probability: float = 0.5,
    go_time: int = 2,
    extra_triggers: int = 1,
) -> RandomWorkload:
    """A random network plus a random assignment of the A/B/C roles.

    The go sender C must have a channel to A (A acts on C's direct message),
    so the roles are drawn until that holds (always possible because the
    network contains a ring).
    """
    net = random_timed_network(num_processes, seed=seed, edge_probability=edge_probability)
    rng = random.Random(seed + 17)
    processes = list(net.processes)
    while True:
        go_sender, actor_a, actor_b = rng.sample(processes, 3)
        if net.is_path((go_sender, actor_a)):
            break
    externals = [ExternalInput(go_time, go_sender, GO_TRIGGER)]
    for index in range(1, extra_triggers + 1):
        process = rng.choice(processes)
        externals.append(
            ExternalInput(go_time + rng.randint(0, 5), process, f"mu_rand_{index}")
        )
    return RandomWorkload(
        net=net,
        go_sender=go_sender,
        actor_a=actor_a,
        actor_b=actor_b,
        externals=tuple(externals),
        seed=seed,
    )


def workload_scenario(
    workload: RandomWorkload,
    b_protocol=None,
    horizon: int = 25,
) -> Scenario:
    """Wrap a random workload as a runnable scenario (B's protocol pluggable)."""
    protocols = ProtocolAssignment()
    protocols.assign(workload.go_sender, go_sender_protocol())
    protocols.assign(workload.actor_a, actor_protocol("a", workload.go_sender))
    if b_protocol is not None:
        protocols.assign(workload.actor_b, b_protocol)
    return Scenario(
        name=f"random-workload-{workload.seed}",
        timed_network=workload.net,
        protocols=protocols,
        external_inputs=list(workload.externals),
        delivery=SeededRandomDelivery(seed=workload.seed),
        horizon=horizon,
        description="Randomised coordination workload",
    )


@register_scenario(
    "flooding",
    params=[
        ParamSpec("num_processes", int, 4, "number of processes"),
        ParamSpec("seed", int, 0, "seed for the network, schedule and delivery"),
        ParamSpec("horizon", int, 15, "simulated horizon"),
        ParamSpec("edge_probability", float, 0.5, "extra-channel probability"),
        ParamSpec("num_inputs", int, 2, "number of external triggers"),
    ],
    description="Plain FFIP flooding on a seeded random network",
    tags=("random", "flooding"),
)
def flooding_scenario(
    num_processes: int = 4,
    seed: int = 0,
    horizon: int = 15,
    edge_probability: float = 0.5,
    num_inputs: int = 2,
) -> Scenario:
    """A plain flooding run on a random network (no coordination roles).

    Used by property tests that only need "some realistic run" to examine:
    bounds-graph invariants, causality properties, knowledge soundness, etc.
    """
    net = random_timed_network(num_processes, seed=seed, edge_probability=edge_probability)
    externals = random_external_schedule(net, seed=seed, num_inputs=num_inputs)
    return Scenario(
        name=f"flooding-{num_processes}-{seed}",
        timed_network=net,
        protocols=ProtocolAssignment(),
        external_inputs=externals,
        delivery=SeededRandomDelivery(seed=seed),
        horizon=horizon,
        description="Plain FFIP flooding on a random network",
    )


@register_scenario(
    "random-workload",
    params=[
        ParamSpec("num_processes", int, 5, "number of processes"),
        ParamSpec("seed", int, 0, "seed for the network, roles and delivery"),
        ParamSpec("edge_probability", float, 0.5, "extra-channel probability"),
        ParamSpec("go_time", int, 2, "time at which C receives mu_go"),
        ParamSpec("horizon", int, 25, "simulated horizon"),
    ],
    description="Seeded random network with random A/B/C coordination roles",
    tags=("random", "coordination"),
)
def random_coordination_scenario(
    num_processes: int = 5,
    seed: int = 0,
    edge_probability: float = 0.5,
    go_time: int = 2,
    horizon: int = 25,
) -> Scenario:
    """A random coordination workload as a registry-addressable scenario.

    Bundles :func:`random_workload` and :func:`workload_scenario` so sweeps
    can draw randomized coordination instances by seed alone.  B runs the
    naive "act on first message from the go sender" rule so that every
    adversary produces observable (and comparable) ``a``/``b`` timings.
    """
    workload = random_workload(
        num_processes=num_processes,
        seed=seed,
        edge_probability=edge_probability,
        go_time=go_time,
    )
    b_protocol = relayed_actor_protocol("b", workload.go_sender)
    return workload_scenario(workload, b_protocol=b_protocol, horizon=horizon)
