"""Sweepable flooding scenarios over families of structured topologies.

Conclusions about timing/coordination bounds only become trustworthy when
swept across *families* of topologies and randomized instances, so every
structured topology builder of :mod:`repro.simulation.network` (line, ring,
star, complete graph, grid, torus, tree) is exposed here as a registered,
seeded scenario.  Each instance floods full-information messages from a
seeded choice of trigger processes, which gives the analysis passes (bounds
graphs, knowledge, theorem checks) realistic runs whose shape is controlled
by a handful of integer parameters — exactly what the sweep runner needs.
"""

from __future__ import annotations

from ..simulation.delivery import SeededRandomDelivery
from ..simulation.network import (
    TimedNetwork,
    fully_connected,
    grid,
    line,
    ring,
    star,
    torus,
    tree,
)
from ..simulation.protocols import ProtocolAssignment
from .base import ParamSpec, Scenario, register_scenario
from .random_nets import random_external_schedule

#: Parameters shared by every topology-flooding scenario.
_COMMON_PARAMS = (
    ParamSpec("lower", int, 1, "uniform per-channel lower bound L"),
    ParamSpec("upper", int, 2, "uniform per-channel upper bound U"),
    ParamSpec("seed", int, 0, "seed for trigger placement and delivery"),
    ParamSpec("num_inputs", int, 2, "number of external triggers"),
    ParamSpec("horizon", int, 12, "simulated horizon"),
)


def _flood_scenario(
    name: str,
    net: TimedNetwork,
    seed: int,
    num_inputs: int,
    horizon: int,
    description: str,
) -> Scenario:
    externals = random_external_schedule(
        net, seed=seed, num_inputs=max(1, num_inputs), latest_time=5,
        tag_prefix="mu_topo",
    )
    return Scenario(
        name=name,
        timed_network=net,
        protocols=ProtocolAssignment(),
        external_inputs=externals,
        delivery=SeededRandomDelivery(seed=seed),
        horizon=horizon,
        description=description,
    )


@register_scenario(
    "line-flood",
    params=[
        ParamSpec("num_processes", int, 4, "processes on the line"),
        *_COMMON_PARAMS,
    ],
    description="FFIP flooding on a bidirectional line",
    tags=("topology", "flooding"),
)
def line_flooding_scenario(
    num_processes: int = 4,
    lower: int = 1,
    upper: int = 2,
    seed: int = 0,
    num_inputs: int = 2,
    horizon: int = 12,
) -> Scenario:
    net = line([f"p{i}" for i in range(num_processes)], lower, upper)
    return _flood_scenario(
        f"line-flood-{num_processes}-{seed}", net, seed, num_inputs, horizon,
        f"Flooding on a {num_processes}-process bidirectional line",
    )


@register_scenario(
    "ring-flood",
    params=[
        ParamSpec("num_processes", int, 5, "processes on the ring"),
        *_COMMON_PARAMS,
    ],
    description="FFIP flooding on a unidirectional ring",
    tags=("topology", "flooding"),
)
def ring_flooding_scenario(
    num_processes: int = 5,
    lower: int = 1,
    upper: int = 2,
    seed: int = 0,
    num_inputs: int = 2,
    horizon: int = 12,
) -> Scenario:
    net = ring([f"p{i}" for i in range(num_processes)], lower, upper)
    return _flood_scenario(
        f"ring-flood-{num_processes}-{seed}", net, seed, num_inputs, horizon,
        f"Flooding on a {num_processes}-process unidirectional ring",
    )


@register_scenario(
    "star-flood",
    params=[
        ParamSpec("num_leaves", int, 4, "leaves around the hub"),
        *_COMMON_PARAMS,
    ],
    description="FFIP flooding on a hub-and-leaves star",
    tags=("topology", "flooding"),
)
def star_flooding_scenario(
    num_leaves: int = 4,
    lower: int = 1,
    upper: int = 2,
    seed: int = 0,
    num_inputs: int = 2,
    horizon: int = 12,
) -> Scenario:
    net = star("hub", [f"leaf{i}" for i in range(num_leaves)], lower, upper)
    return _flood_scenario(
        f"star-flood-{num_leaves}-{seed}", net, seed, num_inputs, horizon,
        f"Flooding on a star with {num_leaves} leaves",
    )


@register_scenario(
    "complete-flood",
    params=[
        ParamSpec("num_processes", int, 4, "processes in the clique"),
        *_COMMON_PARAMS,
    ],
    description="FFIP flooding on a complete directed network",
    tags=("topology", "flooding"),
)
def complete_flooding_scenario(
    num_processes: int = 4,
    lower: int = 1,
    upper: int = 2,
    seed: int = 0,
    num_inputs: int = 2,
    horizon: int = 12,
) -> Scenario:
    net = fully_connected([f"p{i}" for i in range(num_processes)], lower, upper)
    return _flood_scenario(
        f"complete-flood-{num_processes}-{seed}", net, seed, num_inputs, horizon,
        f"Flooding on a complete network of {num_processes} processes",
    )


@register_scenario(
    "grid-flood",
    params=[
        ParamSpec("rows", int, 2, "grid rows"),
        ParamSpec("cols", int, 3, "grid columns"),
        *_COMMON_PARAMS,
    ],
    description="FFIP flooding on a rows x cols mesh",
    tags=("topology", "flooding"),
)
def grid_flooding_scenario(
    rows: int = 2,
    cols: int = 3,
    lower: int = 1,
    upper: int = 2,
    seed: int = 0,
    num_inputs: int = 2,
    horizon: int = 12,
) -> Scenario:
    net = grid(rows, cols, lower, upper)
    return _flood_scenario(
        f"grid-flood-{rows}x{cols}-{seed}", net, seed, num_inputs, horizon,
        f"Flooding on a {rows}x{cols} mesh",
    )


@register_scenario(
    "torus-flood",
    params=[
        ParamSpec("rows", int, 3, "torus rows"),
        ParamSpec("cols", int, 3, "torus columns"),
        *_COMMON_PARAMS,
    ],
    description="FFIP flooding on a rows x cols torus",
    tags=("topology", "flooding"),
)
def torus_flooding_scenario(
    rows: int = 3,
    cols: int = 3,
    lower: int = 1,
    upper: int = 2,
    seed: int = 0,
    num_inputs: int = 2,
    horizon: int = 12,
) -> Scenario:
    net = torus(rows, cols, lower, upper)
    return _flood_scenario(
        f"torus-flood-{rows}x{cols}-{seed}", net, seed, num_inputs, horizon,
        f"Flooding on a {rows}x{cols} torus",
    )


@register_scenario(
    "tree-flood",
    params=[
        ParamSpec("branching", int, 2, "children per node"),
        ParamSpec("depth", int, 2, "tree depth"),
        *_COMMON_PARAMS,
    ],
    description="FFIP flooding on a rooted tree",
    tags=("topology", "flooding"),
)
def tree_flooding_scenario(
    branching: int = 2,
    depth: int = 2,
    lower: int = 1,
    upper: int = 2,
    seed: int = 0,
    num_inputs: int = 2,
    horizon: int = 12,
) -> Scenario:
    net = tree(branching, depth, lower, upper)
    return _flood_scenario(
        f"tree-flood-{branching}x{depth}-{seed}", net, seed, num_inputs, horizon,
        f"Flooding on a depth-{depth} tree with branching {branching}",
    )
