"""Seeded input generators for the three workloads.

Everything the program under test receives is made here from the workload
seed: the ``repro sweep`` argument lists, the serve store's grid, and the
serve request schedules.  The same seed gives the same inputs.  Sizes are
fixed per workload and the seed varies seed axes (and with them the random
adversary), request order and keys, so run-to-run cost stays comparable
across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List

ADVERSARIES = ("earliest", "latest", "random")

# Per workload: why it exists, its loop, and its input sizes.  Mirrored by the
# one-line ``why`` of each BENCHMARK.json workload.
WORKLOADS: Dict[str, str] = {
    "sweep-flood": (
        "closed loop, 1 sweep client: cold `repro sweep --workers 1` over 60 "
        "torus/grid-flood 4-5x4-5 h16 + random-workload n8,10 cells; "
        "bounds_stats relaxation and duplicate GB(r) builds dominate"
    ),
    "sweep-coord": (
        "closed loop, 1 sweep client: cold `repro sweep --workers 2` (auto "
        "backend) over 108 figure2b/figure4/zigzag-chain cells, num_forks "
        "12-32, knowledge pass; the optimal guard and the executor dominate"
    ),
    "serve-mixed": (
        "closed loop, 1 keep-alive HTTP client on `repro serve` over 10005 "
        "records: blocks of 4 POST /sweeps (306 cells, 6 new), then 6 /report "
        "and 10 /results (1 absent, 404) shuffled"
    ),
}

DEFAULT_ANALYSES = ("summary", "bounds_graph", "bounds_stats", "coordination")

#: The instance seeds (trigger placement, random networks) of sweep-flood.
FLOOD_INSTANCES = (0, 1)


def _analysis_args(names) -> List[str]:
    args: List[str] = []
    for name in names:
        args += ["--analysis", name]
    return args


@dataclass
class SweepInput:
    """The arguments of one sweep workload's ``repro sweep`` commands."""

    name: str
    args: List[str]  # everything after `repro sweep`, without --store
    cells: int
    workers: int


def sweep_input(name: str, seed: int) -> SweepInput:
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep-flood":
        # A cell's cost depends on where its instance seed puts the triggers
        # (and, for random-workload, on its network): drawing those from the
        # workload seed made a sweep's cost differ by 20% between workload
        # seeds.  So two fixed instances per configuration; the workload
        # seed varies the seed axis, and with it the random adversary.
        seeds = [rng.randrange(1_000_000)]
        args = [
            "--scenario", "torus-flood,grid-flood,random-workload",
            "--set", "rows=4,5",
            "--set", "cols=4,5",
            "--set", "horizon=16",
            "--set", "num_processes=8,10",
            "--set", "seed=" + ",".join(map(str, FLOOD_INSTANCES)),
            "--seed-list", ",".join(map(str, seeds)),
            "--workers", "1",
        ]
        # torus/grid: 2 x (2 rows x 2 cols) x 3 adversaries; random-workload:
        # 2 sizes x 3 adversaries; per instance.
        cells = (2 * 4 + 2) * len(ADVERSARIES) * len(FLOOD_INSTANCES)
        return SweepInput(name, args, cells, workers=1)
    if name == "sweep-coord":
        seeds = sorted(rng.sample(range(1_000_000), 2))
        forks = [12, 16, 20, 24, 28, 32]
        args = [
            "--scenario", "figure2b,figure4,zigzag-chain",
            "--set", "num_forks=" + ",".join(map(str, forks)),
            "--seed-list", ",".join(map(str, seeds)),
            "--workers", "2",
            *_analysis_args(DEFAULT_ANALYSES + ("knowledge",)),
        ]
        cells = 3 * len(forks) * len(ADVERSARIES) * len(seeds)
        return SweepInput(name, args, cells, workers=2)
    raise ValueError(f"not a sweep workload: {name!r}")


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

#: Cheap flooding scenarios the serve store is built from (one parameter
#: assignment each; the seed axis makes the cells distinct).  Built in this
#: order, the last scenario's records end in the store's tail, so the large
#: grid below, drawn from two of the first four, always sits in sealed
#: segments.
STORE_SCENARIOS = ("flooding", "line-flood", "ring-flood", "star-flood", "complete-flood")
STORE_SETS = ("num_processes=3", "num_leaves=2", "horizon=6")
STORE_SEEDS = 667  # 5 scenarios x 3 adversaries x 667 seeds = 10005 cells

#: A block of operations: a fixed head, then a shuffled tail.  One client
#: replays a round of blocks.  The writes open a block, so exactly one report per
#: block misses the report cache (a ~1 s recompute over 10^4 records) and the
#: other five are hits, whatever the seed.  A second client reading beside
#: this one made every latency depend on how the two shared the server's
#: interpreter lock: write medians swung 117-211 ms between rounds, against
#: 110-132 ms with one client.  One read in ten asks for a key the store
#: never had, which must 404.
BLOCK = (("write",) * 4, ("report",) * 6 + ("read",) * 9 + ("absent",))
#: Blocks in a round; a round runs on its own server and store copy, whose
#: start and stop cost ~1.3 s outside the timed region.
BLOCKS_PER_ROUND = 2
#: A write POSTs a large finished grid (2 scenarios x 3 adversaries x 50
#: stored seeds) extended by one seed the store has never seen, so every
#: write both scans 300 cached cells and executes 6 new ones.
LARGE_GRID_SEEDS = 50


@dataclass
class Op:
    kind: str  # "read" | "report" | "write"
    key: str = ""  # read: the record key asked for
    absent: bool = False  # read: a key the store never had
    spec: Dict[str, Any] = field(default_factory=dict)  # write: the POST body
    new_cells: int = 0  # write: cells the POST adds to the store


@dataclass
class ServeInput:
    store_args: List[str]  # `repro sweep` args that build the store, without --store
    store_cells: int
    large_grid: Dict[str, Any]  # stored cells every write re-submits
    seed: int

    def schedule(self, keys: List[str]) -> List[Op]:
        """One round's operations: :data:`BLOCKS_PER_ROUND` blocks, each
        :data:`BLOCK` with its tail shuffled.

        ``keys`` are the store's cell keys (read targets).  The mix is exact
        in every round and the same seed gives the same schedule.
        """
        rng = random.Random(f"serve-mixed:{self.seed}")
        head, tail = BLOCK
        kinds: List[str] = []
        for _ in range(BLOCKS_PER_ROUND):
            shuffled = list(tail)
            rng.shuffle(shuffled)
            kinds += [*head, *shuffled]
        ops: List[Op] = []
        writes = 0
        for kind in kinds:
            if kind == "absent":
                ops.append(Op("read", key="%064x" % rng.getrandbits(256), absent=True))
            elif kind == "read":
                ops.append(Op("read", key=rng.choice(keys)))
            elif kind == "report":
                ops.append(Op("report"))
            else:
                grid = self.large_grid
                spec = {**grid, "seeds": grid["seeds"] + [_new_grid_base(self.seed) + writes]}
                new_cells = len(grid["scenarios"]) * len(ADVERSARIES)
                ops.append(Op("write", spec=spec, new_cells=new_cells))
                writes += 1
        return ops


def _store_seed_base(seed: int) -> int:
    return 1000 * (seed % 100_000)


def _new_grid_base(seed: int) -> int:
    # Disjoint from every store seed (< 10^8).
    return 10**9 + (seed % 1000) * 10**6


def serve_input(seed: int) -> ServeInput:
    base = _store_seed_base(seed)
    seeds = list(range(base, base + STORE_SEEDS))
    store_args = [
        "--scenario", ",".join(STORE_SCENARIOS),
        *[arg for item in STORE_SETS for arg in ("--set", item)],
        "--seed-list", ",".join(map(str, seeds)),
    ]
    rng = random.Random(f"serve-mixed:{seed}:grid")
    start = rng.randrange(0, STORE_SEEDS - LARGE_GRID_SEEDS)
    large_grid = {
        "scenarios": ["line-flood", "ring-flood"],
        "params": {"num_processes": [3], "horizon": [6]},
        "seeds": seeds[start : start + LARGE_GRID_SEEDS],
    }
    return ServeInput(
        store_args=store_args,
        store_cells=len(STORE_SCENARIOS) * len(ADVERSARIES) * STORE_SEEDS,
        large_grid=large_grid,
        seed=seed,
    )


def store_keys(serve: ServeInput) -> List[str]:
    """The cell keys of the serve store, expanded exactly as the CLI does."""
    from repro.experiments.runner import expand_grid

    grid: Dict[str, List[Any]] = {}
    for item in STORE_SETS:
        name, _, value = item.partition("=")
        grid[name] = [int(value)]
    seeds = [int(s) for s in serve.store_args[serve.store_args.index("--seed-list") + 1].split(",")]
    cells = expand_grid(list(STORE_SCENARIOS), adversaries=ADVERSARIES, seeds=seeds, param_grid=grid)
    return [cell.key() for cell in cells]

