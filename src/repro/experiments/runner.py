"""The sweep runner: grid expansion, cache-aware execution, resumability.

A *sweep* is a grid of cells ``scenario x adversary x seed x params``; each
cell builds a registered scenario, overrides its delivery adversary, runs the
simulation, applies the requested analysis passes, and yields one JSON
record.  Execution is embarrassingly parallel and delegated to a pluggable
backend (:mod:`repro.experiments.executors`), in process or on the worker
fabric.  Every backend runs its cells through the one shard loop
(:func:`~repro.experiments.executors.iter_shard`) over shards cut from the
sorted grid; every cell derives its own deterministic seed from its
identity, so results are independent of backend, worker count, shard
boundaries and execution order.  :func:`run_cell` is the per-cell reference
they all reproduce.  Cells whose run cannot read their seed (seed twins,
:meth:`SweepCell.run_identity`) execute once per sweep.

Cells are content-addressed (see :mod:`repro.experiments.store`): the result
store is the source of truth for completed cells, so cells whose key is
already present are cache hits and are never re-simulated.  That makes
repeated sweeps incremental and killed sweeps resumable —
``run_sweep(resume=True)`` first recovers the store from any torn tail the
crash left behind, then skips exactly the cells that already completed.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs import metrics as _metrics
from ..obs.collect import registry_baseline, registry_delta
from ..obs.metrics import merge_snapshots
from ..obs.trace import dropped_trace_events, span, trace_events, tracing_enabled
from ..scenarios.base import RegistryError, Scenario, ScenarioSpec, get_scenario
from ..simulation.interning import intern_pool, intern_stats
from ..simulation.delivery import (
    DeliveryStrategy,
    EarliestDelivery,
    LatestDelivery,
    SeededRandomDelivery,
)
from .analyses import DEFAULT_ANALYSES, AnalysisError, analysis_versions, run_analyses
from .spec import (  # defined there for the light CLI and report paths
    ADVERSARIES,
    TELEMETRY_KIND,
    TELEMETRY_STATUS,
    SpecError,
    SweepError,
)
from .store import ResultStore, canonical_json, cell_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.runs import Run
    from .executors import SweepExecutor

#: The delivery adversaries of :data:`ADVERSARIES`, in its order: each one's
#: factory, and whether it draws on the cell's seed.  :func:`make_delivery`
#: passes the seed to seeded factories only, so the run of an unseeded
#: adversary cannot depend on the seed, and :meth:`SweepCell.run_identity`
#: reads the same flag to let seed twins share one execution.
_ADVERSARY_TABLE: Dict[str, Tuple[Callable[..., DeliveryStrategy], bool]] = {
    "earliest": (EarliestDelivery, False),
    "latest": (LatestDelivery, False),
    "random": (SeededRandomDelivery, True),
}

_C_CELLS_EXECUTED = _metrics.counter("sweep.cells_executed")
_C_CELLS_SHARED = _metrics.counter("sweep.cells_shared")
_C_CELLS_CACHED = _metrics.counter("sweep.cells_cached")
_C_CELLS_ERRORS = _metrics.counter("sweep.cells_errors")
_C_BASE_HITS = _metrics.counter("runner.base_cache_hits")
_C_BASE_MISSES = _metrics.counter("runner.base_cache_misses")
_C_INTERNED = _metrics.counter("intern.objects_interned")

#: The intern-pool tables counting *values* (as opposed to derived caches);
#: their growth across a cell is what ``intern.objects_interned`` reports.
_INTERN_VALUE_TABLES = (
    "externals",
    "actions",
    "receipts",
    "messages",
    "history_initials",
    "history_children",
    "nodes",
)


def _interned_objects() -> int:
    stats = intern_stats()
    return sum(stats[name] for name in _INTERN_VALUE_TABLES)


def make_delivery(adversary: str, seed: int) -> DeliveryStrategy:
    """Instantiate a delivery adversary by name (seeded where applicable)."""
    try:
        factory, seeded = _ADVERSARY_TABLE[adversary]
    except KeyError:
        raise SweepError(
            f"unknown adversary {adversary!r}; known: {list(ADVERSARIES)}"
        ) from None
    return factory(seed=seed) if seeded else factory()


@dataclass(frozen=True)
class SweepCell:
    """One fully-resolved point of a sweep grid.

    ``params`` is the *complete* parameter assignment (declared defaults plus
    overrides plus the injected seed), sorted by name, so the cell's cache
    key also covers default values: changing a scenario's default in code
    invalidates exactly the affected cells.
    """

    scenario: str
    params: Tuple[Tuple[str, Any], ...]
    adversary: str
    seed: int
    analyses: Tuple[str, ...] = DEFAULT_ANALYSES
    horizon: Optional[int] = None

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def key(self) -> str:
        # Memoized: resume scans hash every cell of a large grid, and the
        # digest of a frozen cell can never change.
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = cell_key(
                scenario=self.scenario,
                params=self.params_dict(),
                adversary=self.adversary,
                seed=self.seed,
                analysis_versions=analysis_versions(self.analyses),
                horizon=self.horizon,
            )
            object.__setattr__(self, "_key", cached)
        return cached

    def derived_seed(self) -> int:
        """A deterministic per-cell seed for the delivery adversary.

        Mixing the whole cell identity (not just ``seed``) decorrelates the
        random adversary across scenarios and parameter assignments that
        share a seed axis value.
        """
        material = canonical_json(
            [self.scenario, self.params_dict(), self.adversary, self.seed]
        )
        return int.from_bytes(
            hashlib.sha256(material.encode("utf-8")).digest()[:4], "big"
        )

    def run_identity(self) -> Tuple[Any, ...]:
        """What fixes this cell's run and analyses.

        A run is fixed by the scenario instance (``params``), the delivery
        adversary and the horizon; the seed enters it only through a seeded
        adversary (a seed-declaring scenario already carries its seed in
        ``params``).  Cells with equal identities are *seed twins*: their
        records differ only in ``key``, ``seed`` and ``duration_s``, so a
        sweep executes one of them (see :func:`run_sweep`).
        """
        _, seeded = _ADVERSARY_TABLE[self.adversary]
        return (
            self.scenario,
            self.params,
            self.adversary,
            self.horizon,
            self.analyses,
            self.seed if seeded else None,
        )

    def describe(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.scenario}[{params}] x {self.adversary} x seed={self.seed}"


def _scenario_spec(name: str) -> ScenarioSpec:
    try:
        return get_scenario(name)
    except RegistryError as exc:
        raise SpecError(f"scenarios: {exc}", field="scenarios") from None


def make_cell(
    scenario: str,
    overrides: Optional[Mapping[str, Any]] = None,
    adversary: str = "earliest",
    seed: int = 0,
    analyses: Sequence[str] = DEFAULT_ANALYSES,
    horizon: Optional[int] = None,
) -> SweepCell:
    """Resolve one cell: check every value of it and inject the seed axis.

    Raises :class:`SpecError` on an unknown scenario, adversary or analysis,
    a horizon that is not an int >= 1, or an ill-typed or undeclared
    parameter.  If the scenario declares a ``seed`` parameter and the caller
    did not pin it explicitly, the sweep's seed-axis value is injected so
    that the seed axis varies the *instance* (network, schedule) and not
    just the delivery adversary.
    """
    if adversary not in ADVERSARIES:
        raise SpecError(
            f"adversaries: unknown adversary {adversary!r}; known: {list(ADVERSARIES)}",
            field="adversaries",
        )
    spec = _scenario_spec(scenario)
    try:
        analysis_versions(analyses)
    except AnalysisError as exc:
        raise SpecError(f"analyses: {exc}", field="analyses") from None
    if horizon is not None and (
        isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1
    ):
        raise SpecError(f"horizon must be an int >= 1, got {horizon!r}", field="horizon")
    merged: Dict[str, Any] = dict(overrides or {})
    if spec.has_param("seed") and "seed" not in merged:
        merged["seed"] = seed
    try:
        params = spec.resolve(merged)
    except RegistryError as exc:
        raise SpecError(f"params: {exc}", field="params") from None
    return SweepCell(
        scenario=scenario,
        params=tuple(sorted(params.items())),
        adversary=adversary,
        seed=int(seed),
        analyses=tuple(analyses),
        horizon=horizon,
    )


def expand_grid(
    scenarios: Sequence[str],
    adversaries: Sequence[str] = ADVERSARIES,
    seeds: Sequence[int] = (0,),
    param_grid: Optional[Mapping[str, Sequence[Any]]] = None,
    analyses: Sequence[str] = DEFAULT_ANALYSES,
    horizon: Optional[int] = None,
) -> List[SweepCell]:
    """Expand a sweep grid into resolved cells (deduplicated, stable order).

    The one grid check of every entry point (``repro sweep``/``run``/
    ``export`` and ``POST /sweeps``): on top of :func:`make_cell`'s checks
    of every cell, it raises :class:`SpecError` on an empty scenario,
    adversary, seed or analysis axis and on a parameter with an empty value
    list or that no scenario declares.  ``param_grid`` maps parameter names
    to lists of values; for each scenario only the parameters it declares
    apply.  Cells that resolve to identical parameter assignments collapse
    into one.
    """
    for name, axis, noun in (
        ("scenarios", scenarios, "scenario"),
        ("adversaries", adversaries, "adversary"),
        ("seeds", seeds, "seed"),
        ("analyses", analyses, "analysis"),
    ):
        if not axis:
            raise SpecError(f"{name} needs at least one {noun}", field=name)
    grid = {name: list(values) for name, values in (param_grid or {}).items()}
    for name, values in grid.items():
        if not values:
            raise SpecError(
                f"params: parameter {name!r} needs at least one value", field="params"
            )
    specs = [_scenario_spec(scenario) for scenario in scenarios]
    unknown = set(grid) - {name for spec in specs for name in grid if spec.has_param(name)}
    if unknown:
        raise SpecError(
            f"params: no scenario in {list(scenarios)} declares swept parameter(s) "
            f"{sorted(unknown)}",
            field="params",
        )

    cells: List[SweepCell] = []
    seen = set()
    for scenario, spec in zip(scenarios, specs):
        applicable = [name for name in grid if spec.has_param(name)]
        assignments: List[Dict[str, Any]] = [{}]
        for name in applicable:
            assignments = [
                {**assignment, name: value}
                for assignment in assignments
                for value in grid[name]
            ]
        for adversary in adversaries:
            for seed in seeds:
                for overrides in assignments:
                    cell = make_cell(
                        scenario,
                        overrides=overrides,
                        adversary=adversary,
                        seed=seed,
                        analyses=analyses,
                        horizon=horizon,
                    )
                    identity = (cell.scenario, cell.params, cell.adversary, cell.seed)
                    if identity in seen:
                        continue
                    seen.add(identity)
                    cells.append(cell)
    return cells


#: Ceiling on the cells one spec may expand to: a service must bound the
#: work a single request can enqueue (sweeps beyond this belong to the
#: batch CLI, which has no such cap).
MAX_CELLS = 10_000

_SPEC_FIELDS = ("scenarios", "adversaries", "seeds", "params", "analyses", "horizon")


def _spec_names(spec: Mapping[str, Any], field: str, default: Sequence[str]) -> List[str]:
    names = spec.get(field)
    if names is None:
        return list(default)
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise SpecError(f"{field!r} must be a list of strings, got {names!r}", field=field)
    return list(names)


def validate_spec(
    spec: Any, max_cells: int = MAX_CELLS
) -> Tuple[List[SweepCell], Dict[str, Any]]:
    """Check a JSON sweep spec (``POST /sweeps``) and expand it into cells.

    This checks only the JSON shapes: the allowed fields, lists of strings,
    ``seeds`` as an int (seeds ``0..n-1``) or a list of ints, and ``params``
    as an object whose scalar values sweep one value.  What the values mean
    is :func:`expand_grid`'s check, the same one every CLI grid passes.
    Every violation raises :class:`SpecError` naming the offending field.
    Returns the cells and the normalized spec.
    """
    if not isinstance(spec, Mapping):
        raise SpecError(f"spec must be a JSON object, got {type(spec).__name__}")
    for name in spec:
        if name not in _SPEC_FIELDS:
            raise SpecError(
                f"unknown spec field {name!r}; allowed: {list(_SPEC_FIELDS)}",
                field=str(name),
            )
    scenarios = _spec_names(spec, "scenarios", ())
    adversaries = _spec_names(spec, "adversaries", ADVERSARIES)
    analyses = _spec_names(spec, "analyses", DEFAULT_ANALYSES)
    seeds = spec.get("seeds", 1)
    if isinstance(seeds, int) and not isinstance(seeds, bool):
        seeds = list(range(seeds))
    elif not isinstance(seeds, list) or not all(
        isinstance(seed, int) and not isinstance(seed, bool) for seed in seeds
    ):
        raise SpecError(
            f"'seeds' must be an int or a list of ints, got {seeds!r}", field="seeds"
        )
    params = spec.get("params", {})
    if not isinstance(params, Mapping):
        raise SpecError(f"'params' must be an object, got {params!r}", field="params")
    grid = {
        str(name): list(values) if isinstance(values, list) else [values]
        for name, values in params.items()
    }
    horizon = spec.get("horizon")
    cells = expand_grid(
        scenarios,
        adversaries=adversaries,
        seeds=seeds,
        param_grid=grid,
        analyses=analyses,
        horizon=horizon,
    )
    if len(cells) > max_cells:
        raise SpecError(
            f"spec expands to {len(cells)} cells, over this service's "
            f"limit of {max_cells} (run it with the batch CLI instead)"
        )
    normalized: Dict[str, Any] = {
        "scenarios": scenarios,
        "adversaries": adversaries,
        "seeds": seeds,
        "params": grid,
        "horizon": horizon,
    }
    if spec.get("analyses") is not None:
        normalized["analyses"] = analyses
    return cells, normalized


def build_base_scenario(cell: SweepCell) -> Scenario:
    """Instantiate the scenario of a cell *before* adversary decoration.

    The base scenario depends only on ``(scenario, params)``, so the shard
    loop caches it across cells that differ only in adversary, seed or
    horizon override (see :func:`repro.experiments.executors.iter_shard`).
    """
    return get_scenario(cell.scenario).build(**cell.params_dict())


def decorate_scenario(cell: SweepCell, base: Scenario) -> Scenario:
    """Apply a cell's adversary (and horizon override) to its base scenario."""
    scenario = base.with_delivery(make_delivery(cell.adversary, cell.derived_seed()))
    if cell.horizon is not None:
        scenario = scenario.with_horizon(cell.horizon)
    return scenario


def build_cell_scenario(cell: SweepCell) -> Scenario:
    """Instantiate the scenario of a cell with its adversary applied."""
    return decorate_scenario(cell, build_base_scenario(cell))


def sanitize_non_finite(value: Any) -> Any:
    """Replace non-finite floats (``nan``/``inf``) with ``None``, recursively.

    Applied to analysis outputs at the record boundary: the store's
    ``canonical_json(allow_nan=False)`` would otherwise raise on the append,
    aborting the sweep mid-flight and losing the cell.  JSON has no
    ``NaN``/``Infinity`` anyway, so ``None`` (= ``null``) is the faithful
    wire value; tuples normalise to lists exactly as JSON round-tripping
    already does.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: sanitize_non_finite(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_non_finite(inner) for inner in value]
    return value


def execute_cell(
    cell: SweepCell,
    base_cache: Optional[Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], Scenario]] = None,
) -> Tuple[Dict[str, Any], "Run"]:
    """Execute one cell in the *caller's* intern pool: its record and run.

    Callers that also want the run itself (``repro run --viz``) use this to
    avoid simulating twice.  ``base_cache`` (keyed by ``(scenario,
    params)``) lets the shard loop (:func:`repro.experiments.executors.\
iter_shard`) reuse the undecorated scenario across cells of the same
    parameter assignment; the per-cell delivery adversary is always freshly
    built, so reuse never leaks adversary state between cells.
    """
    with span("cell", scenario=cell.scenario, adversary=cell.adversary) as timer:
        interned_before = _interned_objects()
        base: Optional[Scenario] = None
        cache_key = (cell.scenario, cell.params)
        if base_cache is not None:
            base = base_cache.get(cache_key)
        if base is None:
            _C_BASE_MISSES.value += 1
            base = build_base_scenario(cell)
            if base_cache is not None:
                base_cache[cache_key] = base
        else:
            _C_BASE_HITS.value += 1
        run = decorate_scenario(cell, base).run()
        results = sanitize_non_finite(run_analyses(run, cell.analyses))
        _C_INTERNED.value += _interned_objects() - interned_before
        record = {
            "key": cell.key(),
            "scenario": cell.scenario,
            "params": cell.params_dict(),
            "adversary": cell.adversary,
            "seed": cell.seed,
            "horizon": cell.horizon,
            "analyses": results,
            "analysis_versions": analysis_versions(cell.analyses),
            "status": "ok",
        }
    record["duration_s"] = round(timer.duration_s, 6)
    return record, run


def run_cell(cell: SweepCell) -> Dict[str, Any]:
    """Execute one cell in a pool of its own and return its record.

    The per-cell reference every sweep backend must reproduce (apart from
    ``duration_s``); dropping the pool afterwards leaves the caller's pool
    untouched, so a long-lived process can recompute cells without growing.
    """
    with intern_pool():
        record, _ = execute_cell(cell)
    return record


def error_record(cell: SweepCell, exc: Union[BaseException, str]) -> Dict[str, Any]:
    """The ``status: "error"`` record of a failed cell (``exc`` may be the
    error text of an earlier record, e.g. a seed twin's representative).

    Persisted as a quarantine marker: resumed sweeps skip the cell (until
    ``--retry-errors``), plain sweeps retry it and the fresh record
    supersedes this one.  Reports ignore it (``cell_records`` keeps only
    ``status: "ok"``).
    """
    return {
        "key": cell.key(),
        "scenario": cell.scenario,
        "params": cell.params_dict(),
        "adversary": cell.adversary,
        "seed": cell.seed,
        "status": "error",
        "error": exc if isinstance(exc, str) else f"{type(exc).__name__}: {exc}",
    }


@dataclass
class SweepOutcome:
    """What a sweep did: per-cell records plus cache accounting."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    errors: int = 0
    records: List[Dict[str, Any]] = field(default_factory=list)
    duration_s: float = 0.0
    backend: str = ""
    recovered_lines: int = 0
    #: The persisted :data:`sweep telemetry <sweep_telemetry_key>` record
    #: (also appended to the store when one is given).
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def cache_hit_rate(self) -> float:
        return self.cached / self.total if self.total else 0.0

    def describe(self) -> str:
        return (
            f"{self.total} cells: {self.executed} executed, {self.cached} cached, "
            f"{self.errors} errors in {self.duration_s:.2f}s"
        )


def sweep_telemetry_key(cells: Sequence[SweepCell]) -> str:
    """The store key of a sweep's telemetry record.

    A digest of the sorted cell keys: re-running the same grid overwrites its
    telemetry (newest record per key wins) instead of growing the store, and
    the ``telemetry-`` prefix can never collide with a cell's hex key.
    """
    material = canonical_json(sorted(cell.key() for cell in cells))
    return "telemetry-" + hashlib.sha256(material.encode("utf-8")).hexdigest()[:12]


def _hit_rate(hits: float, misses: float) -> Optional[float]:
    total = hits + misses
    return round(hits / total, 6) if total else None


def _derived_metrics(merged: Mapping[str, Any]) -> Dict[str, Any]:
    """Headline rates computed from the merged counter totals."""
    counters = merged.get("counters", {})
    return {
        "engine_row_hit_rate": _hit_rate(
            counters.get("engine.row_cache_hits", 0),
            counters.get("engine.rows_computed", 0),
        ),
        "engine_overlay_hit_rate": _hit_rate(
            counters.get("engine.overlay_row_cache_hits", 0),
            counters.get("engine.overlay_rows_computed", 0),
        ),
        "base_scenario_hit_rate": _hit_rate(
            counters.get("runner.base_cache_hits", 0),
            counters.get("runner.base_cache_misses", 0),
        ),
        "store_appends": counters.get("store.appends", 0),
        "store_rotations": counters.get("store.rotations", 0),
        "store_segments_sealed": counters.get("store.segments_sealed", 0),
        "store_index_hits": counters.get("store.index_hits", 0),
        "store_index_rebuilds": counters.get("store.index_rebuilds", 0),
        "store_crc_failures": counters.get("store.crc_failures", 0),
        "objects_interned": counters.get("intern.objects_interned", 0),
    }


def run_sweep(
    cells: Sequence[SweepCell],
    store: Optional[ResultStore] = None,
    workers: int = 1,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    backend: Union[str, "SweepExecutor"] = "auto",
    resume: bool = False,
    retry_errors: bool = False,
    shard_size: Optional[int] = None,
    observer: Optional[Callable[[str, SweepCell, Dict[str, Any]], None]] = None,
) -> SweepOutcome:
    """Run a sweep, serving cells from ``store`` where possible.

    Cached cells (key present in the store) are returned without simulation
    unless ``force``.  The scan is the one probe of each cell, and it reads
    ``store`` as it stands: a long-lived store that other writers share
    must be brought current with :meth:`ResultStore.refresh` first, as
    ``repro serve``'s job store is before every job.  The rest execute on
    the requested ``backend`` (a name
    from :data:`~repro.experiments.executors.BACKENDS` or a ready
    :class:`~repro.experiments.executors.SweepExecutor`).  Every backend runs
    the one shard loop over shards cut from the sorted pending cells, so
    cells sharing ``(scenario, params)`` share an intern pool and a base
    scenario.  Freshly-computed records are persisted as they arrive, so an
    interrupted sweep loses at most the in-flight work: one cell on the
    serial backend, which hands over each record as its cell finishes, up
    to one *shard* per worker on the fabric (workers report whole shards —
    coarser checkpoint granularity is the price of the amortisation).
    ``resume=True`` first recovers the store from a torn tail (atomic
    rewrite) and then relies on the normal cache scan, so a
    killed sweep re-executes exactly the cells whose records never reached
    the store.  A cell that raises yields a ``status: "error"`` record that
    is persisted too (quarantined): a resumed sweep *skips* it — counted in
    ``outcome.errors``, not recomputed — until ``retry_errors=True`` (which
    requires ``resume``) turns stored errors back into pending cells, and a
    plain non-resume sweep always retries them (the fresh record, ok or
    error, supersedes the old one — newest per key wins).  On the fabric, a
    worker holding a shard past its lease is replaced and the shard
    re-served, and cells that fail on too many distinct workers are
    quarantined as error records instead of hanging the sweep.

    Every sweep also assembles a telemetry record (``kind:
    "sweep_telemetry"``): phase timings, per-shard wall times, worker
    utilization, and the metric deltas of the parent process merged with the
    deltas every worker shipped back (see :mod:`repro.obs.collect`).  It is
    returned on ``outcome.telemetry`` and persisted into the store under
    :func:`sweep_telemetry_key` — error counts included, since the
    ``fabric`` diagnostics matter most on exactly the
    sweeps that went wrong — where its non-hex key and non-``ok`` status
    keep it out of cache scans and reports.

    Pending cells that are *seed twins* (equal
    :meth:`SweepCell.run_identity`: an unseeded adversary such as
    ``earliest``/``latest`` on a scenario without a ``seed`` parameter)
    execute once.  The executor gets one representative per group; each
    twin's record is the representative's with the twin's own ``key`` and
    ``seed`` and a ``duration_s`` of the time spent on the twin itself, or
    an error record with the same error text.  Twins count as executed,
    and ``sweep.cells_shared`` counts them.

    ``observer``, if given, is called once per delivered cell with
    ``(phase, cell, record)`` where phase is ``"cached"``, ``"executed"``,
    or ``"error"`` — a structured progress feed (used by ``repro serve`` to
    stream events) that rides the same exactly-once delivery as the record
    handling itself.
    """
    from .executors import resolve_executor  # runner <-> executors layering

    if force and resume:
        raise SweepError("force and resume are mutually exclusive")
    if resume and store is None:
        raise SweepError("resume requires a result store")
    if retry_errors and not resume:
        raise SweepError("retry_errors requires resume")
    executor = resolve_executor(backend, workers, shard_size=shard_size)

    started = time.perf_counter()
    parent_baseline = registry_baseline()
    trace_mark = len(trace_events())
    dropped_mark = dropped_trace_events()
    outcome = SweepOutcome(total=len(cells), backend=executor.name)
    notify = progress or (lambda message: None)
    watch = observer or (lambda phase, cell, record: None)

    if resume and store is not None:
        outcome.recovered_lines = store.recover()
        if outcome.recovered_lines:
            notify(f"store recovery: dropped {outcome.recovered_lines} torn line(s)")

    pending: List[Tuple[int, SweepCell]] = []
    records: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    with span("sweep.scan") as scan_span:
        for index, cell in enumerate(cells):
            cached = store.get(cell.key()) if (store is not None and not force) else None
            if cached is not None and cached.get("kind") == TELEMETRY_KIND:
                # Telemetry keys cannot collide with cell keys by
                # construction, but the invariant is cheap to enforce here
                # too: a telemetry record is never a cache hit.
                cached = None
            if cached is not None and cached.get("status") == "error":
                if resume and not retry_errors:
                    # Quarantined: the cell failed before and stays failed
                    # until someone asks for a retry — resuming must not
                    # grind through known-bad cells on every attempt.
                    records[index] = {**cached, "cached": True}
                    outcome.errors += 1
                    _C_CELLS_ERRORS.value += 1
                    notify(
                        f"quarantined error (use --retry-errors to recompute): "
                        f"{cell.describe()}"
                    )
                    watch("error", cell, records[index])
                    continue
                cached = None  # plain runs and --retry-errors recompute
            if cached is not None:
                records[index] = {**cached, "cached": True}
                outcome.cached += 1
                _C_CELLS_CACHED.value += 1
                notify(f"cache hit: {cell.describe()}")
                watch("cached", cell, records[index])
            else:
                pending.append((index, cell))

    # Seed twins (equal run identities) run once: the executor sees only the
    # first cell of each group, and ``finish`` delivers the rest from its
    # record.
    groups: Dict[Tuple[Any, ...], List[Tuple[int, SweepCell]]] = {}
    for index, cell in pending:
        groups.setdefault(cell.run_identity(), []).append((index, cell))
    representatives = [members[0] for members in groups.values()]
    twins = {members[0][0]: members[1:] for members in groups.values() if len(members) > 1}

    def deliver(index: int, cell: SweepCell, record: Dict[str, Any]) -> None:
        records[index] = record
        if record.get("status") == "ok":
            outcome.executed += 1
            _C_CELLS_EXECUTED.value += 1
            if store is not None:
                store.put(record)
            notify(f"done: {cell.describe()} ({record['duration_s']:.3f}s)")
            watch("executed", cell, record)
        else:
            outcome.errors += 1
            _C_CELLS_ERRORS.value += 1
            if store is not None:
                # Quarantine: the error record persists so a resume can skip
                # the known-bad cell (or --retry-errors recompute it) — and a
                # later ok record supersedes it, newest per key wins.
                store.put(record)
            notify(f"ERROR: {cell.describe()}: {record.get('error')}")
            watch("error", cell, record)

    def finish(index: int, cell: SweepCell, record: Dict[str, Any]) -> None:
        # The representative is persisted before its twins, so a crash in
        # between leaves only twins pending, and a resume recomputes them.
        deliver(index, cell, record)
        for twin_index, twin in twins.get(index, ()):
            started = time.perf_counter()
            if record.get("status") == "ok":
                shared = {**record, "key": twin.key(), "seed": twin.seed}
                # The twin's own cost, never a copy: summed durations must
                # stay the compute the sweep actually spent.
                shared["duration_s"] = round(time.perf_counter() - started, 6)
            else:
                shared = error_record(twin, str(record.get("error")))
            _C_CELLS_SHARED.value += 1
            deliver(twin_index, twin, shared)

    with span("sweep.execute", backend=executor.name) as execute_span:
        executor.execute(representatives, finish)

    undelivered = [cell.describe() for index, cell in pending if records[index] is None]
    if undelivered:
        # A backend violating the call-handle-once contract must not let the
        # sweep report success with cells silently skipped.
        raise SweepError(
            f"backend {executor.name!r} never reported {len(undelivered)} cell(s): "
            f"{undelivered[:3]}{'...' if len(undelivered) > 3 else ''}"
        )

    outcome.records = [record for record in records if record is not None]
    outcome.duration_s = time.perf_counter() - started

    # -- telemetry: parent registry delta + worker payloads, persisted -----
    collector = executor.worker_telemetry
    merged = dict(collector.merged)
    merge_snapshots(merged, registry_delta(parent_baseline))
    execute_s = execute_span.duration_s
    utilization = None
    if collector.shards and execute_s > 0 and workers > 0:
        utilization = round(collector.worker_wall_s() / (execute_s * workers), 4)
    telemetry: Dict[str, Any] = {
        "key": sweep_telemetry_key(cells),
        "kind": TELEMETRY_KIND,
        "status": TELEMETRY_STATUS,
        "backend": executor.name,
        "workers": workers,
        "cells": {
            "total": outcome.total,
            "executed": outcome.executed,
            "cached": outcome.cached,
            "errors": outcome.errors,
            "cache_hit_rate": round(outcome.cache_hit_rate, 6),
        },
        "timings": {
            "scan_s": round(scan_span.duration_s, 6),
            "execute_s": round(execute_s, 6),
            "total_s": round(outcome.duration_s, 6),
        },
        "shards": list(collector.shards),
        "worker_payloads": collector.worker_payloads,
        "worker_wall_s": round(collector.worker_wall_s(), 6),
        "worker_utilization": utilization,
        "metrics": merged,
        "derived": _derived_metrics(merged),
    }
    fabric = executor.fabric_summary()
    if fabric:
        # Robustness accounting on the fabric: event counters (retries,
        # replacements, quarantines), per-worker liveness and the event log.
        telemetry["fabric"] = fabric
    if tracing_enabled():
        telemetry["trace"] = collector.trace + trace_events()[trace_mark:]
        # Worker drops plus this process's own since the sweep started.
        telemetry["trace_dropped"] = collector.trace_dropped + max(
            0, dropped_trace_events() - dropped_mark
        )
    outcome.telemetry = telemetry
    if store is not None:
        # Persisted even (especially) for sweeps with errors: the fabric
        # diagnostics matter most when something went wrong, and the record
        # carries the error count.
        store.put(telemetry)
    return outcome
