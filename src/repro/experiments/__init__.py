"""Experiment orchestration: sweeps, analyses, the result store, and the CLI.

This package is the substrate for running the reproduction at scale: a
registered scenario (see :mod:`repro.scenarios`) crossed with delivery
adversaries, seeds and parameter values becomes a grid of *cells*; the
:mod:`runner <repro.experiments.runner>` executes cells serially or on the
worker fabric with deterministic per-cell seeding; versioned :mod:`analysis passes
<repro.experiments.analyses>` turn each run into JSON metrics; and the
content-addressed :mod:`store <repro.experiments.store>` makes repeated
sweeps incremental.  Parallel sweeps run on one engine, the fabric
(:mod:`repro.experiments.remote`: a lease-and-heartbeat coordinator serving
a local worker fleet or ``repro worker`` processes on other machines),
which survives sick workers; :mod:`repro.experiments.faults` injects
deterministic faults to prove it.  The ``repro`` CLI
(:mod:`repro.experiments.cli`) wraps the whole pipeline.
"""

from .analyses import (
    DEFAULT_ANALYSES,
    AnalysisError,
    AnalysisPass,
    analysis_versions,
    get_analysis,
    infer_roles,
    list_analyses,
    register_analysis,
    run_analyses,
)
from .cli import main
from .executors import (
    BACKENDS,
    SerialExecutor,
    SweepExecutor,
    iter_shard,
    plan_shards,
    resolve_executor,
    run_shard_monitored,
)
from .faults import (
    DEFAULT_CHAOS_PLAN,
    FAULTS_ENV,
    STORAGE_KINDS,
    DropConnection,
    FaultError,
    FaultPlan,
    FaultRule,
    parse_plan,
    storage_fault,
)
from .golden import (
    GOLDEN_FORMAT_VERSION,
    check_corpus,
    golden_payload,
    knowledge_answers,
    write_corpus,
)
from .reporting import (
    DEFAULT_REPORT_METRICS,
    aggregate_metric,
    cell_records,
    discover_metrics,
    flatten_scalars,
    format_aggregate,
    group_records,
    report_payload,
)
from .runner import (
    ADVERSARIES,
    MAX_CELLS,
    TELEMETRY_KIND,
    TELEMETRY_STATUS,
    SpecError,
    SweepCell,
    SweepError,
    SweepOutcome,
    build_base_scenario,
    build_cell_scenario,
    decorate_scenario,
    error_record,
    execute_cell,
    expand_grid,
    make_cell,
    make_delivery,
    run_cell,
    run_sweep,
    sweep_telemetry_key,
    validate_spec,
)
from .remote import (
    FabricScheduler,
    RemoteExecutor,
    WorkerFailure,
    cell_from_wire,
    cell_to_wire,
    parse_endpoint,
    run_worker,
)
from .store import (
    DEFAULT_ROTATE_BYTES,
    DEFAULT_STORE_PATH,
    INDEX_FORMAT_VERSION,
    SEGMENT_FORMAT_VERSION,
    STORE_FORMAT_VERSION,
    ResultStore,
    StoreError,
    canonical_json,
    cell_key,
)

__all__ = [
    "ADVERSARIES",
    "BACKENDS",
    "AnalysisError",
    "AnalysisPass",
    "DEFAULT_ANALYSES",
    "DEFAULT_CHAOS_PLAN",
    "DEFAULT_REPORT_METRICS",
    "DEFAULT_ROTATE_BYTES",
    "DEFAULT_STORE_PATH",
    "DropConnection",
    "FAULTS_ENV",
    "FabricScheduler",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "GOLDEN_FORMAT_VERSION",
    "INDEX_FORMAT_VERSION",
    "MAX_CELLS",
    "RemoteExecutor",
    "ResultStore",
    "SEGMENT_FORMAT_VERSION",
    "STORAGE_KINDS",
    "STORE_FORMAT_VERSION",
    "SerialExecutor",
    "SpecError",
    "StoreError",
    "SweepCell",
    "SweepError",
    "SweepExecutor",
    "SweepOutcome",
    "SweepService",
    "TELEMETRY_KIND",
    "TELEMETRY_STATUS",
    "WorkerFailure",
    "aggregate_metric",
    "analysis_versions",
    "build_base_scenario",
    "cell_records",
    "build_cell_scenario",
    "canonical_json",
    "cell_from_wire",
    "cell_key",
    "cell_to_wire",
    "check_corpus",
    "decorate_scenario",
    "discover_metrics",
    "error_record",
    "execute_cell",
    "expand_grid",
    "flatten_scalars",
    "format_aggregate",
    "get_analysis",
    "golden_payload",
    "group_records",
    "infer_roles",
    "iter_shard",
    "knowledge_answers",
    "list_analyses",
    "main",
    "make_cell",
    "make_delivery",
    "parse_endpoint",
    "parse_plan",
    "plan_shards",
    "register_analysis",
    "report_payload",
    "resolve_executor",
    "validate_spec",
    "run_analyses",
    "run_cell",
    "run_shard_monitored",
    "run_sweep",
    "run_worker",
    "storage_fault",
    "sweep_telemetry_key",
    "write_corpus",
]

#: Names served by :mod:`repro.experiments.serve`, imported on first access:
#: the HTTP stack it pulls in (``http.server``, ``email``) costs every other
#: command start-up time for nothing.
_SERVE_NAMES = frozenset({"SweepService"})


def __getattr__(name):
    if name in _SERVE_NAMES:
        from . import serve

        return getattr(serve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
