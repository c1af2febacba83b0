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

from .. import _lazy_exports

_EXPORTS = {
    ".analyses": (
        "DEFAULT_ANALYSES",
        "AnalysisError",
        "AnalysisPass",
        "analysis_versions",
        "get_analysis",
        "infer_roles",
        "list_analyses",
        "register_analysis",
        "run_analyses",
    ),
    ".cli": ("main",),
    ".executors": (
        "SerialExecutor",
        "SweepExecutor",
        "iter_shard",
        "plan_shards",
        "resolve_executor",
        "run_shard_monitored",
    ),
    ".faults": (
        "DEFAULT_CHAOS_PLAN",
        "FAULTS_ENV",
        "STORAGE_KINDS",
        "DropConnection",
        "FaultError",
        "FaultPlan",
        "FaultRule",
        "parse_plan",
        "storage_fault",
    ),
    ".golden": (
        "GOLDEN_FORMAT_VERSION",
        "check_corpus",
        "golden_payload",
        "knowledge_answers",
        "write_corpus",
    ),
    ".remote": (
        "FabricScheduler",
        "RemoteExecutor",
        "WorkerFailure",
        "cell_from_wire",
        "cell_to_wire",
        "parse_endpoint",
        "run_worker",
    ),
    ".reporting": (
        "DEFAULT_REPORT_METRICS",
        "aggregate_metric",
        "cell_records",
        "discover_metrics",
        "flatten_scalars",
        "format_aggregate",
        "group_records",
        "report_payload",
    ),
    ".runner": (
        "MAX_CELLS",
        "SweepCell",
        "SweepOutcome",
        "build_base_scenario",
        "build_cell_scenario",
        "decorate_scenario",
        "error_record",
        "execute_cell",
        "expand_grid",
        "make_cell",
        "make_delivery",
        "run_cell",
        "run_sweep",
        "sweep_telemetry_key",
        "validate_spec",
    ),
    ".serve": ("SweepService",),
    ".spec": (
        "ADVERSARIES",
        "BACKENDS",
        "TELEMETRY_KIND",
        "TELEMETRY_STATUS",
        "SpecError",
        "SweepError",
    ),
    ".store": (
        "DEFAULT_ROTATE_BYTES",
        "DEFAULT_STORE_PATH",
        "INDEX_FORMAT_VERSION",
        "SEGMENT_FORMAT_VERSION",
        "STORE_FORMAT_VERSION",
        "ResultStore",
        "StoreError",
        "canonical_json",
        "cell_key",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
