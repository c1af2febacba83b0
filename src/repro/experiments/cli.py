"""The ``repro`` command line: list, run, sweep, report, export.

* ``repro list`` — registered scenarios (with typed parameters), analysis
  passes, and delivery adversaries;
* ``repro run SCENARIO`` — one cell, with an optional space-time diagram;
* ``repro sweep`` — a parameter grid executed serially or on the worker
  fabric (a local worker fleet, or external workers with ``--listen``),
  cached in the persistent result store (repeat invocations are
  incremental);
* ``repro report`` — aggregate tables over the store (numeric metrics as
  mean/min/max, booleans and labels as value counts), per-cell space-time
  diagrams, persisted sweep telemetry (``--telemetry``), and a static HTML
  dashboard (``--html``);
* ``repro export`` — GraphML / DOT dumps of a cell's bounds graph, extended
  bounds graph ``GE(r, sigma)``, or causal-past DAG;
* ``repro worker`` — join a ``repro sweep --listen`` coordinator as a
  remote worker (heartbeats, lease-based shard execution, optional
  deterministic fault injection via ``--faults``);
* ``repro store`` — inspect and maintain the segmented result store:
  ``verify`` (CRC every sealed record; ``--repair`` drops corrupt ones),
  ``migrate`` (upgrade a legacy single-file store), ``compact``, and
  ``info``.

Installed as a console script via ``pip install -e .`` or reachable as
``python -m repro``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

# Only light modules load at start-up: each command imports the modules it
# runs inside its handler, so `repro report` never loads the simulator and
# `repro list` never loads the worker fabric.
from . import faults
from .faults import DEFAULT_CHAOS_PLAN, FAULTS_ENV, STORAGE_KINDS, FaultError, parse_plan
from .reporting import (
    DEFAULT_REPORT_METRICS,
    cell_records,
    format_aggregate,
    report_groups,
    report_payload,
)
from .spec import ADVERSARIES, BACKENDS, TELEMETRY_KIND, SpecError, SweepError
from .store import DEFAULT_ROTATE_BYTES, DEFAULT_STORE_PATH, ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import SweepCell

#: Default axes of `repro sweep`: 3 scenarios x 3 adversaries x 4 seeds = 36 cells.
DEFAULT_SWEEP_SCENARIOS = ("flooding", "torus-flood", "tree-flood")
DEFAULT_SWEEP_SEEDS = 4
DEFAULT_SWEEP_WORKERS = 2

class CliError(ValueError):
    """Raised on bad command-line input; rendered as an error message."""


# ---------------------------------------------------------------------------
# Argument plumbing.
# ---------------------------------------------------------------------------


def _csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_set(
    scenarios: Sequence[str], assignments: Sequence[str], many: bool
) -> Dict[str, List[Any]]:
    """``--set name=v1[,v2...]`` text as a parameter grid (one value each
    unless ``many``), parsed with the first declaring scenario's ParamSpec.

    A name no scenario declares keeps its text: :func:`expand_grid` rejects it.
    """
    from ..scenarios.base import RegistryError, scenario_registry

    registry = scenario_registry()
    grid: Dict[str, List[Any]] = {}
    for assignment in assignments:
        name, sep, text = assignment.partition("=")
        if not sep:
            raise CliError(f"--set expects name=value, got {assignment!r}")
        name = name.strip()
        declared = [registry[s].param(name) for s in scenarios if s in registry]
        spec = next((param for param in declared if param is not None), None)
        texts = _csv(text) if many else [text]
        try:
            grid[name] = [spec.parse(part) if spec else part for part in texts]
        except RegistryError as exc:
            raise CliError(f"--set: {exc}") from None
    return grid


#: The flag that sets each grid field, so a grid error names the flag.
_GRID_FLAGS = {
    "scenarios": "--scenario",
    "adversaries": "--adversary",
    "seeds": "--seeds",
    "params": "--set",
    "analyses": "--analysis",
    "horizon": "--horizon",
}


def _grid_cells(
    args: argparse.Namespace,
    scenarios: Sequence[str],
    adversaries: Sequence[str],
    seeds: Sequence[int],
    many: bool = True,
    flags: Optional[Dict[str, str]] = None,
) -> List[SweepCell]:
    """Check and expand a command's grid through :func:`expand_grid`, the
    check ``POST /sweeps`` shares; ``flags`` overrides :data:`_GRID_FLAGS`."""
    from .analyses import DEFAULT_ANALYSES
    from .runner import expand_grid

    try:
        return expand_grid(
            scenarios,
            adversaries=adversaries,
            seeds=seeds,
            param_grid=_parse_set(scenarios, args.set or (), many),
            analyses=getattr(args, "analysis", None) or DEFAULT_ANALYSES,
            horizon=args.horizon,
        )
    except SpecError as exc:
        flag = {**_GRID_FLAGS, **(flags or {})}.get(exc.field, exc.field)
        message = str(exc)
        if message.startswith(exc.field):
            message = message[len(exc.field):]
        raise CliError(flag + message) from None


def _one_cell(args: argparse.Namespace) -> SweepCell:
    """The single cell of ``repro run``/``repro export``."""
    (cell,) = _grid_cells(
        args,
        [args.scenario],
        [args.adversary],
        [args.seed],
        many=False,
        flags={"scenarios": "scenario", "seeds": "--seed"},
    )
    return cell


#: Lower bounds of the numeric flags of ``sweep``, ``serve`` and ``worker``,
#: by argparse dest; every value must also be finite.  The grid flags
#: (``--seeds``, ``--horizon``) are checked with the grid.
_FLAG_BOUNDS = {
    "workers": 1,
    "shard_size": 1,
    "max_cells": 1,
    "rotate_bytes": 0,
    "cell_timeout": 0.001,
    "lease_base_s": 0.001,
    "heartbeat_timeout_s": 0.001,
    "heartbeat_s": 0.001,
    "local_fallback_s": 0.0,
    "connect_timeout_s": 0.0,
    "diagrams": 0,
}


_ROTATE_BYTES_HELP = (
    "seal the store tail into a checksummed segment at this size "
    "(default: %(default)s; 0 disables rotation)"
)


def _rotate_bytes(args: argparse.Namespace) -> Optional[int]:
    """``--rotate-bytes`` as :class:`ResultStore` takes it: ``0`` means ``None``."""
    return args.rotate_bytes or None


def _check_flag_bounds(args: argparse.Namespace) -> None:
    """Reject any numeric flag below its :data:`_FLAG_BOUNDS` entry or not finite."""
    for dest, minimum in _FLAG_BOUNDS.items():
        value = getattr(args, dest, None)
        if value is not None and not minimum <= value < math.inf:
            finite = " and finite" if isinstance(value, float) else ""
            raise CliError(
                f"--{dest.replace('_', '-')} must be >= {minimum}{finite}, got {value}"
            )


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_list(args: argparse.Namespace, out) -> int:
    from ..scenarios.base import scenario_registry
    from .analyses import DEFAULT_ANALYSES, get_analysis, list_analyses

    registry = scenario_registry()
    print(f"scenarios ({len(registry)}):", file=out)
    for name in sorted(registry):
        spec = registry[name]
        tags = f" [{','.join(spec.tags)}]" if spec.tags else ""
        print(f"  {name}{tags}: {spec.description}", file=out)
        for param in spec.params:
            print(f"      {param.describe()}  # {param.description}", file=out)
    print(f"\nanalyses ({len(list_analyses())}):", file=out)
    for name in list_analyses():
        entry = get_analysis(name)
        default = " (default)" if name in DEFAULT_ANALYSES else ""
        print(f"  {name} v{entry.version}{default}: {entry.description}", file=out)
    print(f"\nadversaries: {', '.join(ADVERSARIES)}", file=out)
    return 0


def _cmd_run(args: argparse.Namespace, out) -> int:
    from .runner import execute_cell

    cell = _one_cell(args)
    record, run = execute_cell(cell)
    if args.store is not None:
        ResultStore(args.store).put(record)
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True), file=out)
    else:
        print(f"cell: {cell.describe()}", file=out)
        print(f"key:  {record['key']}", file=out)
        for name, result in record["analyses"].items():
            print(f"\n[{name}]", file=out)
            for key, value in result.items():
                print(f"  {key}: {value}", file=out)
    if args.viz:
        from ..viz.spacetime import action_table, spacetime_diagram

        print("\n" + spacetime_diagram(run), file=out)
        print("\n" + action_table(run), file=out)
    return 0


def _cmd_sweep(args: argparse.Namespace, out) -> int:
    # --listen serves external workers, so it implies the fabric; without
    # it, `auto` runs one worker serially and forks a local fleet otherwise.
    fabric = args.backend == "fabric" or (
        args.backend == "auto" and (args.workers > 1 or args.listen is not None)
    )
    if args.shard_size is not None and not fabric:
        raise CliError("--shard-size requires the fabric backend")
    if args.listen is not None and not fabric:
        raise CliError("--listen requires the fabric backend")
    if args.force and args.resume:
        raise CliError("--force and --resume are mutually exclusive")
    if args.retry_errors and not args.resume:
        raise CliError("--retry-errors requires --resume")
    chaos_plan: Optional[str] = None
    chaos_has_storage = False
    if args.chaos or args.chaos_plan:
        chaos_plan = args.chaos_plan or DEFAULT_CHAOS_PLAN
        try:
            parsed_plan = parse_plan(chaos_plan)
        except FaultError as exc:
            raise CliError(f"--chaos-plan: {exc}")
        process_kinds = [
            rule.kind for rule in parsed_plan.rules if rule.kind not in STORAGE_KINDS
        ]
        chaos_has_storage = len(process_kinds) < len(parsed_plan.rules)
        # Storage faults fire in *this* process (the coordinator owns the
        # store), so a storage-only plan works on any backend, serial
        # included.  Process faults only fire in the local workers.
        if process_kinds:
            if args.listen is not None:
                raise CliError(
                    "--chaos scripts faults into this sweep's local workers; "
                    "with --listen the workers are separate processes — start "
                    "them with `repro worker --faults SPEC` instead"
                )
            if not fabric or args.workers < 2:
                raise CliError(
                    "--chaos needs local workers (--workers >= 2): process "
                    "faults only fire in worker processes, never in the "
                    "coordinator (storage-only plans run anywhere)"
                )
    scenarios = (
        _csv(args.scenario) if args.scenario is not None else DEFAULT_SWEEP_SCENARIOS
    )
    adversaries = _csv(args.adversary) if args.adversary is not None else ADVERSARIES
    flags = None
    if args.seed_list is not None:
        try:
            seeds = [int(part) for part in _csv(args.seed_list)]
        except ValueError:
            raise CliError(f"--seed-list expects integers, got {args.seed_list!r}")
        flags = {"seeds": "--seed-list"}
    else:
        seeds = list(range(args.seeds))
    cells = _grid_cells(args, scenarios, adversaries, seeds, flags=flags)
    print(
        f"sweep: {len(scenarios)} scenario(s) x {len(adversaries)} adversar"
        f"{'y' if len(adversaries) == 1 else 'ies'} x {len(seeds)} seed(s)"
        f" -> {len(cells)} cells",
        file=out,
    )
    if args.dry_run:
        for cell in cells:
            print(f"  {cell.key()[:12]}  {cell.describe()}", file=out)
        print("dry run: nothing executed", file=out)
        return 0
    # The execution stack loads here, before any worker forks: workers
    # inherit it instead of each importing it again.
    from .runner import run_sweep

    store = ResultStore(args.store, rotate_bytes=_rotate_bytes(args))
    progress = (lambda message: print(f"  {message}", file=out)) if args.verbose else None
    backend: Any = "serial"
    if fabric:
        from .remote import RemoteExecutor, parse_endpoint

        host, port = parse_endpoint(args.listen or "127.0.0.1:0", what="--listen")
        try:
            backend = RemoteExecutor(
                host,
                port,
                workers_hint=args.workers,
                local_workers=0 if args.listen is not None else args.workers,
                shard_size=args.shard_size,
                lease_base_s=args.lease_base_s,
                lease_cell_s=args.cell_timeout,
                heartbeat_timeout_s=args.heartbeat_timeout_s,
                local_fallback_after_s=args.local_fallback_s,
            )
        except OSError as exc:
            raise CliError(f"--listen: cannot bind {host}:{port}: {exc}") from None
        if args.listen is not None:
            # Parse-friendly and flushed before blocking: worker launchers
            # (and the CI smoke) scrape the port from this line.
            print(
                f"coordinator: listening on {backend.address[0]}:{backend.address[1]}",
                file=out,
                flush=True,
            )
    if chaos_plan is not None:
        print(f"chaos: injecting {chaos_plan!r}", file=out)
    previous_faults = os.environ.get(FAULTS_ENV)
    try:
        if chaos_plan is not None:
            # Local workers inherit the environment and mark themselves in
            # run_worker; this process never marks itself as a *worker*, so
            # process faults cannot fire in the coordinator.  Storage faults
            # are different: the coordinator owns the store, so it marks
            # itself storage-fault-visible.
            os.environ[FAULTS_ENV] = chaos_plan
            if chaos_has_storage:
                faults.mark_storage(chaos_plan)
        outcome = run_sweep(
            cells,
            store=store,
            workers=args.workers,
            force=args.force,
            progress=progress,
            backend=backend,
            resume=args.resume,
            retry_errors=args.retry_errors,
        )
    finally:
        if chaos_plan is not None:
            if chaos_has_storage:
                faults.reset()
            if previous_faults is None:
                os.environ.pop(FAULTS_ENV, None)
            else:
                os.environ[FAULTS_ENV] = previous_faults
    print(f"{outcome.describe()} [backend={outcome.backend}]", file=out)
    if outcome.recovered_lines:
        print(
            f"recovered store: dropped {outcome.recovered_lines} torn line(s)",
            file=out,
        )
    print(f"store: {store.path} ({len(store)} records)", file=out)
    return 1 if outcome.errors else 0


def _cmd_worker(args: argparse.Namespace, out) -> int:
    if args.faults is not None:
        try:
            parse_plan(args.faults)
        except FaultError as exc:
            raise CliError(f"--faults: {exc}")
    from .remote import run_worker

    notify = (lambda message: print(message, file=out, flush=True)) if args.verbose else None
    return run_worker(
        args.connect,
        worker_id=args.id,
        heartbeat_s=args.heartbeat_s,
        faults_spec=args.faults,
        connect_timeout_s=args.connect_timeout_s,
        log=notify,
    )


def _cmd_serve(args: argparse.Namespace, out) -> int:
    """``repro serve``: the HTTP sweep service (:mod:`repro.experiments.serve`)."""
    from .remote import parse_endpoint
    from .serve import SweepService

    host, port = parse_endpoint(args.listen, what="--listen")
    workers_listen = None
    if args.workers_listen is not None:
        workers_listen = parse_endpoint(args.workers_listen, what="--workers-listen")
    notify = (
        (lambda message: print(f"  {message}", file=out, flush=True))
        if args.verbose
        else None
    )
    service = SweepService(
        args.store,
        rotate_bytes=_rotate_bytes(args),
        workers_listen=workers_listen,
        workers=args.workers,
        shard_size=args.shard_size,
        local_fallback_s=args.local_fallback_s,
        max_cells=args.max_cells,
        log=notify,
    )
    try:
        address = service.start(host, port)
    except OSError as exc:
        raise CliError(f"--listen: cannot bind {host}:{port}: {exc}") from None
    # Parse-friendly and flushed before blocking: clients (and the CI smoke)
    # scrape the ephemeral port from this line.
    print(f"serve: listening on {address[0]}:{address[1]}", file=out, flush=True)
    print(f"serve: store {args.store}", file=out, flush=True)
    if workers_listen is not None:
        print(
            f"serve: workers connect via {workers_listen[0]}:{workers_listen[1]}",
            file=out,
            flush=True,
        )
    try:
        service.join()
    except KeyboardInterrupt:
        print("serve: shutting down", file=out, flush=True)
    finally:
        service.stop()
    return 0


def _cmd_store(args: argparse.Namespace, out) -> int:
    """``repro store verify|migrate|compact|info``."""
    store = ResultStore(args.store)
    action = args.store_command
    if action == "info":
        print(json.dumps(store.info(), indent=2, sort_keys=True), file=out)
        return 0
    if action == "verify":
        report = store.verify(repair=args.repair)
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
        if report["ok"]:
            print("store: ok", file=out)
            return 0
        print(
            "store: DAMAGED (re-run with --repair to drop corrupt records "
            "and rebuild the index; dropped cells recompute on the next "
            "--resume)",
            file=out,
        )
        return 1
    if action == "migrate":
        info = store.migrate()
        print(json.dumps(info, indent=2, sort_keys=True), file=out)
        print(
            f"migrated: {len(info['segments'])} segment(s), "
            f"{info['sealed_records']} sealed record(s), index {info['index']}",
            file=out,
        )
        return 0
    if action == "compact":
        dropped = store.compact()
        print(f"compacted: dropped {dropped} superseded/corrupt line(s)", file=out)
        print(f"store: {store.path} ({len(store)} records)", file=out)
        return 0
    raise CliError(f"unknown store command {action!r}")


def _record_run(record: Dict[str, Any]):
    """Re-derive the run of one stored record (deterministic by cell identity)."""
    from .runner import build_cell_scenario, make_cell

    cell = make_cell(
        record["scenario"],
        overrides=record["params"],
        adversary=record["adversary"],
        seed=record["seed"],
        horizon=record.get("horizon"),
    )
    return cell, build_cell_scenario(cell).run()


def _cmd_report(args: argparse.Namespace, out) -> int:
    store = ResultStore(args.store)
    all_records = store.records()
    records = cell_records(all_records)
    telemetry_records = [r for r in all_records if r.get("kind") == TELEMETRY_KIND]

    if args.telemetry:
        # JSON for machine consumption (CI artifacts); newest last.
        print(json.dumps(telemetry_records, indent=2, sort_keys=True), file=out)
        return 0

    if args.viz:
        record = store.get(args.viz)
        if record is not None and record.get("kind") == TELEMETRY_KIND:
            # An exact telemetry key must not reach _record_run (telemetry
            # records carry no scenario/params to re-simulate).
            raise CliError(
                f"key {args.viz!r} is a sweep-telemetry record, not a cell; "
                "inspect it with --telemetry instead"
            )
        if record is None:
            matches = [r for r in records if r["key"].startswith(args.viz)]
            if len(matches) != 1:
                raise CliError(
                    f"key {args.viz!r} matches {len(matches)} records in {store.path}"
                )
            record = matches[0]
        cell, run = _record_run(record)
        from ..viz.spacetime import action_table, spacetime_diagram

        print(f"cell: {cell.describe()}", file=out)
        print("\n" + spacetime_diagram(run), file=out)
        print("\n" + action_table(run), file=out)
        return 0

    group_fields = _csv(args.group_by)
    metrics = list(args.metric) if args.metric else list(DEFAULT_REPORT_METRICS)

    if args.json:
        try:
            payload = report_payload(records, group_fields, metrics)
        except SpecError as exc:
            raise CliError("--group-by" + str(exc)[len(exc.field):]) from None
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0

    if not records:
        print(f"no records in {store.path}", file=out)
        return 0

    header = group_fields + ["cells"] + metrics
    rows_out = [
        list(group)
        + [str(cells)]
        + [format_aggregate(summaries.get(metric)) for metric in metrics]
        for group, cells, summaries in report_groups(records, group_fields, metrics)
    ]

    if args.html is not None:
        from ..viz.html_report import render_html_report
        from ..viz.spacetime import spacetime_diagram

        telemetry = telemetry_records[-1] if telemetry_records else None
        diagrams: List[Tuple[str, str]] = []
        for record in records[: args.diagrams]:
            cell, run = _record_run(record)
            diagrams.append((cell.describe(), spacetime_diagram(run)))
        html = render_html_report(
            header,
            rows_out,
            record_count=len(records),
            store_path=store.path,
            telemetry=telemetry,
            diagrams=diagrams,
        )
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(html)
        print(f"wrote {args.html} ({len(records)} records)", file=out)
        return 0

    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows_out)) if rows_out else len(header[i])
        for i in range(len(header))
    ]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)), file=out)
    print("  ".join("-" * width for width in widths), file=out)
    for row in rows_out:
        print("  ".join(cellval.ljust(widths[i]) for i, cellval in enumerate(row)), file=out)
    print(f"\n{len(records)} records in {store.path}", file=out)
    return 0


def _parse_sigma(run, text: Optional[str]):
    """Resolve ``--sigma PROCESS[@TIME]`` against a run's timelines."""
    if text is None:
        process = run.processes[0]
        return run.final_node(process)
    process, _, time_text = text.partition("@")
    process = process.strip()
    if process not in run.processes:
        raise CliError(
            f"--sigma process {process!r} not in run (processes: {list(run.processes)})"
        )
    if not time_text:
        return run.final_node(process)
    try:
        time = int(time_text)
    except ValueError:
        raise CliError(f"--sigma expects PROCESS[@TIME], got {text!r}")
    if time < 0 or time > run.horizon:
        raise CliError(
            f"--sigma time {time} outside run horizon [0, {run.horizon}]"
        )
    return run.node_at(process, time)


def _cmd_export(args: argparse.Namespace, out) -> int:
    from ..core.extended_graph import ExtendedBoundsGraph
    from ..viz.export import causal_dag, graph_to_dot, graph_to_graphml
    from .runner import build_cell_scenario

    cell = _one_cell(args)
    run = build_cell_scenario(cell).run()
    if args.graph == "bounds":
        graph = run.bounds_graph()
    elif args.graph == "causal":
        graph = causal_dag(run)
    else:  # extended
        sigma = _parse_sigma(run, args.sigma)
        graph = ExtendedBoundsGraph(sigma, run.timed_network).graph
    if args.format == "graphml":
        text = graph_to_graphml(graph, run)
    else:
        text = graph_to_dot(graph, run, name=f"{args.graph}-{cell.scenario}")
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote {args.output} ({len(graph)} nodes, {graph.edge_count()} edges)",
            file=out,
        )
    else:
        out.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Seeded experiment sweeps for the zigzag-causality reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios, analyses and adversaries")

    run_parser = sub.add_parser("run", help="run one scenario cell")
    run_parser.add_argument("scenario", help="registered scenario name")
    run_parser.add_argument(
        "--set", action="append", metavar="NAME=VALUE", help="override one parameter"
    )
    run_parser.add_argument("--adversary", default="earliest", choices=ADVERSARIES)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--horizon", type=int, default=None)
    run_parser.add_argument(
        "--analysis", action="append", metavar="NAME", help="analysis pass to apply"
    )
    run_parser.add_argument("--viz", action="store_true", help="print a space-time diagram")
    run_parser.add_argument("--json", action="store_true", help="emit the raw record")
    run_parser.add_argument(
        "--store", default=None, metavar="PATH", help="also persist the record here"
    )

    sweep_parser = sub.add_parser("sweep", help="run a cached parameter-grid sweep")
    sweep_parser.add_argument(
        "--scenario",
        default=None,
        metavar="CSV",
        help=f"comma-separated scenario names (default: {','.join(DEFAULT_SWEEP_SCENARIOS)})",
    )
    sweep_parser.add_argument(
        "--adversary",
        default=None,
        metavar="CSV",
        help=f"comma-separated adversaries (default: {','.join(ADVERSARIES)})",
    )
    sweep_parser.add_argument(
        "--seeds",
        type=int,
        default=DEFAULT_SWEEP_SEEDS,
        help="sweep seeds 0..N-1 (default: %(default)s)",
    )
    sweep_parser.add_argument(
        "--seed-list", default=None, metavar="CSV", help="explicit seed values"
    )
    sweep_parser.add_argument(
        "--set",
        action="append",
        metavar="NAME=V1[,V2...]",
        help="sweep a parameter over explicit values",
    )
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_SWEEP_WORKERS,
        help="worker processes (local fleet size; with --listen, the "
        "expected fleet size)",
    )
    sweep_parser.add_argument(
        "--backend",
        default="auto",
        choices=BACKENDS,
        help="execution backend: serial in this process, or the worker "
        "fabric serving shards of structurally similar cells; auto is "
        "serial for one worker, fabric otherwise (default: %(default)s)",
    )
    sweep_parser.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="N",
        help="cells per fabric shard (default: derived)",
    )
    sweep_parser.add_argument(
        "--resume",
        action="store_true",
        help="recover the store from a torn tail and skip persisted cells "
        "(a killed sweep continues, re-executing only what never reached "
        "the store: at most one in-flight cell, or one in-flight shard per "
        "fabric worker)",
    )
    sweep_parser.add_argument(
        "--retry-errors",
        action="store_true",
        help="with --resume: recompute cells quarantined as status:\"error\" "
        "records instead of skipping them",
    )
    sweep_parser.add_argument(
        "--rotate-bytes",
        type=int,
        default=DEFAULT_ROTATE_BYTES,
        metavar="N",
        help=_ROTATE_BYTES_HELP,
    )
    sweep_parser.add_argument(
        "--cell-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="fabric lease budget per cell: a worker holding a shard longer "
        "than --lease-base-s plus this per cell is replaced and the shard "
        "re-served; a cell that outruns its lease on 3 distinct workers (or "
        "that outran one when no worker is left) is quarantined as an error "
        "record, even though a serial run would finish it; raise this for "
        "long cells (default: %(default)s)",
    )
    sweep_parser.add_argument(
        "--chaos",
        action="store_true",
        help="smoke mode: inject the default deterministic fault plan "
        f"({DEFAULT_CHAOS_PLAN!r}) into the local workers; the sweep must still "
        "complete with results identical to a serial run",
    )
    sweep_parser.add_argument(
        "--chaos-plan",
        default=None,
        metavar="SPEC",
        help="custom fault plan (KIND@POINT:WHEN[:ARG], comma-separated); "
        "implies --chaos",
    )
    sweep_parser.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve `repro worker` processes on this address instead of "
        "forking local workers (implies the fabric backend; port 0 picks an "
        "ephemeral port, printed at startup)",
    )
    sweep_parser.add_argument(
        "--lease-base-s",
        type=float,
        default=10.0,
        metavar="S",
        help="fabric: base lease budget per shard assignment (default: %(default)s)",
    )
    sweep_parser.add_argument(
        "--heartbeat-timeout-s",
        type=float,
        default=5.0,
        metavar="S",
        help="fabric: a worker silent this long is declared dead and its "
        "shards requeued (default: %(default)s)",
    )
    sweep_parser.add_argument(
        "--local-fallback-s",
        type=float,
        default=30.0,
        metavar="S",
        help="with --listen: with no live workers for this long, the "
        "coordinator starts executing shards inline (default: %(default)s)",
    )
    sweep_parser.add_argument("--horizon", type=int, default=None)
    sweep_parser.add_argument("--analysis", action="append", metavar="NAME")
    sweep_parser.add_argument("--store", default=DEFAULT_STORE_PATH, metavar="PATH")
    sweep_parser.add_argument(
        "--dry-run", action="store_true", help="print the cells, execute nothing"
    )
    sweep_parser.add_argument(
        "--force", action="store_true", help="re-run cells even when cached"
    )
    sweep_parser.add_argument("--verbose", action="store_true", help="per-cell progress")

    report_parser = sub.add_parser("report", help="aggregate stored sweep results")
    report_parser.add_argument("--store", default=DEFAULT_STORE_PATH, metavar="PATH")
    report_parser.add_argument(
        "--group-by",
        default="scenario,adversary",
        metavar="CSV",
        help="record fields forming a group (default: %(default)s)",
    )
    report_parser.add_argument(
        "--metric",
        action="append",
        metavar="DOTTED.PATH",
        help=f"analysis metric(s) to aggregate (default: {', '.join(DEFAULT_REPORT_METRICS)})",
    )
    report_parser.add_argument(
        "--viz",
        default=None,
        metavar="KEY",
        help="re-derive and draw the run of one stored cell (key or unique prefix)",
    )
    report_parser.add_argument("--json", action="store_true", help="emit JSON")
    report_parser.add_argument(
        "--telemetry",
        action="store_true",
        help="emit the persisted sweep telemetry records as JSON",
    )
    report_parser.add_argument(
        "--html",
        default=None,
        metavar="PATH",
        help="write a static HTML dashboard (tables, telemetry, diagrams)",
    )
    report_parser.add_argument(
        "--diagrams",
        type=int,
        default=3,
        metavar="N",
        help="space-time diagrams to embed in --html (default: %(default)s)",
    )

    export_parser = sub.add_parser(
        "export", help="export a cell's graphs as GraphML or DOT"
    )
    export_parser.add_argument("scenario", help="registered scenario name")
    export_parser.add_argument(
        "--set", action="append", metavar="NAME=VALUE", help="override one parameter"
    )
    export_parser.add_argument("--adversary", default="earliest", choices=ADVERSARIES)
    export_parser.add_argument("--seed", type=int, default=0)
    export_parser.add_argument("--horizon", type=int, default=None)
    export_parser.add_argument(
        "--graph",
        default="bounds",
        choices=("bounds", "extended", "causal"),
        help="which graph: the basic bounds graph GB(r), the extended bounds "
        "graph GE(r, sigma), or the causal-past DAG (default: %(default)s)",
    )
    export_parser.add_argument(
        "--sigma",
        default=None,
        metavar="PROCESS[@TIME]",
        help="observer node for --graph extended (default: first process, "
        "final state)",
    )
    export_parser.add_argument(
        "--format",
        default="graphml",
        choices=("graphml", "dot"),
        help="output format (default: %(default)s)",
    )
    export_parser.add_argument(
        "--output", default=None, metavar="PATH", help="write here instead of stdout"
    )

    worker_parser = sub.add_parser(
        "worker", help="join a sweep coordinator as a remote worker"
    )
    worker_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT", help="coordinator address"
    )
    worker_parser.add_argument(
        "--id", default=None, metavar="NAME", help="worker id (default: host-pid)"
    )
    worker_parser.add_argument(
        "--heartbeat-s",
        type=float,
        default=1.0,
        metavar="S",
        help="heartbeat interval (default: %(default)s)",
    )
    worker_parser.add_argument(
        "--connect-timeout-s",
        type=float,
        default=30.0,
        metavar="S",
        help="give up when the coordinator stays unreachable this long "
        "(default: %(default)s)",
    )
    worker_parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="deterministic fault plan for this worker "
        "(KIND@POINT:WHEN[:ARG], e.g. 'kill@worker.shard:1')",
    )
    worker_parser.add_argument(
        "--verbose", action="store_true", help="log leases and lifecycle events"
    )

    serve_parser = sub.add_parser(
        "serve", help="serve sweeps and cached results over HTTP"
    )
    serve_parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="HTTP endpoint to bind; port 0 picks an ephemeral port "
        "(default: %(default)s)",
    )
    serve_parser.add_argument(
        "--store",
        default=DEFAULT_STORE_PATH,
        metavar="PATH",
        help="result store backing the service (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--workers-listen",
        default=None,
        metavar="HOST:PORT",
        help="also run a sweep coordinator here for `repro worker` fleets "
        "(default: execute cold cells inline, still through the scheduler)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_SWEEP_WORKERS,
        metavar="N",
        help="expected worker count / inline parallelism hint "
        "(default: %(default)s)",
    )
    serve_parser.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="N",
        help="cells per dispatched shard (default: auto)",
    )
    serve_parser.add_argument(
        "--local-fallback-s",
        type=float,
        default=10.0,
        metavar="S",
        help="with --workers-listen: run shards inline when no worker takes "
        "them this long (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--max-cells",
        type=int,
        default=10_000,
        metavar="N",
        help="reject specs expanding past this many cells (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--rotate-bytes",
        type=int,
        default=DEFAULT_ROTATE_BYTES,
        metavar="N",
        help=_ROTATE_BYTES_HELP,
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log requests and sweep lifecycle"
    )

    store_parser = sub.add_parser(
        "store", help="inspect and maintain the segmented result store"
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)
    verify_parser = store_sub.add_parser(
        "verify", help="CRC-check every sealed record and the index"
    )
    verify_parser.add_argument(
        "--repair",
        action="store_true",
        help="drop corrupt records, recover the tail, rebuild the index",
    )
    migrate_parser = store_sub.add_parser(
        "migrate", help="upgrade a legacy single-file store to segments + index"
    )
    compact_parser = store_sub.add_parser(
        "compact", help="rewrite the store keeping the newest record per key"
    )
    info_parser = store_sub.add_parser("info", help="print the store layout")
    for sub_parser in (verify_parser, migrate_parser, compact_parser, info_parser):
        sub_parser.add_argument("--store", default=DEFAULT_STORE_PATH, metavar="PATH")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "list": _cmd_list,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "export": _cmd_export,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "store": _cmd_store,
    }
    try:
        _check_flag_bounds(args)
        return commands[args.command](args, sys.stdout)
    except (CliError, SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream (e.g. `repro list | head`) closed the pipe: exit quietly,
        # pointing stdout at devnull so interpreter shutdown does not re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
