"""The sweep workloads: ``sweep-flood`` and ``sweep-coord``.

One closed-loop client repeats, until the run's seconds are spent:

* a cold ``repro sweep`` on a fresh store (a *write*: every cell executes),
* then :data:`READS_PER_WRITE` times: the same command again (a *read*:
  every cell is a cache hit) and ``repro report --json`` over that store (a
  *report*).

A read or a report is mostly interpreter start and imports, whose time
swings by a fifth from one command to the next on a shared host, so each
cold sweep is followed by several of them to give their medians enough
samples.

Set-up time is the same sweep command with ``--dry-run`` (interpreter start,
imports and grid expansion), measured before the timed region.  The output
check runs after it: each store must hold exactly the cells the dry run
planned, with ``analyses`` equal to a serial in-process recomputation.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, List

from . import checks, ledger, procs, workloads
from .report import Result, ledger_table, put_latencies
from .stats import OpLog, failed_fraction

SETUP_REPS = 9
READS_PER_WRITE = 3


class SweepRunner:
    def __init__(self, root: str, work: str, name: str, seed: int):
        self.root = root
        self.work = work
        self.env = procs.repro_env(root)
        self.input = workloads.sweep_input(name, seed)
        self.recompute = checks.Recompute()
        self._dirs = 0
        self.peak_rss_mb = 0.0

    # -- plumbing ------------------------------------------------------------

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.work, f"run-{self._dirs:03d}")
        os.makedirs(path)
        return path

    def run(self, argv: List[str], where: str) -> procs.Finished:
        done = procs.run(argv, self.root, self.env, os.path.join(where, f"log-{time.monotonic_ns()}"))
        self.peak_rss_mb = max(self.peak_rss_mb, done.maxrss_mb)
        return done

    def sweep_argv(self, store: str, *extra: str) -> List[str]:
        return procs.repro_argv("sweep", *self.input.args, "--store", store, *extra)

    def summary_line(self, executed: int, cached: int) -> str:
        cells = self.input.cells
        return f"{cells} cells: {executed} executed, {cached} cached, 0 errors"

    # -- phases --------------------------------------------------------------

    def setup(self) -> tuple:
        """Median ``--dry-run`` wall time, and the planned key prefixes."""
        where = self.fresh_dir()
        walls, prefixes = [], []
        for _ in range(SETUP_REPS):
            done = self.run(self.sweep_argv(os.path.join(where, "results.jsonl"), "--dry-run"), where)
            if done.returncode != 0:
                raise RuntimeError(f"dry run failed ({done.returncode}): {done.output[-2000:]}")
            walls.append(done.wall_s)
            prefixes = checks.dry_run_prefixes(done.output)
        if len(prefixes) != self.input.cells:
            raise RuntimeError(f"dry run planned {len(prefixes)} cells, expected {self.input.cells}")
        return statistics.median(walls), prefixes

    def cold(self, ops: Dict[str, OpLog], store: str, where: str) -> procs.Finished:
        done = self.run(self.sweep_argv(store), where)
        ok = done.returncode == 0 and self.summary_line(self.input.cells, 0) in done.output
        ops["write"].record(done.wall_s * 1000, ok, f"cold sweep: {done.output[-300:]}")
        return done

    def timed_loop(self, seconds: float, ops: Dict[str, OpLog]) -> tuple:
        """Stores swept, and the wall time of each write-read-report cycle."""
        stores: List[str] = []
        cycles: List[float] = []
        deadline = time.perf_counter() + seconds
        while not stores or time.perf_counter() < deadline:
            started = time.perf_counter()
            where = self.fresh_dir()
            store = os.path.join(where, "results.jsonl")
            self.cold(ops, store, where)
            stores.append(store)
            for _ in range(READS_PER_WRITE):
                done = self.run(self.sweep_argv(store), where)
                ok = done.returncode == 0 and self.summary_line(0, self.input.cells) in done.output
                ops["read"].record(done.wall_s * 1000, ok, f"warm sweep: {done.output[-300:]}")
                done = self.run(procs.repro_argv("report", "--json", "--store", store), where)
                ok = done.returncode == 0 and self._report_cells(done.output) == self.input.cells
                ops["report"].record(done.wall_s * 1000, ok, f"report: {done.output[-300:]}")
            cycles.append(time.perf_counter() - started)
        return stores, cycles

    @staticmethod
    def _report_cells(output: str) -> int:
        try:
            return sum(group["cells"] for group in json.loads(output))
        except (ValueError, TypeError, KeyError):
            return -1

    def verify(self, stores: List[str], prefixes: List[str], ops: Dict[str, OpLog], result: Result) -> None:
        for store in stores:
            problems = checks.check_sweep_records(checks.cell_records(store), prefixes, self.recompute)
            if problems:
                ops["write"].fail(problems[0])
                result.problems.extend(problems)

    # -- the two kinds of run --------------------------------------------------

    def measure(self, seconds: float) -> Result:
        result = Result(self.input.name)
        setup_s, prefixes = self.setup()
        ops = {"read": OpLog(), "report": OpLog(), "write": OpLog()}
        stores, cycles = self.timed_loop(seconds, ops)
        self.verify(stores, prefixes, ops, result)

        # A mean, not a median: the host slows down in spells of several
        # seconds, and a median over a handful of sweeps jumps by the size of
        # a spell depending on how many sweeps one covers.
        writes = ops["write"].latencies_ms
        wall_s = statistics.mean(writes) / 1000
        result.lines.append(f"  sweep args: {' '.join(self.input.args)}")
        result.put("setup_s", setup_s, "s", f"median of {SETUP_REPS} --dry-run")
        result.put("wall_s", wall_s, "s", f"mean cold sweep (n={len(writes)})")
        result.put("cells_per_s", self.input.cells / (wall_s - setup_s), "1/s", f"{self.input.cells} cells")
        result.put("peak_rss_mb", self.peak_rss_mb, "MB", "largest process of any timed command")
        total_ops = sum(log.attempted for log in ops.values())
        result.put("req_per_s", total_ops / sum(cycles), "1/s",
                   f"{total_ops} commands in {sum(cycles):.1f}s")
        put_latencies(result, ops)
        result.put("failed_frac", failed_fraction(ops), "1")
        result.attempted = total_ops
        result.failed = sum(log.failed for log in ops.values())
        for log in ops.values():
            result.problems.extend(log.errors)
        return result

    def trace(self, seconds: float) -> Result:
        """Pairs of (untraced, traced) cold sweeps; per-layer medians."""
        result = Result(self.input.name)
        _, prefixes = self.setup()
        ops = {"write": OpLog()}
        samples: List[Dict[str, float]] = []
        stores: List[str] = []
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            where = self.fresh_dir()
            # Alternate which side of the pair runs first.
            if len(samples) % 2:
                traced, spans = self.traced_sweep(ops, where, "traced")
                plain = self.cold(ops, os.path.join(where, "plain.jsonl"), where)
            else:
                plain = self.cold(ops, os.path.join(where, "plain.jsonl"), where)
                traced, spans = self.traced_sweep(ops, where, "traced")
            stores += [os.path.join(where, "plain.jsonl"), os.path.join(where, "traced.jsonl")]
            compute = spans
            if self.input.workers > 1:
                _, compute = self.traced_sweep(ops, where, "replay", "--workers", "1")
                stores.append(os.path.join(where, "replay.jsonl"))
            samples.append(
                self.layer_metrics(plain, traced, spans, compute, os.path.join(where, "plain.jsonl"))
            )
        self.verify(stores, prefixes, ops, result)
        result.lines.append(f"  traced pairs: {len(samples)}")
        result.lines.extend(ledger_table("traced command", samples[-1]["_layers"], samples[-1]["_wall"]))
        if self.input.workers > 1:
            replay = samples[-1]["_compute"]
            result.lines.extend(ledger_table("traced serial replay", replay, sum(replay.values())))
        for name, unit in ledger.METRIC_UNITS.items():
            values = [sample.get(name, 0.0) for sample in samples]
            result.put(name, statistics.median(values), unit)
        result.attempted = ops["write"].attempted
        result.failed = ops["write"].failed
        result.problems.extend(ops["write"].errors)
        return result

    def traced_sweep(self, ops: Dict[str, OpLog], where: str, label: str, *extra: str):
        spans_path = os.path.join(where, f"{label}.spans.json")
        argv = [
            procs.PYTHON, os.path.join(self.root, "perfbench", "traced.py"), spans_path, "--",
            "sweep", *self.input.args, "--store", os.path.join(where, f"{label}.jsonl"), *extra,
        ]
        done = self.run(argv, where)
        ok = done.returncode == 0 and self.summary_line(self.input.cells, 0) in done.output
        ops["write"].record(done.wall_s * 1000, ok, f"traced sweep: {done.output[-300:]}")
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
        spans["spawned"], spans["reaped"] = done.started, done.ended
        return done, spans

    def layer_metrics(self, plain, traced, spans, compute, plain_store) -> Dict[str, float]:
        """Per-layer values of one pair.

        ``spans`` come from the traced command itself (startup, runner,
        store, executor dispatch); ``compute`` from the process that ran the
        cells -- the same one for a serial sweep, a traced serial replay of
        the same cells for a parallel one.
        """
        proc = ledger.Ledger(spans["spans"])
        cells = ledger.Ledger(compute["spans"])
        counters = compute["counters"]
        wall = spans["reaped"] - spans["spawned"]
        boot = spans["started"] - spans["spawned"]
        covered = boot + proc.covered(spans["started"], spans["reaped"])
        n = self.input.cells
        values = {
            "startup.boot_s": boot,
            "startup.import_s": proc.self_s["startup.import"],
            "runner.expand_s": proc.self_s["runner.expand"],
            "runner.scan_s": proc.self_s["runner.scan"],
            "runner.scan_probes": proc.within("store.get", "runner.scan"),
            "bounds_graph.builds_per_cell": cells.count["bounds_graph.build"] / n,
            "longest_paths.rows_computed": counters["engine.rows_computed"],
            "knowledge_session.resets": counters["session.resets"],
            "optimal.guard_evals": cells.count["optimal.guard"],
            "store.open_s": proc.self_s["store.open"],
            "store.get_s": proc.self_s["store.get"],
            "store.put_s": proc.self_s["store.put"],
            "store.index_hit_ratio": _ratio(
                spans["counters"]["store.index_hits"], spans["counters"]["store.lookups"]
            ),
            "trace.overhead_ratio": traced.wall_s / plain.wall_s,
            "ledger.unaccounted_share": max(0.0, 1.0 - covered / wall),
        }
        values.update(cells.compute_layers())
        if self.input.workers > 1:
            values.update(executor_metrics(plain_store, self.input.workers))
        values["_layers"] = dict(proc.self_s)
        values["_compute"] = dict(cells.self_s)
        values["_wall"] = wall
        return values


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def executor_metrics(store: str, workers: int) -> Dict[str, float]:
    """Executor layer of an untraced parallel sweep, from its own
    ``sweep_telemetry`` record and per-cell durations."""
    from repro.experiments.runner import TELEMETRY_KIND
    from repro.experiments.store import ResultStore

    records = ResultStore(store).records()
    telemetry = next(r for r in records if r.get("kind") == TELEMETRY_KIND)
    compute_s = sum(r.get("duration_s", 0.0) for r in records if r.get("status") == "ok")
    execute_s = telemetry["timings"]["execute_s"]
    return {
        "executors.busy_share": telemetry.get("worker_utilization") or 0.0,
        "executors.overhead_s": execute_s - compute_s / workers,
        "executors.shards": len(telemetry.get("shards", ())),
    }
