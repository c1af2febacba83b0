"""The ``serve-mixed`` workload: one closed-loop HTTP client on ``repro serve``.

Before any timing the code under test builds the store (a ``repro sweep`` of
~10^4 cheap cells), and set-up time is measured as spawn-to-first-
``/healthz``-200 of a fresh server, several times.

The timed region is a series of *rounds*, run until the run's seconds are
spent.  Each round starts a server on a fresh copy of the built store, so
every round does the same work on the same state (appends grow the store's
tail, which every request re-reads, so rounds that started from different
states would not compare).  In a round one client, on one persistent
HTTP/1.1 connection, replays the seeded schedule of writes, reports and
reads: ``POST /sweeps`` read through ``GET /sweeps/{id}/events`` to the
``end`` event (a write, timed from the POST to ``end``), ``GET /report``
and ``GET /results/{key}``, one of whose keys is absent and must 404.

Every attempt counts; refused or failed requests are failures.  After each
round's server stops, each read body is compared with the store's record,
each report's ``records`` with the ok-cell count the store had, and each
write's ``complete`` counts with its grid.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import socket
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import checks, ledger, procs, workloads
from .report import Result, ledger_table, put_latencies
from .stats import OpLog, failed_fraction

SETUP_REPS = 5
#: Requests in one round.
ROUND_OPS = workloads.BLOCKS_PER_ROUND * sum(map(len, workloads.BLOCK))
REQUEST_TIMEOUT_S = 60.0


#: The line ``repro serve`` prints once bound (``serve: listening on HOST:PORT``).
LISTENING = "serve: listening on "


@dataclass
class ClientLog:
    ops: Dict[str, OpLog] = field(
        default_factory=lambda: {"read": OpLog(), "report": OpLog(), "write": OpLog()}
    )
    reads: List[Tuple[str, bool, Optional[str], int]] = field(default_factory=list)
    reports: List[Tuple[int, int]] = field(default_factory=list)  # (lower bound, records)
    delivered_cells: int = 0
    write_s: float = 0.0
    intervals: List[Tuple[float, float]] = field(default_factory=list)


class Client:
    def __init__(self, port: int, ops: List[workloads.Op], base_cells: int):
        self.port = port
        self.ops = ops
        #: Ok cells in the store once every write so far has ended.
        self.stored_cells = base_cells
        self.log = ClientLog()
        self.conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        return self.conn

    def _get(self, path: str) -> Tuple[int, bytes]:
        conn = self._connection()
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()

    def run(self) -> None:
        """Replay the schedule."""
        try:
            for op in self.ops:
                started = time.perf_counter()
                try:
                    ok, error = getattr(self, op.kind)(op)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    ok, error = False, f"{op.kind}: {type(exc).__name__}: {exc}"
                    if self.conn is not None:
                        self.conn.close()
                    self.conn = None
                ended = time.perf_counter()
                self.log.intervals.append((started, ended))
                self.log.ops[op.kind].record((ended - started) * 1000, ok, error)
                if op.kind == "write":
                    self.log.write_s += ended - started
        finally:
            if self.conn is not None:
                self.conn.close()

    def read(self, op: workloads.Op) -> Tuple[bool, str]:
        status, body = self._get(f"/results/{op.key}")
        found = checks.digest(json.loads(body)) if status == 200 else None
        self.log.reads.append((op.key, op.absent, found, status))
        return status in (200, 404), f"read {op.key[:12]}: HTTP {status}"

    def report(self, op: workloads.Op) -> Tuple[bool, str]:
        status, body = self._get("/report")
        if status != 200:
            return False, f"report: HTTP {status}"
        self.log.reports.append((self.stored_cells, int(json.loads(body)["records"])))
        return True, ""

    def write(self, op: workloads.Op) -> Tuple[bool, str]:
        conn = self._connection()
        conn.request("POST", "/sweeps", body=json.dumps(op.spec),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read())
        if response.status not in (200, 201):
            return False, f"write: POST HTTP {response.status}: {body}"
        stream = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            stream.request("GET", f"/sweeps/{body['sweep']}/events")
            lines = stream.getresponse().read().decode("utf-8").splitlines()
        finally:
            stream.close()
        events = [json.loads(line) for line in lines if line.strip()]
        end = events[-1] if events else {}
        complete = next((e for e in events if e.get("event") == "complete"), None)
        if end.get("event") != "end" or end.get("status") != "done" or complete is None:
            return False, f"write {body['sweep']}: stream ended with {end}"
        cells = complete["cells"]
        if (
            cells["executed"] + cells["cached"] != cells["total"]
            or cells["errors"]
            or cells["total"] != body["cells"]["total"]
            or cells["executed"] != op.new_cells
        ):
            return False, f"write {body['sweep']}: counts {cells}, expected {op.new_cells} new"
        self.log.delivered_cells += cells["total"]
        self.stored_cells += cells["executed"]
        return True, ""


@dataclass
class Round:
    client: Client
    wall_s: float
    maxrss_mb: float
    spawned: float
    spans: Optional[dict] = None


class ServeRunner:
    def __init__(self, root: str, work: str, seed: int):
        self.root = root
        self.work = work
        self.env = procs.repro_env(root)
        self.input = workloads.serve_input(seed)
        self._copies = 0
        self.base_store = ""
        self.keys: List[str] = []

    # -- store and server ----------------------------------------------------

    def build_store(self) -> None:
        """The store, built by the code under test before any timing."""
        where = os.path.join(self.work, "base")
        os.makedirs(where)
        self.base_store = os.path.join(where, "results.jsonl")
        # Serial, so the store's layout (which records sit in sealed segments
        # and which in the tail) is the same in every run.
        argv = procs.repro_argv(
            "sweep", *self.input.store_args, "--workers", "1", "--store", self.base_store
        )
        done = procs.run(argv, self.root, self.env, os.path.join(self.work, "build.log"))
        cells = self.input.store_cells
        if done.returncode != 0 or f"{cells} cells: {cells} executed" not in done.output:
            raise RuntimeError(f"store build failed ({done.returncode}): {done.output[-2000:]}")
        self.keys = workloads.store_keys(self.input)

    def store_copy(self) -> str:
        """A fresh copy of the built store."""
        self._copies += 1
        where = os.path.join(self.work, f"copy-{self._copies:03d}")
        shutil.copytree(os.path.dirname(self.base_store), where)
        return os.path.join(where, os.path.basename(self.base_store))

    def spawn(self, store: str, spans: Optional[str] = None) -> Tuple[procs.Child, int, float]:
        """Start a server; returns it, its port and spawn-to-healthy seconds."""
        args = ["serve", "--listen", "127.0.0.1:0", "--store", store]
        if spans is None:
            argv = procs.repro_argv(*args)
        else:
            argv = [procs.PYTHON, os.path.join(self.root, "perfbench", "traced.py"), spans, "--", *args]
        child = procs.Child(argv, self.root, self.env, store + ".serve.log")
        try:
            port = self._wait_listening(child)
            ready = self._wait_healthy(child, port)
        except BaseException:
            child.signal(9)
            child.wait(10)
            raise
        return child, port, ready - child.started

    @staticmethod
    def _wait_listening(child: procs.Child) -> int:
        """The ephemeral port the server prints once it is bound."""
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            if child.exited():
                raise RuntimeError(f"server exited early: {child.wait(1).output[-2000:]}")
            with open(child.log_path, encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    if line.startswith(LISTENING):
                        return int(line.strip().rpartition(":")[2])
            time.sleep(0.002)
        raise RuntimeError("server never printed its address")

    @staticmethod
    def _wait_healthy(child: procs.Child, port: int) -> float:
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            if child.exited():
                raise RuntimeError(f"server exited early: {child.wait(1).output[-2000:]}")
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                body = response.read()
                if response.status == 200 and json.loads(body).get("ok") is True:
                    return time.perf_counter()
            except (ConnectionError, http.client.HTTPException, socket.timeout):
                time.sleep(0.002)
            finally:
                conn.close()
        raise RuntimeError("server never became healthy")

    @staticmethod
    def stop(child: procs.Child) -> procs.Finished:
        done = child.stop()
        if done.returncode != 0:
            raise RuntimeError(f"server exited with {done.returncode}: {done.output[-2000:]}")
        return done

    def setup(self) -> float:
        store = self.store_copy()
        walls = []
        for _ in range(SETUP_REPS):
            child, _, ready_s = self.spawn(store)
            self.stop(child)
            walls.append(ready_s)
        return statistics.median(walls)

    def round(self, traced: bool = False) -> Round:
        """One round on a fresh store copy; checks its outputs afterwards."""
        store = self.store_copy()
        spans_path = store + ".spans.json" if traced else None
        child, port, _ = self.spawn(store, spans_path)
        client = Client(port, self.input.schedule(self.keys), len(self.keys))
        try:
            started = time.perf_counter()
            client.run()
            wall_s = time.perf_counter() - started
        finally:
            finished = self.stop(child)
        self.verify(store, client)
        spans = None
        if spans_path is not None:
            with open(spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)
        return Round(client, wall_s, finished.maxrss_mb, child.started, spans)

    # -- checks --------------------------------------------------------------

    def verify(self, store: str, client: Client) -> None:
        from repro.experiments.store import ResultStore

        view = ResultStore(store)
        final_cells = len(checks.cell_records(store))
        ops = client.log.ops
        for key, absent, found, status in client.log.reads:
            problem = ""
            if absent and status != 404:
                problem = f"absent key {key[:12]} answered HTTP {status}"
            elif not absent and status == 404:
                problem = f"stored key {key[:12]} answered 404"
            elif status == 200 and found != checks.digest(view.get(key)):
                problem = f"/results/{key[:12]} differs from the store's record"
            if problem:
                ops["read"].fail(problem)
        for lower, records in client.log.reports:
            if not lower <= records <= final_cells:
                ops["report"].fail(f"/report records {records} outside [{lower}, {final_cells}]")

    # -- the two kinds of run --------------------------------------------------

    def measure(self, seconds: float) -> Result:
        result = Result("serve-mixed")
        self.build_store()
        setup_s = self.setup()
        rounds: List[Round] = []
        while sum(r.wall_s for r in rounds) < seconds:
            rounds.append(self.round())

        ops = {kind: OpLog() for kind in ("read", "report", "write")}
        for client in (r.client for r in rounds):
            for kind, log in client.log.ops.items():
                ops[kind].latencies_ms.extend(log.latencies_ms)
                ops[kind].failed += log.failed
                result.problems.extend(log.errors)
        total = sum(log.attempted for log in ops.values())
        elapsed = sum(r.wall_s for r in rounds)
        write_s = sum(r.client.log.write_s for r in rounds)
        delivered = sum(r.client.log.delivered_cells for r in rounds)
        result.lines.append(
            f"  store: {len(self.keys)} cells; {len(rounds)} rounds, {total} requests in {elapsed:.1f}s"
        )
        result.put("setup_s", setup_s, "s", f"median spawn-to-healthz of {SETUP_REPS}")
        result.put("wall_s", elapsed / len(rounds), "s",
                   f"mean round: {ROUND_OPS} requests (n={len(rounds)})")
        result.put("cells_per_s", delivered / write_s if write_s else None, "1/s",
                   f"{delivered} cells delivered by writes in {write_s:.2f}s of write latency")
        result.put("peak_rss_mb", max(r.maxrss_mb for r in rounds), "MB", "server process")
        result.put("req_per_s", total / elapsed, "1/s", f"{total} requests, 1 client")
        put_latencies(result, ops)
        result.put("failed_frac", failed_fraction(ops), "1")
        result.attempted = total
        result.failed = sum(log.failed for log in ops.values())
        return result

    def trace(self, seconds: float) -> Result:
        """Pairs of (untraced, traced) rounds; per-layer medians."""
        result = Result("serve-mixed")
        self.build_store()
        samples: List[Dict[str, float]] = []
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            # Alternate which side of the pair runs first.
            if len(samples) % 2:
                traced, plain = self.round(traced=True), self.round()
            else:
                plain, traced = self.round(), self.round(traced=True)
            samples.append(layer_metrics(plain, traced))
            for client in (plain.client, traced.client):
                for log in client.log.ops.values():
                    result.attempted += log.attempted
                    result.failed += log.failed
                    result.problems.extend(log.errors)
        result.lines.append(f"  traced pairs: {len(samples)}, {ROUND_OPS} requests per round")
        last = samples[-1]
        result.lines.extend(ledger_table("traced server, over its threads", last["_layers"], last["_wall"]))
        for name, unit in ledger.METRIC_UNITS.items():
            result.put(name, statistics.median(s.get(name, 0.0) for s in samples), unit)
        return result


def layer_metrics(plain: Round, traced: Round) -> Dict[str, float]:
    spans = traced.spans
    server = ledger.Ledger(spans["spans"])
    counters = spans["counters"]
    intervals = traced.client.log.intervals
    requests = ledger.merge(intervals)
    handled = ledger.merge(
        iv for span, iv in zip(server.spans, server.intervals()) if span[2] != "startup.import"
    )
    executed = counters["sweep.cells_executed"]
    lookups = counters["store.lookups"]
    values = {
        "startup.boot_s": spans["started"] - traced.spawned,
        "startup.import_s": server.self_s["startup.import"],
        "runner.expand_s": server.self_s["runner.expand"],
        "runner.scan_s": server.self_s["runner.scan"],
        "runner.scan_probes": server.within("store.get", "runner.scan"),
        "bounds_graph.builds_per_cell": server.count["bounds_graph.build"] / executed if executed else 0.0,
        "longest_paths.rows_computed": counters["engine.rows_computed"],
        "knowledge_session.resets": counters["session.resets"],
        "optimal.guard_evals": server.count["optimal.guard"],
        "store.open_s": server.self_s["store.open"],
        "store.get_s": server.self_s["store.get"],
        "store.put_s": server.self_s["store.put"],
        "store.index_hit_ratio": counters["store.index_hits"] / lookups if lookups else 0.0,
        "serve.handle_s.results": server.inclusive("serve.handle.results"),
        "serve.handle_s.report": server.inclusive("serve.handle.report"),
        "serve.handle_s.sweeps": server.inclusive("serve.handle.sweeps"),
        "serve.wire_s": sum(end - start for start, end in intervals) - server.inclusive("serve.request"),
        "reporting.report_s": server.self_s["reporting.report"],
        "reporting.cache_hit_ratio": (
            spans["reports_from_cache"] / spans["reports"] if spans["reports"] else 0.0
        ),
        "trace.overhead_ratio": traced.wall_s / plain.wall_s,
        "ledger.unaccounted_share": 1.0 - ledger.overlap(requests, handled) / ledger.union_length(requests),
    }
    values.update(server.compute_layers())
    values["_layers"] = dict(server.self_s)
    values["_wall"] = traced.wall_s
    return values
