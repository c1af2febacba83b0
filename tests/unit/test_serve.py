"""Unit tests for ``repro serve``: endpoint parsing, spec validation, and
the HTTP surface of :class:`repro.experiments.serve.SweepService`.

The service under test binds an ephemeral loopback port with no worker
fleet, so cold cells run through the scheduler's inline fallback — the
same exactly-once dedup path a real deployment uses.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments import SweepError, faults
from repro.experiments.cli import _rotate_bytes, build_parser
from repro.experiments.cli import main as cli_main
from repro.experiments.remote import read_message, run_worker, send_message
from repro.experiments.serve import (
    SpecError,
    SweepService,
    parse_endpoint,
    validate_spec,
)
from repro.experiments.store import DEFAULT_ROTATE_BYTES


class TestParseEndpoint:
    def test_host_port(self):
        assert parse_endpoint("10.0.0.1:8080", resolve=False) == ("10.0.0.1", 8080)

    def test_empty_host_means_loopback(self):
        assert parse_endpoint(":8080", resolve=False) == ("127.0.0.1", 8080)

    def test_bracketed_ipv6(self):
        assert parse_endpoint("[::1]:9", resolve=False) == ("::1", 9)

    def test_missing_port(self):
        with pytest.raises(SweepError, match="missing port"):
            parse_endpoint("localhost")

    def test_empty_port(self):
        with pytest.raises(SweepError, match="missing port"):
            parse_endpoint("localhost:")

    def test_non_numeric_port(self):
        with pytest.raises(SweepError, match="numeric port"):
            parse_endpoint("localhost:http")

    def test_out_of_range_port(self):
        with pytest.raises(SweepError, match=r"\[0, 65535\]"):
            parse_endpoint("localhost:99999")

    def test_unresolvable_host(self):
        with pytest.raises(SweepError, match="cannot resolve host"):
            parse_endpoint("definitely.not.a.real.host.invalid:80")

    def test_resolvable_host(self):
        assert parse_endpoint("localhost:80") == ("localhost", 80)


class TestEndpointCliErrors:
    """Satellite bugfix: malformed endpoints exit 2, never traceback."""

    def test_sweep_remote_missing_port(self, capsys):
        assert cli_main(["sweep", "--backend", "fabric", "--listen", "127.0.0.1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_remote_non_numeric_port(self, capsys):
        assert cli_main(["sweep", "--backend", "fabric", "--listen", "host:http"]) == 2
        assert "numeric port" in capsys.readouterr().err

    def test_sweep_remote_out_of_range_port(self, capsys):
        assert (
            cli_main(["sweep", "--backend", "fabric", "--listen", "127.0.0.1:99999"])
            == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_sweep_remote_bad_host(self, capsys):
        assert (
            cli_main(
                ["sweep", "--backend", "fabric", "--listen", "no.such.host.invalid:1"]
            )
            == 2
        )
        assert "cannot resolve host" in capsys.readouterr().err

    def test_worker_missing_port(self, capsys):
        assert cli_main(["worker", "--connect", "127.0.0.1"]) == 2
        assert "missing port" in capsys.readouterr().err

    def test_worker_bad_host_fails_fast_not_retry_loop(self, capsys):
        started = time.perf_counter()
        assert cli_main(["worker", "--connect", "no.such.host.invalid:7641"]) == 2
        # Before the fix this spun in the connect-retry loop for the whole
        # --connect-timeout-s (30s default).
        assert time.perf_counter() - started < 5.0
        assert "cannot resolve host" in capsys.readouterr().err

    def test_serve_non_numeric_port(self, capsys):
        assert cli_main(["serve", "--listen", "127.0.0.1:web"]) == 2
        assert "numeric port" in capsys.readouterr().err

    def test_serve_bad_workers_listen(self, capsys):
        assert cli_main(["serve", "--workers-listen", "127.0.0.1"]) == 2
        assert "missing port" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--rotate-bytes", "-5"),
            ("--shard-size", "0"),
            ("--workers", "0"),
            ("--max-cells", "0"),
            ("--local-fallback-s", "-5"),
            ("--local-fallback-s", "nan"),
        ],
    )
    def test_serve_out_of_range_number(self, capsys, flag, value):
        # Rejected before binding: a server would block this call in join().
        assert cli_main(["serve", "--listen", "127.0.0.1:0", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{flag} must be >= " in err


class TestWorkerEndpoints:
    """``run_worker`` parses ``--connect`` with ``parse_endpoint`` too."""

    @pytest.mark.parametrize(
        "family, bind_host, connect",
        [
            (socket.AF_INET, "127.0.0.1", ":{port}"),
            (socket.AF_INET6, "::1", "[::1]:{port}"),
        ],
        ids=["empty-host", "bracketed-ipv6"],
    )
    def test_worker_reaches_coordinator(self, family, bind_host, connect):
        try:
            listener = socket.socket(family, socket.SOCK_STREAM)
            listener.bind((bind_host, 0))
        except OSError:
            pytest.skip(f"cannot bind {bind_host}")
        listener.listen(1)
        listener.settimeout(10.0)
        hello = []

        def coordinator():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                hello.append(read_message(reader))
                send_message(conn, {"type": "shutdown"})
                while read_message(reader) is not None:
                    pass  # drain until the worker hangs up

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        try:
            address = connect.format(port=listener.getsockname()[1])
            assert run_worker(address, worker_id="w", connect_timeout_s=5.0) == 0
        finally:
            faults.reset()  # run_worker marks this process as a worker
            thread.join(timeout=10.0)
            listener.close()
        assert hello[0]["type"] == "hello" and hello[0]["worker"] == "w"


# The grids of the README and the serve-smoke CI job, spelled both ways.
_PARITY_GRIDS = {
    "serve-smoke-torus": (
        ["--scenario", "torus-flood", "--adversary", "random", "--seeds", "24",
         "--set", "rows=5", "--set", "cols=5", "--set", "horizon=16"],
        {"scenarios": ["torus-flood"], "adversaries": ["random"], "seeds": 24,
         "params": {"rows": [5], "cols": [5], "horizon": [16]}},
    ),
    "figure1-lower-cb": (
        ["--scenario", "figure1", "--seeds", "4", "--set", "lower_cb=8,10,12"],
        {"scenarios": ["figure1"], "seeds": 4, "params": {"lower_cb": [8, 10, 12]}},
    ),
    "default": (
        [],
        {"scenarios": ["flooding", "torus-flood", "tree-flood"], "seeds": 4},
    ),
}


class TestCliSpecParity:
    """``repro sweep`` flags and the equivalent ``POST /sweeps`` spec build
    the same cells, so a CLI ``--resume`` finds what serve persisted."""

    @pytest.mark.parametrize("grid", sorted(_PARITY_GRIDS))
    def test_cli_and_spec_build_the_same_keys(self, capsys, grid):
        flags, spec = _PARITY_GRIDS[grid]
        assert cli_main(["sweep", *flags, "--dry-run"]) == 0
        lines = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        ]
        cells, _ = validate_spec(spec)
        assert len(lines) == len(cells)
        assert set(lines) == {cell.key()[:12] for cell in cells}

    @pytest.mark.parametrize(
        "spec, normalized, sweep_id",
        [
            (
                _PARITY_GRIDS["serve-smoke-torus"][1],
                {"scenarios": ["torus-flood"], "adversaries": ["random"],
                 "seeds": list(range(24)), "horizon": None,
                 "params": {"rows": [5], "cols": [5], "horizon": [16]}},
                "sweep-d339770267eb",
            ),
            (
                {"scenarios": ["line-flood"], "adversaries": ["earliest", "latest"],
                 "seeds": 2, "horizon": 4},
                {"scenarios": ["line-flood"], "adversaries": ["earliest", "latest"],
                 "seeds": [0, 1], "horizon": 4, "params": {}},
                "sweep-c7f5862a117f",
            ),
        ],
        ids=["torus", "line-flood"],
    )
    def test_serve_smoke_spec_and_sweep_id_unchanged(
        self, tmp_path, spec, normalized, sweep_id
    ):
        assert validate_spec(spec)[1] == normalized
        # Never started: the job is only queued, nothing executes.
        job, created = SweepService(str(tmp_path / "results.jsonl")).submit(spec)
        assert created and job.id == sweep_id


class TestRotateBytes:
    """``--rotate-bytes`` and ``SweepService(rotate_bytes=)`` take what
    ``ResultStore`` takes: a size, by default the library's, or ``None``
    for no rotation, which the flag spells ``0``."""

    @pytest.mark.parametrize("command", ["sweep", "serve"])
    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], DEFAULT_ROTATE_BYTES),
            (["--rotate-bytes", "0"], None),
            (["--rotate-bytes", "4096"], 4096),
        ],
        ids=["default", "zero", "size"],
    )
    def test_flag(self, command, flags, expected):
        assert _rotate_bytes(build_parser().parse_args([command, *flags])) == expected

    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            ({}, DEFAULT_ROTATE_BYTES),
            ({"rotate_bytes": None}, None),
            ({"rotate_bytes": 4096}, 4096),
        ],
        ids=["default", "none", "size"],
    )
    def test_service(self, tmp_path, kwargs, expected):
        service = SweepService(str(tmp_path / "results.jsonl"), **kwargs)
        assert service._open_store().rotate_bytes == expected


class TestValidateSpec:
    @pytest.mark.parametrize(
        "spec, field",
        [
            ({}, "scenarios"),
            ({"scenarios": []}, "scenarios"),
            ({"scenarios": ["line-flood"], "adversaries": []}, "adversaries"),
            ({"scenarios": ["line-flood"], "seeds": 0}, "seeds"),
            ({"scenarios": ["line-flood"], "seeds": []}, "seeds"),
            ({"scenarios": ["line-flood"], "analyses": []}, "analyses"),
            ({"scenarios": ["line-flood"], "params": {"num_processes": []}}, "params"),
            ({"scenarios": ["line-flood"], "horizon": True}, "horizon"),
            ({"scenarios": "line-flood"}, "scenarios"),
            ({"scenarios": ["line-flood"], "adversaries": [1]}, "adversaries"),
            ({"scenarios": ["line-flood"], "params": [1]}, "params"),
        ],
    )
    def test_bad_spec_names_field(self, spec, field):
        with pytest.raises(SpecError) as info:
            validate_spec(spec)
        assert info.value.field == field

    def test_spec_error_is_a_sweep_error(self):
        # The CLI maps every SweepError to exit 2.
        assert issubclass(SpecError, SweepError)

    def test_expands_cells_and_normalizes(self):
        cells, normalized = validate_spec(
            {"scenarios": ["line-flood"], "adversaries": ["earliest"], "seeds": 2}
        )
        assert len(cells) == 2
        assert normalized["seeds"] == [0, 1]
        assert normalized["adversaries"] == ["earliest"]

    def test_explicit_seed_list(self):
        cells, normalized = validate_spec(
            {"scenarios": ["line-flood"], "adversaries": ["earliest"], "seeds": [3, 7]}
        )
        assert normalized["seeds"] == [3, 7]
        assert {cell.seed for cell in cells} == {3, 7}

    def test_scalar_param_becomes_single_value_sweep(self):
        cells, normalized = validate_spec(
            {
                "scenarios": ["line-flood"],
                "adversaries": ["earliest"],
                "params": {"num_processes": 3},
            }
        )
        assert normalized["params"] == {"num_processes": [3]}
        assert all(cell.params_dict()["num_processes"] == 3 for cell in cells)

    def test_unknown_scenario_names_field(self):
        with pytest.raises(SpecError, match="unknown scenario") as info:
            validate_spec({"scenarios": ["nope"]})
        assert info.value.field == "scenarios"

    def test_unknown_adversary_names_field(self):
        with pytest.raises(SpecError) as info:
            validate_spec({"scenarios": ["line-flood"], "adversaries": ["fastest"]})
        assert info.value.field == "adversaries"

    def test_ill_typed_param_names_parameter_and_field(self):
        with pytest.raises(SpecError, match="num_processes") as info:
            validate_spec(
                {"scenarios": ["line-flood"], "params": {"num_processes": ["three"]}}
            )
        assert info.value.field == "params"

    def test_undeclared_param_names_field(self):
        with pytest.raises(SpecError) as info:
            validate_spec({"scenarios": ["line-flood"], "params": {"bogus": [1]}})
        assert info.value.field == "params"

    def test_bad_seeds_names_field(self):
        with pytest.raises(SpecError) as info:
            validate_spec({"scenarios": ["line-flood"], "seeds": "four"})
        assert info.value.field == "seeds"

    def test_bad_horizon_names_field(self):
        with pytest.raises(SpecError) as info:
            validate_spec({"scenarios": ["line-flood"], "horizon": 0})
        assert info.value.field == "horizon"

    def test_unknown_analysis_names_field(self):
        with pytest.raises(SpecError) as info:
            validate_spec({"scenarios": ["line-flood"], "analyses": ["nope"]})
        assert info.value.field == "analyses"

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SpecError, match="unknown spec field") as info:
            validate_spec({"scenarios": ["line-flood"], "scenario": "typo"})
        assert info.value.field == "scenario"

    def test_non_object_spec_rejected(self):
        with pytest.raises(SpecError):
            validate_spec(["line-flood"])

    def test_cell_cap_enforced(self):
        with pytest.raises(SpecError, match="limit"):
            validate_spec(
                {"scenarios": ["line-flood"], "seeds": 10}, max_cells=5
            )


# ---------------------------------------------------------------------------
# HTTP surface.
# ---------------------------------------------------------------------------


@pytest.fixture()
def service(tmp_path):
    svc = SweepService(str(tmp_path / "results.jsonl"))
    host, port = svc.start("127.0.0.1", 0)
    svc.base = f"http://{host}:{port}"
    try:
        yield svc
    finally:
        svc.stop()


def _get(svc, path):
    try:
        with urllib.request.urlopen(svc.base + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(svc, path, payload):
    request = urllib.request.Request(
        svc.base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _wait_done(svc, sweep_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, body = _get(svc, f"/sweeps/{sweep_id}")
        assert status == 200
        if body["status"] in ("done", "failed"):
            return body
        time.sleep(0.05)
    raise AssertionError(f"sweep {sweep_id} never finished")


SMALL_SPEC = {
    "scenarios": ["line-flood"],
    "adversaries": ["earliest"],
    "seeds": 2,
    "horizon": 4,
}


class TestHttpSurface:
    def test_healthz(self, service):
        status, body = _get(service, "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["store"] == service.store_path

    def test_keep_alive_responses_do_not_wait_for_delayed_acks(self, service):
        # Headers and body leave in two writes; with Nagle's algorithm on,
        # the body waits for the client's delayed ACK (~40 ms a response).
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        latencies = []
        try:
            for _ in range(10):
                started = time.perf_counter()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                latencies.append(time.perf_counter() - started)
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.015, latencies

    def test_unknown_route_404(self, service):
        status, body = _get(service, "/nope")
        assert status == 404
        assert "error" in body

    def test_unknown_sweep_404(self, service):
        status, body = _get(service, "/sweeps/sweep-ffffffffffff")
        assert status == 404

    def test_unknown_result_404(self, service):
        status, body = _get(service, "/results/" + "0" * 64)
        assert status == 404
        assert body["key"] == "0" * 64

    def test_post_bad_scenario_is_field_naming_400(self, service):
        status, body = _post(service, "/sweeps", {"scenarios": ["nope"]})
        assert status == 400
        assert body["field"] == "scenarios"
        assert "unknown scenario" in body["error"]

    def test_post_bad_param_value_is_field_naming_400(self, service):
        status, body = _post(
            service,
            "/sweeps",
            {"scenarios": ["line-flood"], "params": {"num_processes": ["three"]}},
        )
        assert status == 400
        assert body["field"] == "params"
        assert "num_processes" in body["error"]

    def test_post_malformed_json_400(self, service):
        request = urllib.request.Request(
            service.base + "/sweeps", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400
        assert json.loads(info.value.read())["field"] == "body"

    def test_sweep_lifecycle_and_results(self, service):
        status, body = _post(service, "/sweeps", SMALL_SPEC)
        assert status == 201
        assert body["created"] is True
        assert body["cells"]["total"] == 2
        final = _wait_done(service, body["sweep"])
        assert final["status"] == "done"
        assert final["cells"]["executed"] == 2
        assert final["cells"]["errors"] == 0

        # Every cell is now served content-addressed from the store.
        records = [
            json.loads(line) for line in open(service.store_path, encoding="utf-8")
        ]
        keys = [r["key"] for r in records if r.get("status") == "ok"]
        assert len(keys) == 2
        for key in keys:
            status, record = _get(service, f"/results/{key}")
            assert status == 200
            assert record["key"] == key
            assert record["status"] == "ok"

    def test_repost_running_is_idempotent_and_finished_grid_is_all_cached(
        self, service
    ):
        _, first = _post(service, "/sweeps", SMALL_SPEC)
        _wait_done(service, first["sweep"])
        # Same grid again: a new job whose scan finds every cell in the store.
        status, second = _post(service, "/sweeps", SMALL_SPEC)
        assert status == 201
        assert second["sweep"] != first["sweep"]
        final = _wait_done(service, second["sweep"])
        assert final["cells"]["executed"] == 0
        assert final["cells"]["cached"] == 2

    def test_cache_counters_count_each_delivered_cell_once(self, service):
        def counters():
            _, snapshot = _get(service, "/metrics")
            return [snapshot["counters"].get(f"serve.cache_{name}", 0) for name in ("hit", "miss")]

        before = counters()
        _, first = _post(service, "/sweeps", SMALL_SPEC)
        _wait_done(service, first["sweep"])
        middle = counters()
        assert [b - a for a, b in zip(before, middle)] == [0, 2]
        _, second = _post(service, "/sweeps", SMALL_SPEC)
        _wait_done(service, second["sweep"])
        assert [b - a for a, b in zip(middle, counters())] == [2, 0]

    def test_events_stream_is_newline_json_to_terminal(self, service):
        _, body = _post(service, "/sweeps", SMALL_SPEC)
        with urllib.request.urlopen(
            f"{service.base}/sweeps/{body['sweep']}/events", timeout=60
        ) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            events = [json.loads(line) for line in response.read().splitlines()]
        kinds = [event["event"] for event in events]
        assert events[0] == {"event": "accepted", "cells": 2}
        assert kinds[-1] == "end"
        assert "complete" in kinds
        assert kinds.count("executed") + kinds.count("cached") == 2

    def test_report_second_fetch_is_pure_cache_hit(self, service):
        _, body = _post(service, "/sweeps", SMALL_SPEC)
        _wait_done(service, body["sweep"])
        status, first = _get(service, "/report?group_by=scenario,adversary")
        assert status == 200
        assert first["served_from_cache"] is False
        assert first["records"] == 2
        assert first["groups"][0]["cells"] == 2
        status, second = _get(service, "/report?group_by=scenario,adversary")
        assert second["served_from_cache"] is True
        assert second["groups"] == first["groups"]

    def test_report_scoped_to_sweep(self, service):
        _, body = _post(service, "/sweeps", SMALL_SPEC)
        _wait_done(service, body["sweep"])
        status, scoped = _get(service, f"/report?sweep={body['sweep']}")
        assert status == 200
        assert scoped["records"] == 2
        status, _ = _get(service, "/report?sweep=sweep-ffffffffffff")
        assert status == 404

    def test_metrics_json_and_flat(self, service):
        status, snapshot = _get(service, "/metrics")
        assert status == 200
        assert "serve.requests" in snapshot["counters"]
        with urllib.request.urlopen(
            service.base + "/metrics?format=flat", timeout=30
        ) as response:
            text = response.read().decode("utf-8")
        assert any(line.startswith("serve.requests ") for line in text.splitlines())


# ---------------------------------------------------------------------------
# The report memo.
# ---------------------------------------------------------------------------


def test_report_memo_keeps_store_order_so_float_sums_match_a_fresh_scan(tmp_path):
    """A superseded record keeps its place in the report rows: float sums
    depend on order, and the payload must match a fresh scan bit for bit."""
    from repro.experiments.reporting import report_payload
    from repro.experiments.store import ResultStore

    path = str(tmp_path / "results.jsonl")

    def cell(key, sends):
        return {
            "key": key,
            "status": "ok",
            "scenario": "s",
            "adversary": "earliest",
            "analyses": {"summary": {"sends": sends}},
        }

    ResultStore(path).put_many([cell("a", 50), cell("b", 50), cell("c", 50)])
    service = SweepService(path)
    assert service.report(metrics=["summary.sends"])["records"] == 3
    ResultStore(path).put_many([cell("a", 1e17), cell("b", -1e17)])
    served = service.report(metrics=["summary.sends"])
    fresh = report_payload(
        ResultStore(path).records(), ["scenario", "adversary"], ["summary.sends"]
    )
    assert served["served_from_cache"] is False
    assert served["groups"] == fresh
    assert fresh[0]["summary.sends"]["mean"] == 50 / 3


def test_report_memo_keeps_one_pruned_map_per_metric_tuple(tmp_path):
    """Each metric tuple gets its own memo of rows holding only its metrics;
    a tail append updates every memo, and a full reload drops them all."""
    from repro.experiments.reporting import report_payload
    from repro.experiments.store import ResultStore

    path = str(tmp_path / "results.jsonl")

    def cell(key, sends, label):
        return {
            "key": key,
            "status": "ok",
            "scenario": "s",
            "adversary": "earliest",
            "analyses": {"summary": {"sends": sends, "label": label, "extra": [1, 2]}},
        }

    ResultStore(path).put_many([cell("a", 1, "x"), cell("b", 2, "y")])
    service = SweepService(path)
    sends, labels = ("summary.sends",), ("summary.label", "summary.sends")
    for metrics in (sends, labels):
        assert service.report(metrics=list(metrics))["served_from_cache"] is False
    memos = service._view.memos
    assert set(memos) == {sends, labels}
    assert [row for _, row in memos[sends].values()] == [
        {"summary.sends": 1.0},
        {"summary.sends": 2.0},
    ]
    assert memos[labels]["a"][1] == {"summary.sends": 1.0, "summary.label": "x"}
    assert all("analyses" not in slim for slim, _ in memos[labels].values())

    ResultStore(path).put(cell("c", 3, "x"))
    for metrics in (sends, labels):
        served = service.report(metrics=list(metrics))
        fresh = report_payload(
            ResultStore(path).records(), ["scenario", "adversary"], list(metrics)
        )
        assert served["served_from_cache"] is False
        assert served["groups"] == fresh
    assert [len(memo) for memo in memos.values()] == [3, 3]

    ResultStore(path).put(cell("a", 4, "y"))
    assert ResultStore(path).compact() == 1  # a rewrite: the view reloads
    assert service.report(metrics=list(sends))["groups"][0]["summary.sends"]["max"] == 4
    assert set(memos) == {sends}


def _raw_chunks(address, path):
    """GET ``path`` over a raw socket: the chunked body's data chunks."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode("ascii"))
        raw = b""
        while True:
            data = sock.recv(65536)
            if not data:
                break
            raw += data
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"Transfer-Encoding: chunked" in head
    chunks = []
    while True:
        size_line, _, body = body.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            assert body == b"\r\n"
            return chunks
        chunks.append(body[:size])
        assert body[size : size + 2] == b"\r\n"
        body = body[size + 2 :]


def test_events_of_a_finished_sweep_arrive_as_one_chunk(service):
    """The stream writes one chunk per wakeup: a finished sweep's whole feed
    (every event in order, then ``end``) is one chunk and the terminator."""
    _, body = _post(service, "/sweeps", SMALL_SPEC)
    _wait_done(service, body["sweep"])
    chunks = _raw_chunks(service.address, f"/sweeps/{body['sweep']}/events")
    assert len(chunks) == 1
    lines = chunks[0].decode("utf-8").splitlines()
    expected = service.job(body["sweep"]).events + [
        {"event": "end", "sweep": body["sweep"], "status": "done"}
    ]
    assert [json.loads(line) for line in lines] == expected
    assert lines == [json.dumps(event, sort_keys=True) for event in expected]
