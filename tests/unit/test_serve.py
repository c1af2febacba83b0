"""Unit tests for ``repro serve``: endpoint parsing, spec validation, and
the HTTP surface of :class:`repro.experiments.serve.SweepService`.

The service under test binds an ephemeral loopback port with no worker
fleet, so cold cells run through the scheduler's inline fallback — the
same exactly-once dedup path a real deployment uses.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments import SweepError
from repro.experiments.cli import main as cli_main
from repro.experiments.serve import (
    SpecError,
    SweepService,
    parse_endpoint,
    validate_spec,
)


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


class TestValidateSpec:
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

    def test_events_stream_is_newline_json_to_terminal(self, service):
        _, body = _post(service, "/sweeps", SMALL_SPEC)
        with urllib.request.urlopen(
            f"{service.base}/sweeps/{body['sweep']}/events", timeout=60
        ) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            events = [json.loads(line) for line in response.read().splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
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
