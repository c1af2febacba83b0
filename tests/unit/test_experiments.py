"""Unit tests for the experiments subsystem: registry, store, runner, CLI."""

import json

import pytest

from repro.experiments import (
    DEFAULT_ANALYSES,
    DEFAULT_REPORT_METRICS,
    TELEMETRY_KIND,
    ResultStore,
    SpecError,
    SweepError,
    analysis_versions,
    build_cell_scenario,
    cell_key,
    cell_records,
    expand_grid,
    format_aggregate,
    get_analysis,
    group_records,
    list_analyses,
    make_cell,
    make_delivery,
    run_analyses,
    run_cell,
    run_sweep,
    sweep_telemetry_key,
)
from repro.experiments.cli import main as cli_main
from repro.scenarios import (
    ParamSpec,
    RegistryError,
    get_scenario,
    list_scenarios,
    scenario_registry,
)
from repro.simulation import EarliestDelivery, LatestDelivery, Run, SeededRandomDelivery


# ---------------------------------------------------------------------------
# Scenario registry.
# ---------------------------------------------------------------------------


class TestScenarioRegistry:
    def test_all_expected_scenarios_registered(self):
        names = set(list_scenarios())
        expected = {
            "figure1", "figure2a", "figure2b", "figure3", "figure4", "figure5",
            "figure6", "figure8", "zigzag-chain", "flooding", "random-workload",
            "line-flood", "ring-flood", "star-flood", "complete-flood",
            "grid-flood", "torus-flood", "tree-flood",
        }
        assert expected <= names

    def test_unknown_name_raises(self):
        with pytest.raises(RegistryError):
            get_scenario("nope")

    def test_build_applies_defaults_and_overrides(self):
        spec = get_scenario("figure1")
        scenario = spec.build(lower_cb=9)
        assert scenario.timed_network.L("C", "B") == 9
        assert scenario.timed_network.U("C", "A") == 4  # default preserved

    def test_build_rejects_unknown_parameter(self):
        with pytest.raises(RegistryError):
            get_scenario("figure1").build(bogus=1)

    def test_build_rejects_ill_typed_parameter(self):
        with pytest.raises(RegistryError):
            get_scenario("figure1").build(lower_cb="fast")

    def test_decorated_builder_still_callable_directly(self):
        from repro.scenarios import figure1_scenario

        scenario = figure1_scenario(lower_cb=9)
        assert scenario.timed_network.L("C", "B") == 9
        assert figure1_scenario.scenario_spec is get_scenario("figure1")

    def test_tag_filtering(self):
        flooding = list_scenarios(tag="flooding")
        assert "grid-flood" in flooding
        assert "figure1" not in flooding

    def test_registry_snapshot_is_a_copy(self):
        snapshot = scenario_registry()
        snapshot.pop("figure1")
        assert "figure1" in list_scenarios()


class TestParamSpec:
    def test_bool_parsing(self):
        spec = ParamSpec("flag", bool, False)
        assert spec.parse("true") is True
        assert spec.parse("0") is False
        with pytest.raises(RegistryError):
            spec.parse("maybe")

    def test_int_rejects_bool_value(self):
        spec = ParamSpec("n", int, 1)
        with pytest.raises(RegistryError):
            spec.validate(True)

    def test_choices_enforced(self):
        spec = ParamSpec("mode", str, "a", choices=("a", "b"))
        assert spec.validate("b") == "b"
        with pytest.raises(RegistryError):
            spec.validate("c")

    def test_unsupported_type_rejected(self):
        with pytest.raises(RegistryError):
            ParamSpec("x", list, [])

    def test_non_finite_floats_rejected(self):
        """inf/nan cannot feed JSON cache keys, so they are invalid values."""
        spec = ParamSpec("p", float, 0.5)
        for text in ("inf", "-inf", "nan"):
            with pytest.raises(RegistryError):
                spec.parse(text)
        with pytest.raises(RegistryError):
            spec.validate(float("inf"))


# ---------------------------------------------------------------------------
# Analyses.
# ---------------------------------------------------------------------------


class TestAnalyses:
    def test_default_analyses_registered(self):
        assert set(DEFAULT_ANALYSES) <= set(list_analyses())
        assert "knowledge" in list_analyses()

    def test_summary_counts_match_run(self, figure1_run):
        result = get_analysis("summary").run(figure1_run)
        assert result["deliveries"] == len(figure1_run.deliveries)
        assert result["sends"] == len(figure1_run.sends)
        assert result["first_action_times"]["a"] == figure1_run.action_time("A", "a")

    def test_coordination_infers_roles(self, figure1_run):
        result = get_analysis("coordination").run(figure1_run)
        assert result["applicable"] is True
        assert result["go_sender"] == "C"
        assert result["actor_a"] == "A" and result["actor_b"] == "B"
        assert result["achieved_margin"] == result["b_time"] - result["a_time"]

    def test_coordination_inapplicable_without_actions(self, flooding_run):
        result = get_analysis("coordination").run(flooding_run)
        assert result["applicable"] is False

    def test_knowledge_pass_on_figure2b(self):
        from repro.scenarios import figure2b_scenario

        run = figure2b_scenario().run()
        result = get_analysis("knowledge").run(run)
        assert result["applicable"] is True
        # B acted through the optimal protocol, so the precedence is known.
        assert result["known_gap"] is not None and result["known_gap"] >= 0

    @pytest.mark.parametrize("scenario", ["figure4", "grid-flood"])
    def test_bounds_passes_share_one_graph_in_either_order(self, scenario, monkeypatch):
        from repro.core import bounds_graph
        from repro.core.timing import tight_gap

        builds = []
        build = bounds_graph.basic_bounds_graph

        def counting_build(run):
            builds.append(run)
            return build(run)

        monkeypatch.setattr(bounds_graph, "basic_bounds_graph", counting_build)
        run = build_cell_scenario(make_cell(scenario, adversary="latest", seed=3)).run()
        forward = run_analyses(run, ["bounds_graph", "bounds_stats"])
        backward = run_analyses(run, ["bounds_stats", "bounds_graph"])
        assert forward == backward
        for name in ("bounds_graph", "bounds_stats"):
            assert get_analysis(name).run(run) == forward[name]
        first, last = run.processes[0], run.processes[-1]
        tight_gap(run, run.initial_node(first), run.final_node(last))
        assert len(builds) == 1 and builds[0] is run  # one GB(r) per run
        # A deserialised copy is another run: it builds its own graph.
        copy = Run.from_dict(run.to_dict())
        assert run_analyses(copy, ["bounds_graph", "bounds_stats"]) == forward
        assert len(builds) == 2 and builds[1] is copy

    def test_bounds_stats_counts_only_its_own_rows(self):
        from repro.core.timing import tight_gap

        cell = make_cell("figure4", adversary="latest", seed=3)
        queried = build_cell_scenario(cell).run()
        first, last = queried.processes[0], queried.processes[-1]
        tight_gap(queried, queried.initial_node(first), queried.final_node(last))
        fresh = build_cell_scenario(cell).run()
        stats = get_analysis("bounds_stats")
        assert stats.run(queried) == stats.run(fresh)

    def test_results_are_json_serialisable(self, figure1_run):
        results = run_analyses(figure1_run, list_analyses())
        json.dumps(results)  # must not raise

    def test_versions_feed_cache_key(self):
        versions = analysis_versions(DEFAULT_ANALYSES)
        key_a = cell_key("figure1", {}, "earliest", 0, versions)
        bumped = {**versions, "summary": versions["summary"] + 1}
        key_b = cell_key("figure1", {}, "earliest", 0, bumped)
        assert key_a != key_b


# ---------------------------------------------------------------------------
# Store.
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        record = {"key": "abc", "value": 1}
        store.put(record)
        assert store.get("abc") == record
        assert len(store) == 1

    def test_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        ResultStore(path).put({"key": "abc", "value": 1})
        reopened = ResultStore(path)
        assert reopened.get("abc") == {"key": "abc", "value": 1}

    def test_newest_record_wins(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        store = ResultStore(path)
        store.put({"key": "k", "value": 1})
        store.put({"key": "k", "value": 2})
        assert store.get("k")["value"] == 2
        assert len(ResultStore(path)) == 1

    def test_compact_drops_superseded_lines(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        store = ResultStore(path)
        store.put({"key": "k", "value": 1})
        store.put({"key": "k", "value": 2})
        store.put({"key": "j", "value": 3})
        assert store.compact() == 1
        reopened = ResultStore(path)
        assert len(reopened) == 2 and reopened.get("k")["value"] == 2

    def test_torn_trailing_line_ignored(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        ResultStore(path).put({"key": "good", "value": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "torn", "val')  # interrupted append
        store = ResultStore(path)
        assert store.get("good") is not None
        assert store.get("torn") is None

    def test_missing_key_rejected(self, tmp_path):
        from repro.experiments import StoreError

        store = ResultStore(str(tmp_path / "r.jsonl"))
        with pytest.raises(StoreError):
            store.put({"value": 1})

    def test_cell_key_is_stable_and_sensitive(self):
        versions = {"summary": 1}
        base = cell_key("flooding", {"seed": 1}, "random", 1, versions)
        assert base == cell_key("flooding", {"seed": 1}, "random", 1, versions)
        assert base != cell_key("flooding", {"seed": 2}, "random", 1, versions)
        assert base != cell_key("flooding", {"seed": 1}, "latest", 1, versions)


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------


class TestRunner:
    def test_make_delivery(self):
        assert isinstance(make_delivery("earliest", 0), EarliestDelivery)
        assert isinstance(make_delivery("latest", 0), LatestDelivery)
        random_delivery = make_delivery("random", 7)
        assert isinstance(random_delivery, SeededRandomDelivery)
        assert random_delivery.seed == 7
        with pytest.raises(SweepError):
            make_delivery("chaotic", 0)

    def test_make_cell_resolves_full_params_and_injects_seed(self):
        cell = make_cell("flooding", seed=3)
        params = cell.params_dict()
        assert params["seed"] == 3  # injected from the seed axis
        assert params["num_processes"] == 4  # default resolved into the cell

    def test_explicit_seed_param_not_overridden(self):
        cell = make_cell("flooding", overrides={"seed": 99}, seed=3)
        assert cell.params_dict()["seed"] == 99

    def test_expand_grid_size_and_dedup(self):
        cells = expand_grid(
            ["flooding", "figure1"],
            adversaries=["earliest", "latest"],
            seeds=[0, 1],
        )
        # figure1 has no seed parameter, so its seed-axis cells collapse? No:
        # seed is part of the cell identity, so 2 scenarios x 2 x 2 = 8 cells.
        assert len(cells) == 8
        assert len({cell.key() for cell in cells}) == 8

    def test_expand_grid_param_values(self):
        cells = expand_grid(
            ["flooding"],
            adversaries=["earliest"],
            seeds=[0],
            param_grid={"num_processes": [3, 4, 5]},
        )
        assert sorted(c.params_dict()["num_processes"] for c in cells) == [3, 4, 5]

    def test_expand_grid_rejects_unknown_param(self):
        with pytest.raises(SweepError):
            expand_grid(["flooding"], seeds=[0], param_grid={"bogus": [1]})

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"scenarios": ["nope"]}, "scenarios"),
            ({"scenarios": []}, "scenarios"),
            ({"adversaries": ["fastest"]}, "adversaries"),
            ({"adversaries": []}, "adversaries"),
            ({"seeds": []}, "seeds"),
            ({"seeds": range(0)}, "seeds"),
            ({"analyses": ["nope"]}, "analyses"),
            ({"analyses": []}, "analyses"),
            ({"horizon": 0}, "horizon"),
            ({"horizon": -1}, "horizon"),
            ({"horizon": True}, "horizon"),
            ({"horizon": "4"}, "horizon"),
            ({"param_grid": {"num_processes": ["three"]}}, "params"),
            ({"param_grid": {"num_processes": []}}, "params"),
            ({"param_grid": {"bogus": [1]}}, "params"),
        ],
    )
    def test_expand_grid_names_the_field_of_a_bad_grid(self, kwargs, field):
        grid = {"scenarios": ["flooding"], "seeds": [0], **kwargs}
        with pytest.raises(SpecError) as info:
            expand_grid(grid.pop("scenarios"), **grid)
        assert info.value.field == field
        assert str(info.value).startswith(field)

    def test_cell_is_deterministic(self):
        cell = make_cell("flooding", adversary="random", seed=5)
        run_a = build_cell_scenario(cell).run()
        run_b = build_cell_scenario(cell).run()
        assert run_a.to_dict() == run_b.to_dict()

    def test_run_cell_record_shape(self):
        cell = make_cell("figure1", adversary="latest", seed=0)
        record = run_cell(cell)
        assert record["status"] == "ok"
        assert record["key"] == cell.key()
        assert record["adversary"] == "latest"
        assert set(record["analyses"]) == set(DEFAULT_ANALYSES)
        json.dumps(record)

    def test_run_sweep_serial_and_cache(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        cells = expand_grid(["figure1"], adversaries=["earliest", "latest"], seeds=[0])
        first = run_sweep(cells, store=store, workers=1)
        assert (first.executed, first.cached, first.errors) == (2, 0, 0)
        second = run_sweep(cells, store=store, workers=1)
        assert (second.executed, second.cached) == (0, 2)
        assert second.cache_hit_rate == 1.0
        forced = run_sweep(cells, store=store, workers=1, force=True)
        assert forced.executed == 2

    def test_run_sweep_isolates_cell_errors(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        good = make_cell("figure1", seed=0)
        # horizon=0 simulates nothing; validate() passes (empty run is legal),
        # so break it harder: a horizon below the go time means no actions, so
        # instead use an invalid scenario parameter bypassing make_cell checks.
        bad = good.__class__(
            scenario="figure1",
            params=(("go_time", -5),),  # ExternalInput rejects time < 1
            adversary="earliest",
            seed=0,
            analyses=good.analyses,
        )
        outcome = run_sweep([good, bad], store=store, workers=1)
        assert outcome.executed == 1 and outcome.errors == 1
        error_records = [r for r in outcome.records if r["status"] == "error"]
        assert len(error_records) == 1
        # Errors are quarantined: persisted with status "error"...
        assert store.get(bad.key())["status"] == "error"
        # ...a plain re-run retries them (and fails again here)...
        again = run_sweep([good, bad], store=store, workers=1)
        assert (again.executed, again.cached, again.errors) == (0, 1, 1)
        assert [r["status"] for r in again.records if not r.get("cached")] == ["error"]
        # ...a resume skips them without recomputing (still counted as errors)...
        resumed = run_sweep([good, bad], store=store, workers=1, resume=True)
        assert (resumed.executed, resumed.cached, resumed.errors) == (0, 1, 1)
        assert store.get(bad.key())["status"] == "error"
        # ...and --retry-errors recomputes exactly the quarantined cells.
        retried = run_sweep(
            [good, bad], store=store, workers=1, resume=True, retry_errors=True
        )
        assert (retried.executed, retried.cached, retried.errors) == (0, 1, 1)

    def test_retry_errors_requires_resume(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        with pytest.raises(SweepError, match="retry_errors requires resume"):
            run_sweep([make_cell("figure1")], store=store, retry_errors=True)

    def test_telemetry_persisted_even_with_errors(self, tmp_path):
        from repro.experiments.runner import sweep_telemetry_key

        store = ResultStore(str(tmp_path / "r.jsonl"))
        good = make_cell("figure1", seed=0)
        bad = good.__class__(
            scenario="figure1",
            params=(("go_time", -5),),
            adversary="earliest",
            seed=0,
            analyses=good.analyses,
        )
        cells = [good, bad]
        outcome = run_sweep(cells, store=store, workers=1)
        assert outcome.errors == 1
        telemetry = store.get(sweep_telemetry_key(cells))
        assert telemetry is not None
        assert telemetry["cells"]["errors"] == 1


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "adversaries: earliest, latest, random" in out

    def test_run_json(self, capsys):
        assert cli_main(["run", "figure1", "--adversary", "latest", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "ok" and record["scenario"] == "figure1"

    def test_run_viz(self, capsys):
        assert cli_main(["run", "figure1", "--viz"]) == 0
        out = capsys.readouterr().out
        assert "send_go" in out  # the space-time diagram marks C's action

    def test_run_rejects_unknown_scenario(self, capsys):
        assert cli_main(["run", "not-a-scenario"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_rejects_bad_set(self, capsys):
        assert cli_main(["run", "figure1", "--set", "bogus=1"]) == 2

    def test_sweep_dry_run(self, capsys):
        code = cli_main(
            ["sweep", "--scenario", "figure1,flooding", "--seeds", "2", "--dry-run"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-> 12 cells" in out and "dry run: nothing executed" in out

    def test_sweep_and_report(self, tmp_path, capsys):
        store_path = str(tmp_path / "results.jsonl")
        code = cli_main(
            [
                "sweep", "--scenario", "figure1", "--adversary", "earliest,latest",
                "--seeds", "1", "--workers", "1", "--store", store_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 cached" in out
        code = cli_main(["report", "--store", store_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "earliest" in out

    def test_report_json(self, tmp_path, capsys):
        store_path = str(tmp_path / "results.jsonl")
        cli_main(
            ["sweep", "--scenario", "figure1", "--adversary", "earliest",
             "--seeds", "1", "--workers", "1", "--store", store_path]
        )
        capsys.readouterr()
        assert cli_main(["report", "--store", store_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["scenario"] == "figure1" and payload[0]["cells"] == 1

    def test_report_json_over_a_store_without_cells(self, tmp_path, capsys):
        """An empty store still reports JSON (an empty list), and a clashing
        ``--group-by`` is still refused; the text table keeps its line."""
        store_path = str(tmp_path / "results.jsonl")
        assert cli_main(["report", "--store", store_path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []
        assert cli_main(["report", "--store", store_path, "--json", "--group-by", "cells"]) == 2
        assert "--group-by" in capsys.readouterr().err
        assert cli_main(["report", "--store", store_path]) == 0
        assert capsys.readouterr().out.startswith("no records in ")

    def test_sweep_rejects_zero_workers(self, capsys):
        assert cli_main(["sweep", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "--workers must be >= 1" in err

    def test_sweep_rejects_negative_workers(self, capsys):
        assert cli_main(["sweep", "--workers", "-3"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--rotate-bytes", "-1"),
            ("--cell-timeout", "0"),
            ("--cell-timeout", "nan"),
            ("--cell-timeout", "inf"),
            ("--lease-base-s", "nan"),
            ("--heartbeat-timeout-s", "nan"),
            ("--heartbeat-timeout-s", "inf"),
            ("--local-fallback-s", "-5"),
        ],
    )
    def test_sweep_out_of_range_number(self, capsys, flag, value):
        # Rejected before the grid is printed or any fabric is started.
        assert cli_main(["sweep", flag, value, "--dry-run"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and f"{flag} must be >= " in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, value",
        [("--heartbeat-s", "0"), ("--heartbeat-s", "nan"), ("--connect-timeout-s", "-1")],
    )
    def test_worker_out_of_range_number(self, capsys, flag, value):
        assert cli_main(["worker", "--connect", "127.0.0.1:1", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{flag} must be >= " in err

    @pytest.mark.parametrize("flag, value", [("--diagrams", "-1")])
    def test_report_out_of_range_number(self, tmp_path, capsys, flag, value):
        html_path = tmp_path / "report.html"
        store_path = str(tmp_path / "results.jsonl")
        args = ["report", "--store", store_path, "--html", str(html_path), flag, value]
        assert cli_main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{flag} must be >= 0" in err
        assert not html_path.exists()

    def test_report_table_cells_format_the_json_entries(self, tmp_path, capsys):
        """The text table is ``format_aggregate`` of the ``--json`` entries:
        one aggregation behind every report surface."""
        store_path = str(tmp_path / "results.jsonl")
        assert cli_main(
            ["sweep", "--scenario", "figure1,flooding", "--adversary",
             "earliest,latest", "--seeds", "2", "--workers", "1",
             "--store", store_path]
        ) == 0
        capsys.readouterr()
        group = ["scenario", "adversary"]
        report = ["report", "--store", store_path, "--group-by", ",".join(group)]
        assert cli_main(report + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert cli_main(report) == 0
        lines = capsys.readouterr().out.splitlines()
        header, rule, rows = lines[0], lines[1], lines[2 : 2 + len(payload)]
        spans, start = [], 0
        for dashes in rule.split("  "):
            spans.append((start, start + len(dashes)))
            start += len(dashes) + 2
        column = lambda line, i: line[spans[i][0] : spans[i][1]].rstrip()
        names = [column(header, i) for i in range(len(spans))]
        metrics = names[len(group) + 1 :]
        assert names[: len(group) + 1] == group + ["cells"]
        assert metrics == list(DEFAULT_REPORT_METRICS)
        for entry, row in zip(payload, rows):
            expected = [entry[field] for field in group] + [str(entry["cells"])]
            expected += [format_aggregate(entry.get(metric)) for metric in metrics]
            assert [column(row, i) for i in range(len(spans))] == expected

    def test_report_table_group_field_named_like_a_column(self, tmp_path, capsys):
        """Group values stay apart from the ``cells`` count and the metric
        summaries even when a group field shares a column's name."""
        store_path = str(tmp_path / "results.jsonl")
        assert cli_main(["sweep", "--scenario", "figure1", "--adversary", "earliest",
                         "--seeds", "1", "--workers", "1", "--store", store_path]) == 0
        capsys.readouterr()
        report = ["report", "--store", store_path, "--metric", "summary.sends"]
        assert cli_main(report + ["--group-by", "cells,summary.sends"]) == 0
        row = capsys.readouterr().out.splitlines()[2].split()
        assert row == ["?", "?", "1", "2.00/2/2"]

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--seeds", "0"], "--seeds"),
            (["--seeds", "-3"], "--seeds"),
            (["--scenario", ",,"], "--scenario"),
            (["--adversary", ",,"], "--adversary"),
            (["--horizon", "0"], "--horizon"),
            (["--horizon", "-2"], "--horizon"),
            (["--scenario", "nope"], "--scenario"),
            (["--adversary", "fastest"], "--adversary"),
            (["--analysis", "nope"], "--analysis"),
            (["--scenario", "figure1", "--set", "bogus=1"], "--set"),
            (["--scenario", "figure1", "--set", "lower_cb="], "--set"),
        ],
    )
    def test_sweep_rejects_bad_grid_naming_the_flag(self, tmp_path, capsys, args, flag):
        store_path = tmp_path / "results.jsonl"
        code = cli_main(["sweep", *args, "--workers", "1", "--store", str(store_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + flag) and "Traceback" not in err
        # Nothing ran: no cell, no telemetry record.
        assert not store_path.exists()

    @pytest.mark.parametrize("command", ["run", "export"])
    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--horizon", "-1"], "--horizon"),
            (["--horizon", "0"], "--horizon"),
            (["--set", "bogus=1"], "--set"),
            (["--set", "lower_cb=fast"], "--set"),
        ],
    )
    def test_single_cell_rejects_bad_grid_naming_the_flag(self, capsys, command, args, flag):
        assert cli_main([command, "figure1", *args]) == 2
        assert capsys.readouterr().err.startswith("error: " + flag)

    def test_sweep_rejects_force_plus_resume(self, capsys):
        assert cli_main(["sweep", "--force", "--resume"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sweep_rejects_bad_shard_size(self, capsys):
        assert cli_main(["sweep", "--backend", "fabric", "--shard-size", "0"]) == 2
        assert "--shard-size must be >= 1" in capsys.readouterr().err

    def test_sweep_rejects_shard_size_without_sharded_backend(self, capsys):
        assert cli_main(["sweep", "--workers", "1", "--shard-size", "4"]) == 2
        assert "--shard-size requires the fabric backend" in capsys.readouterr().err
        assert cli_main(["sweep", "--backend", "serial", "--shard-size", "4"]) == 2
        assert cli_main(["sweep", "--backend", "serial", "--listen", "127.0.0.1:0"]) == 2
        assert "--listen requires the fabric backend" in capsys.readouterr().err

    def test_sweep_single_worker_takes_serial_path(self, tmp_path, capsys):
        store_path = str(tmp_path / "results.jsonl")
        code = cli_main(
            ["sweep", "--scenario", "figure1", "--adversary", "earliest",
             "--seeds", "1", "--workers", "1", "--store", store_path]
        )
        assert code == 0
        assert "[backend=serial]" in capsys.readouterr().out

    def test_sweep_backend_sharded_and_resume(self, tmp_path, capsys):
        store_path = str(tmp_path / "results.jsonl")
        args = ["sweep", "--scenario", "figure1", "--adversary", "earliest,latest",
                "--seeds", "2", "--workers", "2", "--backend", "fabric",
                "--store", store_path]
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "4 executed, 0 cached" in out and "[backend=fabric]" in out
        assert cli_main([*args, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 4 cached" in out

    def test_report_viz_by_prefix(self, tmp_path, capsys):
        store_path = str(tmp_path / "results.jsonl")
        cli_main(
            ["sweep", "--scenario", "figure1", "--adversary", "latest",
             "--seeds", "1", "--workers", "1", "--store", store_path]
        )
        capsys.readouterr()
        key = ResultStore(store_path).keys()[0]
        assert cli_main(["report", "--store", store_path, "--viz", key[:10]]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "send_go" in out


# ---------------------------------------------------------------------------
# Hot-path bugfix sweep: seed-list validation, non-finite sanitization, and
# the telemetry-never-masquerades-as-cells invariant.
# ---------------------------------------------------------------------------


class TestSeedListValidation:
    def test_empty_seed_list_rejected(self, capsys):
        assert cli_main(["sweep", "--seed-list", "", "--dry-run"]) == 2
        assert "--seed-list needs at least one seed" in capsys.readouterr().err

    def test_all_commas_seed_list_rejected(self, capsys):
        assert cli_main(["sweep", "--seed-list", ",,", "--dry-run"]) == 2
        assert "--seed-list needs at least one seed" in capsys.readouterr().err

    def test_non_integer_seed_list_rejected(self, capsys):
        assert cli_main(["sweep", "--seed-list", "1,x", "--dry-run"]) == 2
        assert "--seed-list expects integers" in capsys.readouterr().err

    def test_trailing_comma_tolerated(self, capsys):
        code = cli_main(
            ["sweep", "--scenario", "figure1", "--adversary", "earliest",
             "--seed-list", "3,7,", "--dry-run"]
        )
        assert code == 0
        assert "-> 2 cells" in capsys.readouterr().out


class TestNonFiniteSanitization:
    def test_sanitize_walks_containers(self):
        from repro.experiments.runner import sanitize_non_finite

        value = {
            "nan": float("nan"),
            "inf": float("inf"),
            "nested": {"ninf": float("-inf"), "ok": 1.5},
            "list": [float("nan"), 2.0, (float("inf"),)],
            "label": "x",
            "flag": True,
        }
        out = sanitize_non_finite(value)
        assert out["nan"] is None and out["inf"] is None
        assert out["nested"] == {"ninf": None, "ok": 1.5}
        assert out["list"] == [None, 2.0, [None]]
        assert out["label"] == "x" and out["flag"] is True

    def test_nan_producing_analysis_cannot_abort_sweep(self, tmp_path):
        # Regression: an analysis emitting NaN/inf used to blow up in
        # canonical_json(allow_nan=False) inside store.put, aborting the
        # whole sweep mid-flight instead of recording the cell.
        from repro.experiments.analyses import _ANALYSIS_REGISTRY, register_analysis

        name = "test-nan-prone"

        @register_analysis(name, version=1)
        def nan_pass(run):
            return {"ratio": float("nan"), "bound": float("inf"), "n": 3}

        try:
            store = ResultStore(str(tmp_path / "r.jsonl"))
            cell = make_cell("figure1", seed=0, analyses=("summary", name))
            outcome = run_sweep([cell], store=store, workers=1)
            assert (outcome.executed, outcome.errors) == (1, 0)
            record = store.get(cell.key())
            assert record is not None
            assert record["analyses"][name] == {"ratio": None, "bound": None, "n": 3}
        finally:
            _ANALYSIS_REGISTRY.pop(name, None)


class TestTelemetryInvariant:
    """Telemetry records share the store with cells but never count as cells."""

    @staticmethod
    def _sweep_store(tmp_path):
        store_path = str(tmp_path / "results.jsonl")
        store = ResultStore(store_path)
        cells = expand_grid(["figure1"], adversaries=["earliest"], seeds=[0])
        outcome = run_sweep(cells, store=store, workers=1)
        assert outcome.telemetry is not None
        return store_path, store, cells

    def test_sweep_persists_telemetry_alongside_cells(self, tmp_path):
        _, store, cells = self._sweep_store(tmp_path)
        telemetry = store.get(sweep_telemetry_key(cells))
        assert telemetry is not None and telemetry["kind"] == TELEMETRY_KIND
        assert len(store.records()) == 2  # one cell + one telemetry record

    def test_cell_records_filters_telemetry(self, tmp_path):
        _, store, _ = self._sweep_store(tmp_path)
        records = cell_records(store.records())
        assert len(records) == 1 and records[0]["status"] == "ok"
        # Even when error cells are kept, telemetry must not pass.
        lenient = cell_records(store.records(), require_ok=False)
        assert all(r.get("kind") != TELEMETRY_KIND for r in lenient)
        assert len(lenient) == 1

    def test_group_records_drops_telemetry_without_prefilter(self, tmp_path):
        _, store, _ = self._sweep_store(tmp_path)
        groups = group_records(store.records(), ["scenario"])
        assert set(groups) == {("figure1",)}
        assert len(groups[("figure1",)]) == 1

    def test_report_cell_counts_exclude_telemetry(self, tmp_path, capsys):
        store_path, _, _ = self._sweep_store(tmp_path)
        assert cli_main(["report", "--store", store_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1 and payload[0]["cells"] == 1

    def test_html_report_counts_only_cells(self, tmp_path, capsys):
        store_path, _, _ = self._sweep_store(tmp_path)
        html_path = str(tmp_path / "report.html")
        code = cli_main(["report", "--store", store_path, "--html", html_path])
        assert code == 0
        assert "(1 records)" in capsys.readouterr().out
        with open(html_path, encoding="utf-8") as handle:
            html = handle.read()
        # The telemetry surfaces in its own section, not as a cell row.
        assert "Sweep telemetry" in html

    def test_viz_rejects_exact_telemetry_key(self, tmp_path, capsys):
        store_path, _, cells = self._sweep_store(tmp_path)
        key = sweep_telemetry_key(cells)
        assert cli_main(["report", "--store", store_path, "--viz", key]) == 2
        assert "sweep-telemetry record, not a cell" in capsys.readouterr().err

    def test_viz_prefix_never_matches_telemetry(self, tmp_path, capsys):
        store_path, _, _ = self._sweep_store(tmp_path)
        assert cli_main(["report", "--store", store_path, "--viz", "telemetry"]) == 2
        assert "matches 0 records" in capsys.readouterr().err

    def test_cache_scan_never_reuses_telemetry_under_cell_key(self, tmp_path):
        _, store, cells = self._sweep_store(tmp_path)
        cell = cells[0]
        telemetry = store.get(sweep_telemetry_key(cells))
        # Adversarial store state: a telemetry record squatting on the cell's
        # key must not be served as a cache hit.
        store.put({**telemetry, "key": cell.key()})
        outcome = run_sweep(cells, store=store, workers=1)
        assert (outcome.executed, outcome.cached) == (1, 0)
        assert store.get(cell.key())["status"] == "ok"

    def test_compact_preserves_telemetry(self, tmp_path):
        _, store, cells = self._sweep_store(tmp_path)
        # Superseded duplicate lines to give compact something to drop.
        run_sweep(cells, store=store, workers=1, force=True)
        dropped = store.compact()
        assert dropped >= 1
        reloaded = ResultStore(store.path)
        telemetry = reloaded.get(sweep_telemetry_key(cells))
        assert telemetry is not None and telemetry["kind"] == TELEMETRY_KIND
        assert len(cell_records(reloaded.records())) == 1
