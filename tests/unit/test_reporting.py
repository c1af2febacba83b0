"""Unit tests for report aggregation: non-numeric fields must survive."""

import enum
import json
from collections import OrderedDict

import pytest

from repro.experiments import SpecError
from repro.experiments.cli import main as cli_main
from repro.experiments.reporting import (
    aggregate_metric,
    discover_metrics,
    flatten_scalars,
    format_aggregate,
    group_records,
    report_payload,
    report_row,
)


class TestFlattenScalars:
    def test_numbers_become_floats(self):
        flat = flatten_scalars({"a": 1, "b": {"c": 2.5}})
        assert flat == {"a": 1.0, "b.c": 2.5}

    def test_booleans_survive_as_booleans(self):
        flat = flatten_scalars({"applicable": True, "nested": {"ok": False}})
        assert flat["applicable"] is True
        assert flat["nested.ok"] is False

    def test_strings_and_none_survive(self):
        flat = flatten_scalars({"go_sender": "C", "actor_b": None})
        assert flat["go_sender"] == "C"
        assert flat["actor_b"] is None

    def test_lists_flatten_by_index(self):
        flat = flatten_scalars({"path": ["A", "B"], "weights": [1, 2]})
        assert flat == {"path.0": "A", "path.1": "B",
                        "weights.0": 1.0, "weights.1": 2.0}

    def test_unknown_leaves_degrade_to_repr(self):
        flat = flatten_scalars({"odd": {1, 2} and frozenset([3])})
        assert "frozenset" in flat["odd"]

    def test_mapping_subclasses_flatten_like_dicts(self):
        flat = flatten_scalars(OrderedDict([("b", 1), ("a", OrderedDict(c=True))]))
        assert flat == {"b": 1.0, "a.c": True}
        assert list(flat) == ["b", "a.c"]

    def test_tuples_flatten_by_index(self):
        flat = flatten_scalars({"pair": (1, ("x", None))})
        assert flat == {"pair.0": 1.0, "pair.1.0": "x", "pair.1.1": None}

    def test_int_enum_becomes_a_float(self):
        class Level(enum.IntEnum):
            HIGH = 3

        flat = flatten_scalars({"level": Level.HIGH})
        assert flat == {"level": 3.0}
        assert type(flat["level"]) is float

    def test_bool_stays_bool_and_int_becomes_float(self):
        flat = flatten_scalars({"flag": True, "one": 1, "zero": 0, "off": False})
        assert flat["flag"] is True and flat["off"] is False
        assert type(flat["one"]) is float and type(flat["zero"]) is float

    def test_str_subclass_is_kept_as_is(self):
        class Label(str):
            pass

        flat = flatten_scalars({"label": Label("go")})
        assert flat == {"label": "go"}


class TestAggregateMetric:
    def test_numeric_column(self):
        rows = [{"m": 1.0}, {"m": 3.0}, {}]
        summary = aggregate_metric(rows, "m")
        assert summary == {"mean": 2.0, "min": 1.0, "max": 3.0, "n": 2}
        assert format_aggregate(summary) == "2.00/1/3"

    def test_boolean_column_counts(self):
        rows = [{"ok": True}, {"ok": True}, {"ok": False}]
        summary = aggregate_metric(rows, "ok")
        assert summary == {"counts": {"False": 1, "True": 2}, "n": 3}
        assert format_aggregate(summary) == "False:1 True:2"

    def test_label_column_counts(self):
        rows = [{"who": "C"}, {"who": "A"}, {"who": "C"}]
        assert aggregate_metric(rows, "who") == {
            "counts": {"A": 1, "C": 2}, "n": 3,
        }

    def test_mixed_column_is_categorical(self):
        rows = [{"m": 1.0}, {"m": "n/a"}]
        assert "counts" in aggregate_metric(rows, "m")

    def test_absent_metric(self):
        assert aggregate_metric([{"x": 1.0}], "y") is None
        assert format_aggregate(None) == "-"


class TestGrouping:
    RECORDS = [
        {"scenario": "s1", "adversary": "earliest",
         "analyses": {"coordination": {"satisfied": True, "margin": 2}}},
        {"scenario": "s1", "adversary": "latest",
         "analyses": {"coordination": {"satisfied": False, "margin": 0}}},
    ]

    def test_group_records(self):
        groups = group_records(self.RECORDS, ["scenario", "adversary"])
        assert set(groups) == {("s1", "earliest"), ("s1", "latest")}
        rows = groups[("s1", "earliest")]
        assert rows[0]["coordination.satisfied"] is True

    def test_pre_flattened_rows_give_the_same_payload(self):
        rows = [report_row(record) for record in self.RECORDS]
        slim = [
            {k: v for k, v in record.items() if k != "analyses"}
            for record in self.RECORDS
        ]
        metrics = ["coordination.margin", "coordination.satisfied"]
        expected = report_payload(self.RECORDS, ["scenario"], metrics)
        assert report_payload(slim, ["scenario"], metrics, rows=rows) == expected

    def test_discover_metrics(self):
        groups = group_records(self.RECORDS, ["scenario"])
        assert discover_metrics(groups) == [
            "coordination.margin", "coordination.satisfied",
        ]


class TestReportCliSurfacesNonNumeric:
    """End-to-end: booleans and labels appear in `repro report` output."""

    @pytest.fixture()
    def store_path(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        assert cli_main(
            ["sweep", "--scenario", "figure1", "--adversary", "earliest",
             "--seeds", "1", "--workers", "1", "--store", path]
        ) == 0
        return path

    def test_text_report_shows_booleans_and_labels(self, store_path, capsys):
        capsys.readouterr()
        assert cli_main(["report", "--store", store_path]) == 0
        out = capsys.readouterr().out
        # coordination.applicable is a boolean, go_sender a process label;
        # both were dropped by the old numeric-only flattening.
        assert "True:1" in out
        assert "C:1" in out

    def test_json_report_contains_categorical_summaries(self, store_path, capsys):
        capsys.readouterr()
        assert cli_main(
            ["report", "--store", store_path, "--json",
             "--metric", "coordination.applicable",
             "--metric", "coordination.go_sender",
             "--metric", "summary.sends"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload[0]
        assert entry["coordination.applicable"] == {"counts": {"True": 1}, "n": 1}
        assert entry["coordination.go_sender"] == {"counts": {"C": 1}, "n": 1}
        assert entry["summary.sends"]["n"] == 1  # numeric path unchanged


class TestGroupFieldCollisions:
    """A group field that shares its JSON key with the ``cells`` count or a
    requested metric would lose its value in the merged entry; the JSON
    surfaces reject it, naming the field, and the text table keeps it."""

    RECORDS = TestGrouping.RECORDS

    @pytest.mark.parametrize(
        "group_fields, metrics, clash",
        [
            (["cells", "scenario"], None, "cells"),
            (["scenario", "summary.sends"], None, "summary.sends"),
            (["scenario", "coordination.margin"], ["coordination.margin"], "coordination.margin"),
        ],
    )
    def test_payload_rejects_the_field(self, group_fields, metrics, clash):
        with pytest.raises(SpecError) as excinfo:
            report_payload(self.RECORDS, group_fields, metrics)
        assert excinfo.value.field == "group_by"
        assert repr(clash) in str(excinfo.value)

    def test_field_named_like_an_unrequested_metric_is_kept(self):
        payload = report_payload(
            self.RECORDS, ["scenario", "summary.sends"], ["coordination.margin"]
        )
        assert payload[0]["summary.sends"] == "?"
        assert payload[0]["cells"] == 2

    @pytest.fixture()
    def store_path(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        assert cli_main(
            ["sweep", "--scenario", "figure1", "--adversary", "earliest",
             "--seeds", "1", "--workers", "1", "--store", path]
        ) == 0
        return path

    def test_json_cli_exits_2_naming_the_field(self, store_path, capsys):
        capsys.readouterr()
        code = cli_main(
            ["report", "--store", store_path, "--json", "--group-by", "cells,scenario"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --group-by: field 'cells'")

    def test_text_table_keeps_the_field(self, store_path, capsys):
        capsys.readouterr()
        assert cli_main(["report", "--store", store_path, "--group-by", "cells,scenario"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:3] == ["cells", "scenario", "cells"]
        assert lines[2].split()[:3] == ["?", "figure1", "1"]
