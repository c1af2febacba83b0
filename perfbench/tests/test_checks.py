"""The output checks catch wrong records."""

import copy

from perfbench import checks
from perfbench.serve_load import Client, ServeRunner
from perfbench.stats import OpLog
from repro.experiments.runner import make_cell, run_cell
from repro.experiments.store import ResultStore


def _store_with_cells(tmp_path):
    path = str(tmp_path / "results.jsonl")
    store = ResultStore(path)
    records = [
        run_cell(make_cell("figure6", adversary=adversary, seed=seed))
        for adversary in ("earliest", "latest")
        for seed in (0, 1)
    ]
    for record in records:
        store.put(record)
    return path, [record["key"][:12] for record in records]


def test_intact_store_passes(tmp_path):
    path, planned = _store_with_cells(tmp_path)
    assert checks.check_sweep_records(checks.cell_records(path), planned, checks.Recompute()) == []


def test_corrupted_record_is_caught(tmp_path):
    path, planned = _store_with_cells(tmp_path)
    store = ResultStore(path)
    record = copy.deepcopy(store.get(store.keys()[0]))
    record["analyses"]["bounds_graph"]["edges"] += 1
    store.put(record)  # newest record per key wins
    problems = checks.check_sweep_records(checks.cell_records(path), planned, checks.Recompute())
    assert len(problems) == 1
    assert "differ from a serial recompute" in problems[0]


def test_missing_and_unplanned_cells_are_caught(tmp_path):
    path, planned = _store_with_cells(tmp_path)
    problems = checks.check_sweep_records(
        checks.cell_records(path), planned[1:] + ["0" * 12], checks.Recompute()
    )
    assert problems and "differ from the plan" in problems[0]


def test_dry_run_prefixes():
    output = "sweep: 1 scenario(s) -> 2 cells\n  0123456789ab  a x b\n  ba9876543210  c\ndry run\n"
    assert checks.dry_run_prefixes(output) == ["0123456789ab", "ba9876543210"]


def _client_with(reads=(), reports=()):
    client = Client(port=0, ops=[], base_cells=0)
    client.log.reads.extend(reads)
    client.log.reports.extend(reports)
    for _ in reads:
        client.log.ops["read"].record(1.0, True)
    for _ in reports:
        client.log.ops["report"].record(1.0, True)
    return client


def test_served_record_mismatch_is_caught(tmp_path):
    path, _ = _store_with_cells(tmp_path)
    store = ResultStore(path)
    key = store.keys()[0]
    good = checks.digest(store.get(key))
    runner = ServeRunner(str(tmp_path), str(tmp_path), seed=0)
    checked = _client_with(
        reads=[
            (key, False, good, 200),  # the store's record: fine
            ("f" * 64, True, None, 404),  # a seeded absent key: fine
            (key, False, checks.digest({"wrong": 1}), 200),  # a wrong body
            (store.keys()[1], False, None, 404),  # a stored key answered 404
        ],
        reports=[(4, 4), (0, 5)],  # the second counts more records than exist
    )
    runner.verify(path, checked)
    assert checked.log.ops["read"].failed == 2
    assert checked.log.ops["report"].failed == 1
    assert isinstance(checked.log.ops["read"], OpLog)
