"""Seed twins: cells whose run cannot depend on their seed execute once.

Under an unseeded adversary (``earliest``/``latest`` pin every delay to L or
U) a scenario without a ``seed`` parameter yields the same run at every
seed, so :func:`run_sweep` hands the executor one representative per
:meth:`SweepCell.run_identity` and delivers the twins from its record.
These tests pin the identity rule against every registered scenario, show
that seeded cells never share, and check that a sweep with twins stores
exactly the records per-cell :func:`run_cell` gives (``duration_s`` aside),
on both backends and across a kill between the representative and its
twins.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.experiments import (
    ResultStore,
    SerialExecutor,
    expand_grid,
    make_cell,
    run_cell,
    run_sweep,
)
from repro.experiments.analyses import list_analyses
from repro.experiments.cli import main as cli_main
from repro.experiments.runner import ADVERSARIES, _ADVERSARY_TABLE, error_record
from repro.scenarios import list_scenarios
from repro.scenarios.base import get_scenario

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

UNSEEDED = [name for name in ADVERSARIES if not _ADVERSARY_TABLE[name][1]]
SEEDED = [name for name in ADVERSARIES if _ADVERSARY_TABLE[name][1]]
SEED_FREE = [name for name in list_scenarios() if not get_scenario(name).has_param("seed")]
SEED_DECLARING = [name for name in list_scenarios() if get_scenario(name).has_param("seed")]


def _strip(record):
    return {key: value for key, value in record.items() if key != "duration_s"}


def _shared(outcome):
    return outcome.telemetry["metrics"]["counters"].get("sweep.cells_shared", 0)


def test_the_adversary_table_covers_both_kinds():
    assert UNSEEDED == ["earliest", "latest"]
    assert SEEDED == ["random"]
    assert SEED_FREE and SEED_DECLARING


@pytest.mark.parametrize("adversary", UNSEEDED)
@pytest.mark.parametrize("scenario", SEED_FREE)
def test_seed_free_scenarios_run_the_same_at_every_seed(scenario, adversary):
    """The identity rule, against every registered seed-free scenario at its
    default parameters and with every registered analysis pass."""
    analyses = list_analyses()
    first = make_cell(scenario, adversary=adversary, seed=1, analyses=analyses)
    second = make_cell(scenario, adversary=adversary, seed=2, analyses=analyses)
    assert first.run_identity() == second.run_identity()
    assert first.key() != second.key()
    assert run_cell(first)["analyses"] == run_cell(second)["analyses"]


@pytest.mark.parametrize("scenario", SEED_FREE)
def test_seeded_adversaries_never_share(scenario):
    for adversary in SEEDED:
        identities = {
            make_cell(scenario, adversary=adversary, seed=seed).run_identity()
            for seed in (1, 2, 3)
        }
        assert len(identities) == 3


@pytest.mark.parametrize("scenario", SEED_DECLARING)
def test_seed_declaring_scenarios_never_share(scenario):
    """The seed axis varies their instance (it is injected into ``params``)."""
    for adversary in ADVERSARIES:
        identities = {
            make_cell(scenario, adversary=adversary, seed=seed).run_identity()
            for seed in (1, 2, 3)
        }
        assert len(identities) == 3


def test_a_sweep_without_twins_shares_nothing():
    cells = expand_grid(
        ["figure1", "line-flood"],
        adversaries=list(ADVERSARIES),
        seeds=[1, 2],
        param_grid={"horizon": [4]},
    )
    cells = [cell for cell in cells if cell.scenario == "line-flood" or cell.adversary == "random"]
    outcome = run_sweep(cells, backend="serial")
    assert outcome.executed == len(cells)
    assert _shared(outcome) == 0


def test_a_pinned_seed_parameter_makes_twins():
    """With ``seed`` pinned, the seed axis varies nothing under an unseeded
    adversary, so those cells share (and still match per-cell runs)."""
    cells = expand_grid(
        ["line-flood"], adversaries=["earliest", "random"], seeds=[1, 2],
        param_grid={"seed": [0], "horizon": [4]},
    )
    outcome = run_sweep(cells, backend="serial")
    assert _shared(outcome) == 1
    assert [_strip(record) for record in outcome.records] == [
        _strip(run_cell(cell)) for cell in cells
    ]


def _twin_grid():
    return expand_grid(
        ["figure2b", "figure1", "line-flood"],
        adversaries=list(ADVERSARIES),
        seeds=[1, 2, 3],
        param_grid={"horizon": [6]},
    )


@pytest.mark.parametrize("backend", ["serial", "fabric"])
def test_a_sweep_with_twins_stores_per_cell_records(tmp_path, backend):
    cells = _twin_grid()
    store = ResultStore(str(tmp_path / "results.jsonl"))
    outcome = run_sweep(cells, store=store, workers=2, backend=backend)
    # figure2b and figure1: 2 unseeded adversaries x (3 seeds - 1) twins each.
    assert _shared(outcome) == 2 * 2 * 2
    assert (outcome.total, outcome.executed, outcome.cached, outcome.errors) == (
        len(cells), len(cells), 0, 0,
    )
    for cell in cells:
        stored = store.get(cell.key())
        assert _strip(stored) == _strip(run_cell(cell)), cell.describe()
    # A twin's duration is its own (near zero) cost, never its
    # representative's (the seed-1 cell) copied.
    for cell in cells:
        if cell.scenario != "line-flood" and cell.adversary in UNSEEDED and cell.seed > 1:
            (representative,) = [
                other for other in cells
                if other.run_identity() == cell.run_identity() and other.seed == 1
            ]
            twin_s = store.get(cell.key())["duration_s"]
            assert twin_s < store.get(representative.key())["duration_s"]


class _FailingExecutor(SerialExecutor):
    """Fails every cell it is handed, and remembers which."""

    def __init__(self):
        self.handed = []

    def execute(self, pending, handle):
        for index, cell in pending:
            self.handed.append(cell)
            handle(index, cell, error_record(cell, RuntimeError("boom")))


def test_a_failed_representative_fails_each_twin_with_its_own_record(tmp_path):
    cells = expand_grid(["figure1"], adversaries=["earliest"], seeds=[1, 2, 3])
    executor = _FailingExecutor()
    store = ResultStore(str(tmp_path / "results.jsonl"))
    outcome = run_sweep(cells, store=store, backend=executor)
    assert executor.handed == cells[:1]
    assert outcome.errors == 3 and outcome.executed == 0
    for cell in cells:
        assert store.get(cell.key()) == error_record(cell, "RuntimeError: boom")


#: Runs a figure1 earliest sweep over seeds 1-3 and SIGKILLs itself right
#: after the representative's record is appended, before any twin's.
_KILL_AFTER_REPRESENTATIVE = """
import os, signal, sys
from repro.experiments.cli import main
from repro.experiments.store import ResultStore

put = ResultStore.put
def put_then_die(self, record):
    put(self, record)
    os.kill(os.getpid(), signal.SIGKILL)
ResultStore.put = put_then_die
sys.exit(main(sys.argv[1:]))
"""


def test_a_kill_between_representative_and_twins_is_resumed(tmp_path, capsys):
    store_path = str(tmp_path / "results.jsonl")
    args = ["sweep", "--scenario", "figure1", "--adversary", "earliest",
            "--seed-list", "1,2,3", "--store", store_path]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    killed = subprocess.run(
        [sys.executable, "-c", _KILL_AFTER_REPRESENTATIVE, *args],
        env=env, capture_output=True, timeout=120,
    )
    assert killed.returncode == -9, killed.stderr
    cells = expand_grid(["figure1"], adversaries=["earliest"], seeds=[1, 2, 3])
    assert set(ResultStore(store_path).keys()) == {cells[0].key()}

    capsys.readouterr()
    assert cli_main([*args, "--resume"]) == 0
    assert "3 cells: 2 executed, 1 cached, 0 errors" in capsys.readouterr().out
    store = ResultStore(store_path)
    for cell in cells:
        assert _strip(store.get(cell.key())) == _strip(run_cell(cell))
