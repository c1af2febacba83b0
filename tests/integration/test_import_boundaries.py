"""Each ``repro`` command loads only the modules it runs.

Every command below runs as ``python -m repro`` in a fresh interpreter that
writes its ``sys.modules`` at exit, and the test checks which ``repro``
modules the command loaded: the report and store commands never load the
simulator or the runner, and commands that never fork workers or serve
HTTP never load the fabric, the service, the visualisers or the golden
corpus.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.experiments import executors, runner, spec

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Runs ``python -m repro ARGS...`` and writes the loaded ``repro`` modules
#: to the file named by the first argument.
_DUMP_AND_RUN = """
import atexit, json, runpy, sys
out, *args = sys.argv[1:]
def dump():
    with open(out, "w") as handle:
        json.dump(sorted(name for name in sys.modules if name.split(".")[0] == "repro"), handle)
atexit.register(dump)
sys.argv = ["repro", *args]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

GRID = ["--scenario", "figure1", "--adversary", "earliest", "--seeds", "1"]

NO_SIMULATION = (
    "repro.core",
    "repro.simulation",
    "repro.scenarios",
    "repro.experiments.runner",
    "repro.experiments.remote",
    "repro.experiments.serve",
)
NO_FABRIC = (
    "repro.experiments.remote",
    "repro.experiments.serve",
    "repro.viz",
    "repro.experiments.golden",
)


def _loaded(tmp_path, *args, code=_DUMP_AND_RUN):
    out = tmp_path / f"modules-{len(list(tmp_path.iterdir()))}.json"
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    done = subprocess.run(
        [sys.executable, "-c", code, str(out), *args],
        env=env,
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


def _assert_none_of(modules, forbidden):
    loaded = [m for m in modules if any(m == f or m.startswith(f + ".") for f in forbidden)]
    assert not loaded, f"unexpected modules: {loaded}"


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A store holding one serial sweep (cells plus telemetry)."""
    where = tmp_path_factory.mktemp("store")
    path = str(where / "results.jsonl")
    modules = _loaded(where, "sweep", *GRID, "--workers", "1", "--store", path)
    _assert_none_of(modules, NO_FABRIC)
    assert "repro.experiments.runner" in modules
    return path


def test_report_and_store_commands_load_no_simulation(tmp_path, store):
    for args in (["report", "--json"], ["report"], ["store", "info"]):
        modules = _loaded(tmp_path, *args, "--store", store)
        _assert_none_of(modules, NO_SIMULATION)
        assert "repro.experiments.store" in modules


def test_list_and_dry_run_load_no_fabric(tmp_path, store):
    for args in (["list"], ["sweep", *GRID, "--dry-run", "--store", store]):
        modules = _loaded(tmp_path, *args)
        _assert_none_of(modules, NO_FABRIC)
        assert "repro.scenarios" in modules
    # Nothing on the dry-run path uses the theorem checkers.
    _assert_none_of(modules, ("repro.core.theorems", "repro.simulation.enumerate"))


def test_cached_serial_sweep_loads_no_fabric(tmp_path, store):
    modules = _loaded(tmp_path, "sweep", *GRID, "--workers", "1", "--store", store)
    _assert_none_of(modules, NO_FABRIC)


def test_obs_loads_no_other_repro_module(tmp_path):
    code = (
        "import json, sys; import repro.obs; "
        "json.dump(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'), "
        "open(sys.argv[1], 'w'))"
    )
    modules = _loaded(tmp_path, code=code)
    assert [m for m in modules if m != "repro" and not m.startswith("repro.obs")] == []


def test_import_repro_loads_no_submodule(tmp_path):
    code = (
        "import json, sys; import repro; "
        "json.dump(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'), "
        "open(sys.argv[1], 'w'))"
    )
    assert _loaded(tmp_path, code=code) == ["repro"]


def test_parser_constants_mirror_the_tables_they_name():
    """The CLI parser reads names from :mod:`repro.experiments.spec`, which
    must list what the runner and the executors act on."""
    assert spec.ADVERSARIES == tuple(runner._ADVERSARY_TABLE)
    assert runner.ADVERSARIES is spec.ADVERSARIES
    assert executors.BACKENDS is spec.BACKENDS
    for backend in ("auto", "serial"):
        assert executors.resolve_executor(backend, workers=1).name == "serial"
    with pytest.raises(spec.SweepError, match="unknown backend"):
        executors.resolve_executor("nope")
    assert set(spec.BACKENDS) == {"auto", "serial", "fabric"}
