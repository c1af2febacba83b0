"""Integration tests for the sweep pipeline (the PR's acceptance criterion).

A >= 36-cell grid (3 scenarios x 3 delivery adversaries x 4 seeds) runs on a
2-worker process pool, persists to the JSONL store, and a second invocation
completes with 100% cache hits.  A subprocess test exercises the real
``python -m repro`` entry point, and a kill-and-resume test SIGKILLs a sweep
mid-flight and asserts that ``--resume`` recomputes zero completed cells.
"""

import json
import os
import signal
import subprocess
import sys
import time

import repro
from repro.experiments import ADVERSARIES, ResultStore, expand_grid, run_sweep
from repro.experiments.cli import DEFAULT_SWEEP_SCENARIOS, main as cli_main

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

def _grid():
    return expand_grid(
        list(DEFAULT_SWEEP_SCENARIOS),
        adversaries=list(ADVERSARIES),
        seeds=[0, 1, 2, 3],
    )


class TestSweepAcceptance:
    def test_parallel_sweep_then_full_cache_hit(self, tmp_path):
        cells = _grid()
        assert len(cells) >= 36  # 3 scenarios x 3 adversaries x 4 seeds

        store = ResultStore(str(tmp_path / "results.jsonl"))
        first = run_sweep(cells, store=store, workers=2)
        assert first.total == len(cells)
        assert first.executed == len(cells)
        assert first.errors == 0
        # One record per cell plus the sweep's telemetry record.
        assert len(store) == len(cells) + 1
        telemetry = store.get(first.telemetry["key"])
        assert telemetry is not None
        assert telemetry["kind"] == "sweep_telemetry"
        assert telemetry["status"] == "telemetry"

        # Second invocation: incremental, 100% cache hits, nothing executed.
        second = run_sweep(cells, store=store, workers=2)
        assert second.executed == 0
        assert second.cached == len(cells)
        assert second.cache_hit_rate == 1.0
        assert all(record.get("cached") for record in second.records)

        # Cached records are the persisted ones, byte-for-byte (minus the flag).
        for record in second.records:
            stored = store.get(record["key"])
            assert stored is not None
            assert {k: v for k, v in record.items() if k != "cached"} == stored

    def test_parallel_matches_serial(self, tmp_path):
        """Worker count must not change results (deterministic per-cell seeding)."""
        cells = _grid()[:6]
        serial_store = ResultStore(str(tmp_path / "serial.jsonl"))
        parallel_store = ResultStore(str(tmp_path / "parallel.jsonl"))
        run_sweep(cells, store=serial_store, workers=1)
        run_sweep(cells, store=parallel_store, workers=2)

        def strip(record):
            return {k: v for k, v in record.items() if k != "duration_s"}

        for cell in cells:
            key = cell.key()
            assert strip(serial_store.get(key)) == strip(parallel_store.get(key))

    def test_cli_sweep_twice_via_main(self, tmp_path, capsys):
        store_path = str(tmp_path / "results.jsonl")
        args = ["sweep", "--workers", "2", "--store", store_path]
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "-> 36 cells" in out
        assert "36 executed, 0 cached" in out

        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "0 executed, 36 cached" in out

        # The store holds analysable records for every cell (plus the sweep's
        # telemetry record, which carries a non-"ok" status).
        records = ResultStore(store_path).records()
        cell_records = [r for r in records if r["status"] == "ok"]
        assert len(cell_records) == 36
        assert len(records) == 37
        for record in cell_records:
            assert "summary" in record["analyses"]
            json.dumps(record)


class TestCliSubprocess:
    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_python_m_repro_sweep_dry_run(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--dry-run"],
            capture_output=True,
            text=True,
            env=self._env(),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "-> 36 cells" in result.stdout
        assert "dry run: nothing executed" in result.stdout

    def test_python_m_repro_sweep_backend_sharded(self, tmp_path):
        store_path = str(tmp_path / "results.jsonl")
        args = [
            sys.executable, "-m", "repro", "sweep",
            "--scenario", "line-flood", "--adversary", "earliest,random",
            "--seeds", "2", "--set", "horizon=5",
            "--backend", "fabric", "--workers", "2", "--store", store_path,
        ]
        result = subprocess.run(
            args, capture_output=True, text=True, env=self._env(), timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert "[backend=fabric]" in result.stdout
        # 4 cell records + 1 telemetry record.
        assert len(ResultStore(store_path)) == 5

    def test_python_m_repro_list(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            env=self._env(),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "torus-flood" in result.stdout


class TestKillAndResume:
    """A SIGKILLed sweep resumes via ``--resume`` with zero recomputed cells."""

    #: Heavy-ish cells (~50-100ms each) so the kill reliably lands mid-sweep.
    SWEEP_ARGS = [
        "sweep",
        "--scenario", "torus-flood",
        "--adversary", "random",
        "--seeds", "24",
        "--set", "rows=5",
        "--set", "cols=5",
        "--set", "horizon=16",
        "--workers", "2",
    ]

    def _cells(self):
        return expand_grid(
            ["torus-flood"],
            adversaries=["random"],
            seeds=range(24),
            param_grid={"rows": [5], "cols": [5], "horizon": [16]},
        )

    def test_kill_mid_sweep_then_resume(self, tmp_path, capsys):
        store_path = str(tmp_path / "results.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.SWEEP_ARGS, "--store", store_path],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Kill as soon as at least two cells have been persisted.
        deadline = time.time() + 120
        while time.time() < deadline and proc.poll() is None:
            if os.path.exists(store_path):
                with open(store_path, "rb") as handle:
                    if handle.read().count(b"\n") >= 2:
                        break
            time.sleep(0.005)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

        # Simulate the worst crash shape deterministically: a torn final line
        # (the process died mid-append).
        with open(store_path, "ab") as handle:
            handle.write(b'{"key": "torn-by-sigkill')
        completed = set(ResultStore(store_path).keys())
        assert completed, "sweep was killed before persisting anything"

        cells = self._cells()
        recomputed = []
        outcome = run_sweep(
            cells,
            store=ResultStore(store_path),
            workers=2,
            resume=True,
            progress=lambda message: recomputed.append(message)
            if message.startswith("done:") else None,
        )
        # Zero recomputed cells: everything the killed run persisted is a
        # cache hit, and only the remainder executed.
        assert outcome.recovered_lines == 1
        assert outcome.errors == 0
        assert outcome.cached == len(completed)
        assert outcome.executed == len(cells) - len(completed)
        assert len(recomputed) == outcome.executed
        for record in outcome.records:
            if record["key"] in completed:
                assert record.get("cached") is True

        # The CLI path: a second --resume invocation is 100% cache hits.
        exit_code = cli_main([*self.SWEEP_ARGS, "--store", store_path, "--resume"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert f"0 executed, {len(cells)} cached" in out

        # The killed sweep's local workers did not outlive it: they share its
        # command line (forked), so none may still name this store.
        assert _processes_naming(store_path, within_s=5.0) == []


def _processes_naming(text, within_s):
    """Pids whose command line contains ``text``, once that list is empty
    or ``within_s`` has passed (Linux ``/proc``; elsewhere always empty)."""
    deadline = time.time() + within_s
    while True:
        pids = []
        for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    if text.encode() in handle.read():
                        pids.append(int(entry))
            except (OSError, ValueError):
                continue
        if not pids or time.time() >= deadline:
            return pids
        time.sleep(0.1)


class TestSegmentDamageResume:
    """``--resume`` self-heals segment corruption: a deliberately corrupted
    sealed record plus a deleted index cost exactly the damaged cells a
    recompute — every intact record stays a cache hit."""

    def test_corrupt_segment_and_deleted_index_resume(self, tmp_path):
        store_path = str(tmp_path / "results.jsonl")
        cells = expand_grid(
            ["line-flood"],
            adversaries=["earliest", "random"],
            seeds=range(4),
            param_grid={"horizon": [6]},
        )
        first = run_sweep(
            cells, store=ResultStore(store_path, rotate_bytes=1024), workers=2
        )
        assert first.executed == len(cells)
        seg_dir = store_path + ".segments"
        index_path = store_path + ".index.json"
        segments = sorted(os.listdir(seg_dir))
        assert segments and os.path.exists(index_path)
        keys_before = set(ResultStore(store_path, rotate_bytes=1024).keys())

        # Flip one byte mid-record in the first segment; delete the index.
        seg_path = os.path.join(seg_dir, segments[0])
        with open(seg_path, "rb") as handle:
            lines = handle.read().split(b"\n")
        line = bytearray(lines[1])  # first record line, after the meta line
        line[len(line) // 2] ^= 0xFF
        lines[1] = bytes(line)
        with open(seg_path, "wb") as handle:
            handle.write(b"\n".join(lines))
        os.unlink(index_path)

        # The rebuilt index drops exactly the CRC-failed record(s).
        damaged = keys_before - set(ResultStore(store_path, rotate_bytes=1024).keys())
        assert damaged
        cell_keys = {cell.key() for cell in cells}
        assert damaged <= cell_keys  # the telemetry record was not the victim

        outcome = run_sweep(
            cells,
            store=ResultStore(store_path, rotate_bytes=1024),
            workers=2,
            resume=True,
        )
        assert outcome.errors == 0
        assert outcome.executed == len(damaged)
        assert outcome.cached == len(cells) - len(damaged)

        # The recomputed records superseded the corrupt ones: whole again.
        assert cell_keys <= set(ResultStore(store_path, rotate_bytes=1024).keys())
