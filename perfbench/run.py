"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``sweep-flood``, ``sweep-coord``, ``serve-mixed``, or
``all``) from the root of a checkout, against the real ``repro sweep`` and
``repro serve`` entry points in ``src/``.  It prints a table of every metric
with its unit, checks the program's outputs, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the
run is traced and the metrics are the per-layer ones.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench-work"


def benchmark_names(trace: bool) -> list:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]]


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from perfbench import serve_load, sweeps

    work = os.path.join(ROOT, WORK_DIR, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if name == "serve-mixed":
            runner = serve_load.ServeRunner(ROOT, work, seed)
        else:
            runner = sweeps.SweepRunner(ROOT, work, name, seed)
        return runner.trace(seconds) if trace else runner.measure(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-flood", "sweep-coord", "serve-mixed", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "experiments", "cli.py")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]
    names = benchmark_names(bool(args.trace))
    workloads = (
        ("sweep-flood", "sweep-coord", "serve-mixed") if args.workload == "all" else (args.workload,)
    )
    results = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(result.table(), flush=True)
        missing = [name for name in names if result.metrics[name][0] is None]
        if missing:
            print(f"error: {workload} measured no value for {missing}", file=sys.stderr)
            return 1
        results.append(result)
    if len(results) == 1:
        print(results[0].json_line(names))
    else:
        print(json.dumps({
            "correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": {
                f"{r.workload}.{name}": {"value": r.metrics[name][0], "unit": r.metrics[name][1]}
                for r in results for name in names
            },
        }))
    return 0 if all(r.correct for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
