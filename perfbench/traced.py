"""Run one ``repro`` command with the ledger's timing shims installed.

Usage: ``python3 perfbench/traced.py SPANS.json -- <repro arguments>``

The command runs in this process through ``repro.experiments.cli.main``
exactly as ``python -m repro`` would run it; on exit the spans, the program
counter deltas and the process marks go to ``SPANS.json``.  Timestamps are
``time.perf_counter()`` (CLOCK_MONOTONIC), the same clock the parent
benchmark reads, so parent and child intervals compare directly.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS.json -- <repro arguments>")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import ledger

    recorder = ledger.Recorder()
    import repro.experiments.cli as cli

    imported = time.perf_counter()
    recorder.add("startup.import", STARTED, imported)
    ledger.install(recorder)
    before = ledger.counters()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        after = ledger.counters()
        reports = recorder.results.get("serve.handle.report", [])
        recorder.dump(
            out,
            started=STARTED,
            imported=imported,
            ended=time.perf_counter(),
            counters={name: after[name] - before[name] for name in after},
            reports_from_cache=sum(1 for r in reports if r and r.get("served_from_cache")),
            reports=len(reports),
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
