"""The repository benchmark: seeded workloads against ``repro sweep`` and
``repro serve``, end-to-end metrics, output checks, and a traced per-layer
ledger.  Entry point: ``python3 perfbench/run.py --workload NAME``.
"""
