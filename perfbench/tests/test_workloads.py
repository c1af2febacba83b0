"""Seeded inputs: the same seed gives the same inputs, another seed others."""

from collections import Counter

from perfbench import workloads


def test_sweep_inputs_are_seeded():
    for name in ("sweep-flood", "sweep-coord"):
        assert workloads.sweep_input(name, 3) == workloads.sweep_input(name, 3)
        assert workloads.sweep_input(name, 3).args != workloads.sweep_input(name, 4).args
        assert workloads.sweep_input(name, 3).cells == workloads.sweep_input(name, 4).cells


def test_sweep_cell_counts_match_the_grids():
    from repro.experiments.runner import expand_grid

    flood = expand_grid(
        ["torus-flood", "grid-flood", "random-workload"],
        seeds=[0],
        param_grid={
            "rows": [4, 5], "cols": [4, 5], "horizon": [16], "num_processes": [8, 10],
            "seed": list(workloads.FLOOD_INSTANCES),
        },
    )
    assert len(flood) == workloads.sweep_input("sweep-flood", 0).cells
    coord = expand_grid(
        ["figure2b", "figure4", "zigzag-chain"],
        seeds=[0, 1],
        param_grid={"num_forks": [12, 16, 20, 24, 28, 32]},
    )
    assert len(coord) == workloads.sweep_input("sweep-coord", 0).cells


def test_serve_schedules_are_seeded_and_exact():
    serve = workloads.serve_input(7)
    keys = workloads.store_keys(serve)
    assert len(keys) == serve.store_cells == len(set(keys))
    ops = serve.schedule(keys)
    assert ops == workloads.serve_input(7).schedule(keys)
    assert ops != workloads.serve_input(8).schedule(keys)
    assert Counter(op.kind for op in ops) == {"write": 8, "report": 12, "read": 20}
    assert all(op.kind == "write" for block in (ops[:4], ops[20:24]) for op in block)
    assert sum(op.absent for op in ops) == 2
    known = set(keys)
    assert all((op.key in known) != op.absent for op in ops if op.kind == "read")


def test_serve_writes_extend_a_stored_grid_by_new_seeds():
    serve = workloads.serve_input(7)
    keys = set(workloads.store_keys(serve))
    from repro.experiments.serve import validate_spec

    writes = [op for op in serve.schedule(sorted(keys)) if op.kind == "write"]
    seen = set()
    for op in writes:
        cells, _ = validate_spec(op.spec)
        fresh = [cell for cell in cells if cell.key() not in keys]
        assert len(fresh) == op.new_cells == 6
        assert len(cells) == 306
        assert not seen & {cell.key() for cell in fresh}
        seen |= {cell.key() for cell in fresh}
