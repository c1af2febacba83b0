"""Benchmarks for the hash-consed run substrate (history interning, PR 3).

The bcm model is full-information: every message embeds its sender's entire
history, so a run's state is a deeply nested DAG in which the same prefix is
re-embedded thousands of times.  The seed represented histories as full step
tuples with structural equality, which made ``History.extend`` O(n) (O(n^2)
per process per run), and made deep equality between two independently built
runs re-walk the shared structure exponentially often (a torus-flood ``Run
==`` took seconds).  The interning layer (:mod:`repro.simulation.interning`)
replaces that substrate: parent-pointer history chains, one object per
structural value, equality by identity, causal pasts as bitsets.

These benchmarks keep a faithful replica of the *seed* substrate (full-copy
``extend``, structural ``__eq__``/``__hash__``) next to the interned one,
run both on identical grid/torus/tree flooding workloads, and gate a >= 5x
speedup on the combined build-path (history extension) + equality substrate
cost.  Every workload's numbers are also appended to ``BENCH_runs.json`` so
CI can diff the trajectory against the committed baseline.

The ``enumerate-*`` workloads count the runs of the exhaustive enumerator
(the simulator's step plus a product over delivery times).  The count is an
exact counter in the baseline, so any change to the enumerated set fails the
regression check; the time only warns.
"""

import time
from pathlib import Path

import pytest

from _bench_utils import record, report

from repro.core.causality import boundary_nodes, past_nodes
from repro.scenarios import get_scenario
from repro.simulation import enumerate_runs
from repro.simulation.interning import intern_pool
from repro.simulation.messages import History, MessageReceipt

#: Where the measured trajectory is written (diffed against the committed
#: ``BENCH_runs.baseline.json`` by ``scripts/check_bench_regression.py``).
ARTIFACT = Path(__file__).resolve().parent / "BENCH_runs.json"

#: Deep enough for the quadratic/exponential structural costs to be clearly
#: visible while the structural reference still finishes in well under a
#: minute on slow CI hardware.
HORIZON = 14

WORKLOADS = [
    ("grid-flood", {"rows": 3, "cols": 3, "horizon": HORIZON}),
    ("torus-flood", {"horizon": HORIZON}),
    ("tree-flood", {"horizon": HORIZON}),
]

#: The acceptance criterion: interned substrate >= 5x faster on construction
#: plus equality, on every flooding workload.
REQUIRED_SPEEDUP = 5.0


# ---------------------------------------------------------------------------
# A faithful replica of the seed substrate.  ``extend`` re-normalises and
# re-hashes the full step tuple (exactly what the seed constructor did), and
# equality is structural with only the per-object identity shortcut the seed
# had -- no interning, so two independently built replicas share nothing.
# ---------------------------------------------------------------------------


class _StructuralHistory:
    __slots__ = ("process", "steps", "_hash")

    def __init__(self, process, steps=()):
        normalised = tuple(tuple(step) for step in steps)
        object.__setattr__(self, "process", str(process))
        object.__setattr__(self, "steps", normalised)
        object.__setattr__(self, "_hash", hash(("hist", self.process, normalised)))

    def extend(self, step):
        return _StructuralHistory(self.process, self.steps + (tuple(step),))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return (
            self._hash == other._hash
            and self.process == other.process
            and self.steps == other.steps
        )


class _StructuralMessage:
    __slots__ = ("sender", "recipients", "sender_history", "payload", "_hash")

    def __init__(self, sender, recipients, sender_history, payload):
        object.__setattr__(self, "sender", sender)
        object.__setattr__(self, "recipients", recipients)
        object.__setattr__(self, "sender_history", sender_history)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(
            self, "_hash", hash(("msg", sender, recipients, sender_history, payload))
        )

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return (
            self._hash == other._hash
            and self.sender == other.sender
            and self.recipients == other.recipients
            and self.payload == other.payload
            and self.sender_history == other.sender_history
        )


class _StructuralReceipt:
    __slots__ = ("message", "_hash")

    def __init__(self, message):
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "_hash", hash(("recv", message)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return self.message == other.message


def _replicate_histories(run):
    """Rebuild the run's final histories on the structural substrate.

    Sharing *within* one replica mirrors one seed run (the engine reused
    message objects); separate calls share nothing, exactly like two
    independently simulated seed runs.
    """
    history_memo, message_memo = {}, {}

    def convert_history(history):
        replica = history_memo.get(id(history))
        if replica is None:
            steps = tuple(
                tuple(convert_observation(obs) for obs in step)
                for step in history.steps
            )
            replica = _StructuralHistory(history.process, steps)
            history_memo[id(history)] = replica
        return replica

    def convert_observation(observation):
        if isinstance(observation, MessageReceipt):
            message = observation.message
            replica = message_memo.get(id(message))
            if replica is None:
                replica = _StructuralMessage(
                    message.sender,
                    message.recipients,
                    convert_history(message.sender_history),
                    message.payload,
                )
                message_memo[id(message)] = replica
            return _StructuralReceipt(replica)
        return observation  # external receipts / actions are cheap leaves

    return {p: convert_history(run.final_node(p).history) for p in run.processes}


# ---------------------------------------------------------------------------
# The gated benchmark
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,params", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def test_bench_substrate_speedup(name, params):
    """Interned construction + equality >= 5x faster than the seed substrate."""
    spec = get_scenario(name)

    # End-to-end run construction in a fresh pool (reported, not gated: the
    # engine's own bookkeeping dilutes the substrate ratio at this size).
    with intern_pool():
        started = time.perf_counter()
        run_a = spec.build(**params).run()
        construction_s = time.perf_counter() - started
        run_b = spec.build(**params).run()

        steps_by_process = {
            p: run_a.final_node(p).history.steps for p in run_a.processes
        }

        # Interned substrate: replay every timeline through a fresh pool
        # (every extend is a miss, as during real construction) ...
        with intern_pool():
            started = time.perf_counter()
            for process, steps in steps_by_process.items():
                history = History.initial(process)
                for step in steps:
                    history = history.extend(step)
            interned_extension_s = time.perf_counter() - started

        # ... and whole-run equality between two independently built runs.
        started = time.perf_counter()
        runs_equal = run_a == run_b
        interned_equality_s = time.perf_counter() - started
        assert runs_equal, f"{name}: identical cells produced different runs"

        # Structural (seed) substrate on the identical workload.
        started = time.perf_counter()
        for process, steps in steps_by_process.items():
            history = _StructuralHistory(process)
            for step in steps:
                history = history.extend(step)
        structural_extension_s = time.perf_counter() - started

        replica_a = _replicate_histories(run_a)
        replica_b = _replicate_histories(run_b)
        started = time.perf_counter()
        replicas_equal = all(replica_a[p] == replica_b[p] for p in replica_a)
        structural_equality_s = time.perf_counter() - started
        assert replicas_equal, f"{name}: structural replicas disagree"

        # Past-set build: cold bitset fold vs memoized re-query.
        sigma = max(
            (run_a.final_node(p) for p in sorted(run_a.processes)),
            key=lambda node: node.step_count,
        )
        started = time.perf_counter()
        past = past_nodes(sigma)
        past_cold_s = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(100):
            again = past_nodes(sigma)
            boundary_nodes(sigma)
        past_warm_s = (time.perf_counter() - started) / 100
        assert again is past, "memoized past should be the cached object"
        assert len(past) > 1

    interned_s = interned_extension_s + interned_equality_s
    structural_s = structural_extension_s + structural_equality_s
    speedup = structural_s / interned_s if interned_s > 0 else float("inf")

    report(
        f"run substrate ({name})",
        "hash-consed histories turn deep structural equality into pointer equality",
        f"extend+eq structural {structural_s * 1e3:.1f}ms vs interned "
        f"{interned_s * 1e3:.1f}ms ({speedup:.0f}x); run build {construction_s * 1e3:.1f}ms; "
        f"past cold {past_cold_s * 1e3:.2f}ms warm {past_warm_s * 1e6:.1f}us",
    )
    record(
        ARTIFACT,
        name,
        {
            "construction_s": round(construction_s, 6),
            "interned_extension_s": round(interned_extension_s, 6),
            "interned_equality_s": round(interned_equality_s, 6),
            "structural_extension_s": round(structural_extension_s, 6),
            "structural_equality_s": round(structural_equality_s, 6),
            "substrate_speedup": round(speedup, 1),
            "past_cold_s": round(past_cold_s, 6),
            "past_warm_s": round(past_warm_s, 9),
        },
        top_level={"horizon": HORIZON},
    )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"{name}: interned substrate only {speedup:.1f}x faster "
        f"({structural_s * 1e3:.1f}ms vs {interned_s * 1e3:.1f}ms)"
    )


def test_bench_run_construction_throughput(benchmark):
    """pytest-benchmark timing of end-to-end run construction (torus flood)."""
    spec = get_scenario("torus-flood")
    params = dict(horizon=HORIZON)

    def construct():
        with intern_pool():
            return spec.build(**params).run()

    run = benchmark(construct)
    assert run.horizon == HORIZON


def test_bench_run_equality_regression():
    """Torus-flood ``Run ==`` completes in well under a second (was seconds)."""
    spec = get_scenario("torus-flood")
    with intern_pool():
        run_a = spec.build(horizon=HORIZON).run()
        run_b = spec.build(horizon=HORIZON).run()
        started = time.perf_counter()
        assert run_a == run_b
        elapsed = time.perf_counter() - started
    report(
        "run equality (torus-flood)",
        "identity equality makes whole-run comparison linear in the records",
        f"Run == in {elapsed * 1e3:.2f}ms at horizon {HORIZON}",
    )
    assert elapsed < 0.5, f"Run == took {elapsed:.3f}s"


#: (workload, scenario, build parameters, horizon; ``None`` keeps the scenario's).
ENUMERATE_WORKLOADS = [
    ("enumerate-line-flood-3", "line-flood", {"num_processes": 3}, 9),
    ("enumerate-figure4-forks2", "figure4", {"num_forks": 2}, None),
]


@pytest.mark.parametrize(
    "name,scenario,params,horizon", ENUMERATE_WORKLOADS, ids=[w[0] for w in ENUMERATE_WORKLOADS]
)
def test_bench_enumerate(name, scenario, params, horizon):
    """The enumerated set's size is gated exactly; the time it takes only warns."""
    built = get_scenario(scenario).build(**params)
    horizon = built.horizon if horizon is None else horizon
    with intern_pool():
        started = time.perf_counter()
        runs = sum(
            1
            for _ in enumerate_runs(
                built.context,
                built.protocols,
                external_inputs=built.external_inputs,
                horizon=horizon,
            )
        )
        enumerate_s = time.perf_counter() - started
    report(
        f"enumeration ({name})",
        "every legal schedule up to the horizon, each run once",
        f"{runs} runs at horizon {horizon} in {enumerate_s * 1e3:.0f}ms",
    )
    record(ARTIFACT, name, {"runs": runs, "enumerate_s": round(enumerate_s, 6)})
