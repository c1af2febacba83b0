"""Deterministic fault injection for the sweep fabric.

The robustness machinery in :mod:`repro.experiments.remote` exists to
survive sick workers: processes
that die mid-shard, hang without heartbeating, crawl, or drop their
connection.  This module makes those failures *reproducible*: a
:class:`FaultPlan` is a list of rules, each naming an injection point, the
arrival at which it fires, and what happens — so a test (or ``repro sweep
--chaos``) can script "the worker's second shard SIGKILLs it" and get the
same failure on every run.

Spec grammar (comma-separated rules)::

    KIND@POINT:WHEN[:ARG]

    kill@worker.shard:2          SIGKILL the worker on its 2nd shard
    hang@worker.shard:1:600      freeze (no heartbeats) for 600s on shard 1
    slow@worker.cell:*:0.05      sleep 50ms before every cell
    drop@worker.result:1         drop the connection instead of the 1st result

* ``KIND`` — ``kill`` (SIGKILL the current process), ``hang`` (sleep with
  heartbeats suppressed, simulating a frozen process), ``slow`` (plain
  sleep), ``drop`` (raise :class:`DropConnection`; only meaningful at the
  remote worker's connection-facing points, where the worker catches it and
  reconnects).
* ``POINT`` — a dotted site name.  The shipped points are ``worker.cell``
  and ``worker.shard`` (fired by the shard loop ``iter_shard`` before the
  work) and ``worker.result`` / ``worker.connect`` (fired by the worker
  runtime).  The *storage*
  points are ``store.append``, ``store.rotate``, and ``store.seal``,
  consulted by :class:`repro.experiments.store.ResultStore`.
* ``WHEN`` — ``n`` (exactly the n-th arrival at the point, 1-based),
  ``n+`` (the n-th and every later arrival), or ``*`` (every arrival).
* ``ARG`` — seconds for ``slow``/``hang`` (hang defaults to
  :data:`DEFAULT_HANG_S`).

Storage faults are a second family of kinds — ``torn-write`` (an append is
cut short mid-line, like a crash between ``write(2)`` issuing and
completing), ``partial-fsync`` (a sealed segment loses its unsynced last
bytes), ``corrupt-segment`` (one byte of a sealed segment flips), and
``stale-index`` (the sidecar index write after a rotation never lands).
They are *cooperative*: the store asks :func:`storage_fault` which rules
are due at a point and degrades its own I/O accordingly, rather than
:func:`fire` doing anything violent.  Every one of them is recoverable by
construction — the damage surfaces as cache misses, an index rebuild, or a
``repro store verify --repair``, never as wrong records served.

Scoping: process faults (``kill``/``hang``/``slow``/``drop``) only fire in
processes explicitly marked as *workers* (:func:`mark_worker`, called by
the worker runtime, :func:`repro.experiments.remote.run_worker`, in every
local or external fabric worker).  The sweep parent — including its serial
path and the inline drain the recovery machinery degrades to — is never
marked, so a chaos plan can never kill the coordinator.  Storage faults instead fire in any process marked via
:func:`mark_storage` *or* :func:`mark_worker` — the coordinator owns the
store, so ``repro sweep --chaos`` with a storage plan marks itself; the
coordinator's immunity to process faults is preserved because
:func:`fire` skips storage kinds and :func:`storage_fault` never kills
anything.  Arrival counts are per process: every worker counts its own
arrivals, which keeps plans deterministic for a
fixed worker (a worker's n-th shard is its n-th shard regardless of what
the rest of the fleet does).

Plans travel to worker processes via the :data:`FAULTS_ENV` environment
variable (``REPRO_FAULTS``), set by ``repro sweep --chaos`` or
``repro worker --faults`` and read at :func:`mark_worker` time.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_CHAOS_PLAN",
    "DEFAULT_HANG_S",
    "FAULTS_ENV",
    "DropConnection",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "fire",
    "hang_active",
    "install_plan",
    "is_storage",
    "is_worker",
    "mark_storage",
    "mark_worker",
    "parse_plan",
    "reset",
    "storage_fault",
    "STORAGE_KINDS",
]

#: Environment variable carrying a fault spec into worker processes.
FAULTS_ENV = "REPRO_FAULTS"

#: How long a ``hang`` freezes when the rule gives no duration.  Long enough
#: that leases and heartbeat timeouts expire first; the coordinator is
#: expected to kill or abandon the hung process, not wait it out.
DEFAULT_HANG_S = 600.0

#: The plan ``repro sweep --chaos`` installs when none is given: every local
#: worker SIGKILLs itself on its second shard (exercising worker replacement
#: and lease re-covery) and crawls briefly on its third cell.  Both
#: kinds leave results bit-identical to serial execution — the smoke mode
#: asserts completion, not degradation.
DEFAULT_CHAOS_PLAN = "kill@worker.shard:2,slow@worker.cell:3:0.02"

#: Storage fault kinds: consulted cooperatively by the result store via
#: :func:`storage_fault`, never applied by :func:`fire`.
STORAGE_KINDS = frozenset({"torn-write", "partial-fsync", "corrupt-segment", "stale-index"})

_KINDS = ("kill", "hang", "slow", "drop", *sorted(STORAGE_KINDS))


class FaultError(ValueError):
    """Raised on a malformed fault spec."""


class DropConnection(Exception):
    """A ``drop`` fault fired: the worker should sever its connection."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed ``KIND@POINT:WHEN[:ARG]`` clause."""

    kind: str
    point: str
    nth: Optional[int]  # None means every arrival
    repeat: bool = False  # ``n+``: the nth and all later arrivals
    arg: Optional[float] = None

    def matches(self, count: int) -> bool:
        if self.nth is None:
            return True
        if self.repeat:
            return count >= self.nth
        return count == self.nth

    def describe(self) -> str:
        when = "*" if self.nth is None else f"{self.nth}{'+' if self.repeat else ''}"
        arg = f":{self.arg}" if self.arg is not None else ""
        return f"{self.kind}@{self.point}:{when}{arg}"


@dataclass
class FaultPlan:
    """A set of rules plus per-point arrival counters (one process's view)."""

    rules: Tuple[FaultRule, ...] = ()
    _counts: Dict[str, int] = field(default_factory=dict)

    def arrivals(self, point: str) -> int:
        return self._counts.get(point, 0)

    def arrive(self, point: str) -> List[FaultRule]:
        """Count one arrival at ``point`` and return the rules that fire."""
        count = self._counts.get(point, 0) + 1
        self._counts[point] = count
        return [
            rule for rule in self.rules if rule.point == point and rule.matches(count)
        ]

    def describe(self) -> str:
        return ",".join(rule.describe() for rule in self.rules)


def parse_plan(spec: str) -> FaultPlan:
    """Parse a comma-separated fault spec into a :class:`FaultPlan`."""
    rules: List[FaultRule] = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        if "@" not in clause:
            raise FaultError(f"fault rule {clause!r} must look like KIND@POINT:WHEN")
        kind, _, rest = clause.partition("@")
        kind = kind.strip()
        if kind not in _KINDS:
            raise FaultError(f"unknown fault kind {kind!r}; known: {list(_KINDS)}")
        parts = rest.split(":")
        if len(parts) < 2:
            raise FaultError(f"fault rule {clause!r} is missing its WHEN clause")
        point = parts[0].strip()
        if not point:
            raise FaultError(f"fault rule {clause!r} has an empty point name")
        when = parts[1].strip()
        nth: Optional[int]
        repeat = False
        if when == "*":
            nth = None
        else:
            if when.endswith("+"):
                repeat = True
                when = when[:-1]
            try:
                nth = int(when)
            except ValueError:
                raise FaultError(
                    f"fault rule {clause!r}: WHEN must be an integer, 'n+', or '*'"
                )
            if nth < 1:
                raise FaultError(f"fault rule {clause!r}: WHEN counts from 1")
        arg: Optional[float] = None
        if len(parts) > 2 and parts[2].strip():
            try:
                arg = float(parts[2])
            except ValueError:
                raise FaultError(f"fault rule {clause!r}: ARG must be a number")
            if arg < 0:
                raise FaultError(f"fault rule {clause!r}: ARG must be >= 0")
        rules.append(FaultRule(kind=kind, point=point, nth=nth, repeat=repeat, arg=arg))
    return FaultPlan(rules=tuple(rules))


# ---------------------------------------------------------------------------
# Process-local installation and firing.
# ---------------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None
_IS_WORKER = False
_IS_STORAGE = False
#: Set while a ``hang`` fault sleeps; the remote worker's heartbeat thread
#: checks it and goes silent, so a hang looks like a frozen process to the
#: coordinator (missed heartbeats), not a slow-but-alive one.
_HANGING = threading.Event()


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or clear, with ``None``) this process's fault plan."""
    global _PLAN
    _PLAN = plan


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


def is_worker() -> bool:
    return _IS_WORKER


def is_storage() -> bool:
    return _IS_STORAGE


def mark_storage(spec: Optional[str] = None) -> None:
    """Open this process to *storage* faults and install its plan.

    The coordinator calls this (via ``repro sweep --chaos`` with a
    storage-kind plan) so its own ``ResultStore`` consults the plan at
    append/rotate/seal time.  Unlike :func:`mark_worker` this does **not**
    expose the process to ``kill``/``hang``/``slow``/``drop`` — storage
    faults degrade I/O, they never touch the process itself.  ``spec``
    defaults to the :data:`FAULTS_ENV` environment variable.
    """
    global _IS_STORAGE
    _IS_STORAGE = True
    if spec is None:
        spec = os.environ.get(FAULTS_ENV, "")
    if spec:
        install_plan(parse_plan(spec))


def mark_worker(spec: Optional[str] = None) -> None:
    """Mark this process as a fault-scoped worker and install its plan.

    ``spec`` defaults to the :data:`FAULTS_ENV` environment variable; an
    absent/empty spec still marks the process (harmlessly — firing a point
    against no plan is a no-op), so every worker calls it unconditionally.
    """
    global _IS_WORKER
    _IS_WORKER = True
    if spec is None:
        spec = os.environ.get(FAULTS_ENV, "")
    if spec:
        install_plan(parse_plan(spec))


def reset() -> None:
    """Clear plan, worker/storage marks, and hang flag (test isolation)."""
    global _PLAN, _IS_WORKER, _IS_STORAGE
    _PLAN = None
    _IS_WORKER = False
    _IS_STORAGE = False
    _HANGING.clear()


def hang_active() -> bool:
    """Whether a ``hang`` fault is currently freezing this process."""
    return _HANGING.is_set()


def fire(point: str) -> None:
    """Report one arrival at an injection point and apply any due faults.

    A no-op unless this process is marked as a worker and a plan is
    installed.  ``kill`` SIGKILLs the process (indistinguishable from an
    external ``kill -9``); ``hang`` sleeps with the hang flag raised so
    heartbeat loops go silent; ``slow`` sleeps; ``drop`` raises
    :class:`DropConnection` for the caller to translate into a severed
    connection.
    """
    if not _IS_WORKER or _PLAN is None:
        return
    for rule in _PLAN.arrive(point):
        if rule.kind in STORAGE_KINDS:
            continue  # storage kinds are consulted via storage_fault()
        if rule.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif rule.kind == "hang":
            _HANGING.set()
            try:
                time.sleep(rule.arg if rule.arg is not None else DEFAULT_HANG_S)
            finally:
                _HANGING.clear()
        elif rule.kind == "slow":
            if rule.arg:
                time.sleep(rule.arg)
        elif rule.kind == "drop":
            raise DropConnection(rule.describe())


def storage_fault(point: str) -> List[FaultRule]:
    """Report one arrival at a storage point; return the due storage rules.

    Returns ``[]`` (without counting the arrival) unless this process is
    marked via :func:`mark_storage` or :func:`mark_worker` and a plan is
    installed.  The store interprets the returned rules itself — this
    function never sleeps, kills, or raises, so the coordinator's immunity
    to process faults is untouched.
    """
    if not (_IS_STORAGE or _IS_WORKER) or _PLAN is None:
        return []
    return [rule for rule in _PLAN.arrive(point) if rule.kind in STORAGE_KINDS]
