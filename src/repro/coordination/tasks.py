"""The timed coordination tasks of Definition 1: ``Early`` and ``Late``.

Processes A, B and C play fixed roles: C spontaneously receives the external
trigger ``mu_go`` and thereupon sends a "go" message to A; A performs the
action ``a`` when it receives the go message; and B must perform ``b`` in a
manner temporally coordinated with ``a``:

* ``Late<a --x--> b>``  -- ``b`` at least ``x`` time units *after* ``a``;
* ``Early<b --x--> a>`` -- ``b`` at least ``x`` time units *before* ``a``;

and in both cases ``b`` may be performed in a run only if ``a`` is performed.
A is unconditional; only B's behaviour is interesting, and the paper
characterises the optimal rule for it (Protocols 1 and 2), implemented in
:mod:`repro.coordination.optimal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple, TYPE_CHECKING

from ..core.nodes import BasicNode, GeneralNode, general
from ..simulation.messages import GO_TRIGGER
from ..simulation.network import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.runs import Run


@dataclass(frozen=True)
class CoordinationTask:
    """A timed coordination task between A's action ``a`` and B's action ``b``.

    ``kind`` is ``"late"`` for ``Late<a --margin--> b>`` and ``"early"`` for
    ``Early<b --margin--> a>``.
    """

    kind: str
    margin: int
    actor_a: Process = "A"
    actor_b: Process = "B"
    go_sender: Process = "C"
    action_a: str = "a"
    action_b: str = "b"
    go_trigger: str = GO_TRIGGER

    def __post_init__(self) -> None:
        if self.kind not in ("late", "early"):
            raise ValueError(f"task kind must be 'late' or 'early', got {self.kind!r}")

    @property
    def is_late(self) -> bool:
        return self.kind == "late"

    @property
    def is_early(self) -> bool:
        return self.kind == "early"

    def describe(self) -> str:
        if self.is_late:
            return f"Late<{self.action_a} --{self.margin}--> {self.action_b}>"
        return f"Early<{self.action_b} --{self.margin}--> {self.action_a}>"

    # -- structural helpers ----------------------------------------------------

    def go_node(self, run: "Run") -> Optional[BasicNode]:
        """The node ``sigma_C`` at which C receives the trigger (and sends go)."""
        return run.external_node(self.go_trigger, self.go_sender)

    def action_node_a(self, run: "Run") -> Optional[GeneralNode]:
        """``sigma_C . A``: the general node at which A performs ``a``."""
        go = self.go_node(run)
        if go is None:
            return None
        return general(go, (self.go_sender, self.actor_a))

    def required_precedence(
        self, run: "Run", b_node: BasicNode
    ) -> Optional[Tuple[GeneralNode, GeneralNode]]:
        """The (earlier, later) pair whose precedence by ``margin`` B must know.

        For ``Late`` the pair is ``(sigma_C . A, sigma_b)``; for ``Early`` it
        is ``(sigma_b, sigma_C . A)``.  Returns ``None`` when no go was sent.
        """
        theta_a = self.action_node_a(run)
        if theta_a is None:
            return None
        theta_b = general(b_node)
        if self.is_late:
            return theta_a, theta_b
        return theta_b, theta_a


def late_task(margin: int, **roles) -> CoordinationTask:
    """``Late<a --margin--> b>`` with optional role overrides."""
    return CoordinationTask(kind="late", margin=margin, **roles)


def early_task(margin: int, **roles) -> CoordinationTask:
    """``Early<b --margin--> a>`` with optional role overrides."""
    return CoordinationTask(kind="early", margin=margin, **roles)


@dataclass(frozen=True)
class TaskOutcome:
    """How one run fared against a coordination task."""

    task: CoordinationTask
    a_time: Optional[int]
    b_time: Optional[int]
    go_time: Optional[int]

    @property
    def a_performed(self) -> bool:
        return self.a_time is not None

    @property
    def b_performed(self) -> bool:
        return self.b_time is not None

    @property
    def vacuous(self) -> bool:
        """B never acted; the specification is then trivially met."""
        return not self.b_performed

    @property
    def satisfied(self) -> bool:
        """Whether the run satisfies the task's specification.

        ``b`` only if ``a`` (within the simulated horizon), and the timing
        constraint between the two action times.
        """
        if not self.b_performed:
            return True
        if not self.a_performed:
            return False
        assert self.a_time is not None and self.b_time is not None
        if self.task.is_late:
            return self.b_time >= self.a_time + self.task.margin
        return self.a_time >= self.b_time + self.task.margin

    @property
    def achieved_margin(self) -> Optional[int]:
        """The realised separation, oriented so larger is better (``None`` if unmeasured)."""
        if self.a_time is None or self.b_time is None:
            return None
        if self.task.is_late:
            return self.b_time - self.a_time
        return self.a_time - self.b_time

    def describe(self) -> str:
        return (
            f"{self.task.describe()}: go={self.go_time}, a={self.a_time}, b={self.b_time}, "
            f"satisfied={self.satisfied}"
        )


def evaluate(run: "Run", task: CoordinationTask) -> TaskOutcome:
    """Evaluate one finished run against a coordination task."""
    go = task.go_node(run)
    go_time = run.time_of(go) if go is not None else None
    a_time = run.action_time(task.actor_a, task.action_a)
    b_time = run.action_time(task.actor_b, task.action_b)
    return TaskOutcome(task=task, a_time=a_time, b_time=b_time, go_time=go_time)


def evaluate_many(runs: Iterable["Run"], task: CoordinationTask) -> Tuple[TaskOutcome, ...]:
    return tuple(evaluate(run, task) for run in runs)


@dataclass
class OutcomeSummary:
    """Aggregate statistics over many task outcomes (one protocol, many runs)."""

    total: int = 0
    acted: int = 0
    violations: int = 0
    margins: list = field(default_factory=list)
    b_times: list = field(default_factory=list)

    def record(self, outcome: TaskOutcome) -> None:
        self.total += 1
        if outcome.b_performed:
            self.acted += 1
            self.b_times.append(outcome.b_time)
            if outcome.achieved_margin is not None:
                self.margins.append(outcome.achieved_margin)
        if not outcome.satisfied:
            self.violations += 1

    @property
    def action_rate(self) -> float:
        return self.acted / self.total if self.total else 0.0

    @property
    def mean_b_time(self) -> Optional[float]:
        return sum(self.b_times) / len(self.b_times) if self.b_times else None

    @property
    def mean_margin(self) -> Optional[float]:
        return sum(self.margins) / len(self.margins) if self.margins else None

    @property
    def safe(self) -> bool:
        return self.violations == 0


def summarise(outcomes: Iterable[TaskOutcome]) -> OutcomeSummary:
    summary = OutcomeSummary()
    for outcome in outcomes:
        summary.record(outcome)
    return summary
