"""Executable checkers for the paper's four theorems.

The paper proves its results once and for all; a reproduction demonstrates
them by *checking* the theorem statements on concrete instances.  Each checker
here returns a small report object so tests and benchmarks can assert both the
verdict and the quantities involved (weights, gaps, witnesses).

* Theorem 1 (zigzag sufficiency): a zigzag pattern's weight lower-bounds the
  tail-to-head gap in the run.
* Theorem 2 (zigzag necessity): whenever a precedence is supported, the
  longest bounds-graph path yields a zigzag of sufficient weight, and the slow
  run realises the bound with equality (tightness).
* Theorem 3 (knowledge is necessary for coordination): whenever the acting
  process performs its action, the "go" node is in its past and the required
  precedence is known at its node.
* Theorem 4 (visible zigzag theorem): the knowledge computed from the extended
  bounds graph coincides with the ground-truth minimum gap over all
  indistinguishable runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, TYPE_CHECKING

from ..simulation.messages import GO_TRIGGER
from ..simulation.network import TimedNetwork
from .knowledge import KnowledgeChecker, empirical_min_gap
from .nodes import BasicNode, GeneralNode, general
from .path_to_zigzag import longest_zigzag_between
from .precedence import supports
from .run_construction import realized_gap, slow_run
from .zigzag import ZigzagPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.runs import Run


# ---------------------------------------------------------------------------
# Theorem 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem1Report:
    """Outcome of checking zigzag sufficiency for one pattern in one run."""

    valid_pattern: bool
    weight: Optional[int]
    observed_gap: Optional[int]

    @property
    def holds(self) -> bool:
        """Theorem 1 never fails for valid patterns; ``False`` would be a bug."""
        if not self.valid_pattern:
            return True  # vacuous: the theorem only speaks about patterns of the run
        assert self.weight is not None and self.observed_gap is not None
        return self.observed_gap >= self.weight


def check_theorem1(run: "Run", pattern: ZigzagPattern) -> Theorem1Report:
    """Check ``(R, r) |= theta1 --wt(Z)--> theta2`` for a zigzag of the run."""
    if not pattern.is_valid_in(run):
        return Theorem1Report(valid_pattern=False, weight=None, observed_gap=None)
    return Theorem1Report(
        valid_pattern=True,
        weight=pattern.weight(run),
        observed_gap=pattern.observed_gap(run),
    )


# ---------------------------------------------------------------------------
# Theorem 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem2Report:
    """Outcome of the zigzag-necessity check between two basic nodes of a run."""

    constraint_weight: Optional[int]
    zigzag: Optional[ZigzagPattern]
    zigzag_weight: Optional[int]
    slow_run_gap: Optional[int]

    @property
    def has_constraint(self) -> bool:
        return self.constraint_weight is not None

    def witnesses(self, margin: int) -> bool:
        """Whether the extracted zigzag witnesses ``sigma1 --margin--> sigma2``."""
        return self.zigzag_weight is not None and self.zigzag_weight >= margin

    @property
    def tight(self) -> bool:
        """Whether the slow run attains the constraint with equality."""
        return (
            self.constraint_weight is not None
            and self.slow_run_gap is not None
            and self.slow_run_gap == self.constraint_weight
        )


def check_theorem2(run: "Run", sigma1: BasicNode, sigma2: BasicNode) -> Theorem2Report:
    """Extract the Theorem 2 witness between two basic nodes of a run.

    Computes the longest bounds-graph path from ``sigma1`` to ``sigma2``,
    converts it into a zigzag pattern of equal weight (Lemma 5), and builds
    the slow run of ``sigma2`` to confirm the constraint is tight.  If a
    system supports ``sigma1 --x--> sigma2`` then, by the theorem, the
    returned ``zigzag_weight`` is at least ``x``.
    """
    found = longest_zigzag_between(run, sigma1, sigma2)
    if found is None:
        return Theorem2Report(None, None, None, None)
    weight, pattern = found
    slowed = slow_run(run, sigma2)
    gap = realized_gap(slowed, sigma1, sigma2)
    return Theorem2Report(
        constraint_weight=weight,
        zigzag=pattern,
        zigzag_weight=pattern.weight(run),
        slow_run_gap=gap,
    )


def supported_margin(runs: Iterable["Run"], sigma1: BasicNode, sigma2: BasicNode) -> Optional[int]:
    """The largest margin ``x`` such that the run set supports ``sigma1 --x--> sigma2``.

    Ground truth for Theorem 2 on enumerable systems: the minimum observed gap
    over runs containing both nodes, or ``None`` if the statement is not
    supported for any margin (some run contains one node but not the other).
    """
    best: Optional[int] = None
    for run in runs:
        first = run.appears(sigma1)
        second = run.appears(sigma2)
        if not first and not second:
            continue
        if not (first and second):
            return None
        gap = run.time_of(sigma2) - run.time_of(sigma1)
        if best is None or gap < best:
            best = gap
    return best


# ---------------------------------------------------------------------------
# Theorem 3
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem3Report:
    """Outcome of checking the knowledge-of-preconditions property in one run."""

    acted: bool
    go_in_past: Optional[bool]
    knowledge_holds: Optional[bool]

    @property
    def holds(self) -> bool:
        """If B acted, the go node must be in its past and the precedence known."""
        if not self.acted:
            return True
        return bool(self.go_in_past) and bool(self.knowledge_holds)


def check_theorem3(
    run: "Run",
    actor: str,
    action: str,
    go_sender: str,
    go_recipient: str,
    margin: int,
    late: bool,
) -> Theorem3Report:
    """Check Theorem 3 for one run of a protocol implementing Early/Late.

    ``actor``/``action`` identify B and its action ``b``; ``go_sender`` is C
    (its go node is where it receives ``mu_go``) and ``go_recipient`` is A.
    For ``late=True`` the implemented task is ``Late<a --margin--> b>`` (A
    acts first); otherwise ``Early<b --margin--> a>``.
    """
    record = run.find_action(actor, action)
    if record is None:
        return Theorem3Report(acted=False, go_in_past=None, knowledge_holds=None)
    sigma = record.node

    go_node = run.external_node(GO_TRIGGER, go_sender)
    if go_node is None or not run.happens_before(go_node, sigma):
        return Theorem3Report(acted=True, go_in_past=False, knowledge_holds=None)

    theta_a = general(go_node, (go_sender, go_recipient))
    checker = KnowledgeChecker(sigma, run.timed_network)
    if late:
        knows = checker.knows(theta_a, sigma, margin)
    else:
        knows = checker.knows(sigma, theta_a, margin)
    return Theorem3Report(acted=True, go_in_past=True, knowledge_holds=knows)


# ---------------------------------------------------------------------------
# Theorem 4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem4Report:
    """Comparison of graph-derived knowledge with ground-truth enumeration."""

    known_gap: Optional[int]
    empirical_gap: Optional[int]

    @property
    def sound(self) -> bool:
        """Knowledge never overclaims: the known gap is at most the empirical minimum."""
        if self.known_gap is None:
            return True
        if self.empirical_gap is None:
            return True  # nothing to compare against (no run resolved both nodes)
        return self.known_gap <= self.empirical_gap

    @property
    def complete(self) -> bool:
        """Knowledge is as strong as the ground truth allows (Theorem 4 equality)."""
        if self.empirical_gap is None:
            return True
        return self.known_gap is not None and self.known_gap >= self.empirical_gap

    @property
    def exact(self) -> bool:
        return self.sound and self.complete


def check_theorem4(
    sigma: BasicNode,
    theta1: BasicNode | GeneralNode,
    theta2: BasicNode | GeneralNode,
    timed_network: TimedNetwork,
    indistinguishable_runs: Iterable["Run"],
    checker: Optional[KnowledgeChecker] = None,
) -> Theorem4Report:
    """Compare ``max_known_gap`` with the minimum gap over indistinguishable runs.

    ``indistinguishable_runs`` should exhaustively cover the runs in which
    ``sigma`` appears (e.g. from
    :func:`repro.simulation.enumerate.enumerate_runs` over all relevant
    external schedules); soundness then requires ``known <= empirical`` and
    completeness (the hard direction of Theorem 4) requires equality.

    Passing a ``checker`` built for the same ``sigma`` reuses its extended
    graph and memoized longest-path rows across calls; many-pair workloads
    should prefer :func:`check_theorem4_batch`.
    """
    if checker is None:
        checker = KnowledgeChecker(sigma, timed_network)
    elif checker.sigma != sigma:
        raise ValueError(
            f"checker observes {checker.sigma.describe()}, not {sigma.describe()}"
        )
    elif checker.timed_network != timed_network:
        raise ValueError(
            "checker was built for a different timed network; its known gaps "
            "would not be comparable to the supplied runs"
        )
    known = checker.max_known_gap(theta1, theta2)
    empirical = empirical_min_gap(indistinguishable_runs, sigma, theta1, theta2)
    return Theorem4Report(known_gap=known, empirical_gap=empirical)


def check_theorem4_batch(
    sigma: BasicNode,
    pairs: Sequence[Tuple[BasicNode | GeneralNode, BasicNode | GeneralNode]],
    timed_network: TimedNetwork,
    indistinguishable_runs: Iterable["Run"],
) -> Tuple[Theorem4Report, ...]:
    """Theorem 4 for many ``(theta1, theta2)`` pairs against one ``sigma``.

    One :class:`KnowledgeChecker` serves the whole batch: every general node
    is materialised in the extended bounds graph first and all known gaps are
    answered off the engine's memoized rows, so the graph relaxation cost is
    paid per distinct source rather than per pair.  The run collection is
    iterated once and reused for every empirical comparison.
    """
    checker = KnowledgeChecker(sigma, timed_network)
    runs = list(indistinguishable_runs)
    known_gaps = checker.max_known_gaps(pairs)
    return tuple(
        Theorem4Report(
            known_gap=known,
            empirical_gap=empirical_min_gap(runs, sigma, theta1, theta2),
        )
        for (theta1, theta2), known in zip(pairs, known_gaps)
    )
