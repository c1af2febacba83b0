"""Pluggable analysis passes applied to every run a sweep produces.

An analysis pass is a named, versioned function ``(Run) -> dict`` returning
JSON-scalar results.  The version participates in the result-store cache key,
so bumping it invalidates exactly the cached cells whose numbers it produced;
unversioned code changes that do not alter results can ship without
re-running anything.

Passes adapt the existing analysis machinery of :mod:`repro.core` and
:mod:`repro.coordination` to arbitrary registry scenarios: roles (go sender,
actors of ``a`` and ``b``) are inferred from the run itself rather than
assumed to be the literal processes ``A``/``B``/``C``.  What the passes
derive from a run (its ``GB(r)``, its actions, its go node) comes from
:class:`Run`, which builds each artifact once and shares it between passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from ..obs.trace import span
from ..core.extended_graph import ExtendedGraphError
from ..core.knowledge_session import KnowledgeSession
from ..core.longest_paths import LongestPathEngine
from ..core.nodes import general
from ..coordination.tasks import late_task, evaluate
from ..simulation.messages import GO_TRIGGER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.runs import Run


class AnalysisError(ValueError):
    """Raised on unknown analysis names."""


@dataclass(frozen=True)
class AnalysisPass:
    """A named, versioned analysis over a finished run."""

    name: str
    version: int
    fn: Callable[["Run"], Dict[str, Any]]
    description: str = ""

    def run(self, run: "Run") -> Dict[str, Any]:
        return self.fn(run)


_ANALYSIS_REGISTRY: Dict[str, AnalysisPass] = {}


def register_analysis(
    name: str, version: int = 1, description: str = ""
) -> Callable[[Callable[["Run"], Dict[str, Any]]], Callable[["Run"], Dict[str, Any]]]:
    """Register an analysis pass; the decorated function is returned unchanged."""

    def decorator(fn: Callable[["Run"], Dict[str, Any]]):
        if name in _ANALYSIS_REGISTRY:
            raise AnalysisError(f"analysis {name!r} is already registered")
        doc = (fn.__doc__ or "").strip()
        _ANALYSIS_REGISTRY[name] = AnalysisPass(
            name=name,
            version=version,
            fn=fn,
            description=description or (doc.splitlines()[0] if doc else ""),
        )
        return fn

    return decorator


def get_analysis(name: str) -> AnalysisPass:
    try:
        return _ANALYSIS_REGISTRY[name]
    except KeyError:
        raise AnalysisError(
            f"unknown analysis {name!r}; registered: {list_analyses()}"
        ) from None


def list_analyses() -> Tuple[str, ...]:
    return tuple(sorted(_ANALYSIS_REGISTRY))


@lru_cache(maxsize=None)
def _analysis_versions(names: Tuple[str, ...]) -> Tuple[Tuple[str, int], ...]:
    # Safe to memoize: versions are frozen at registration and names can
    # never be re-registered; an unknown name raises (and is not cached), so
    # late registrations are picked up on the next call.
    return tuple((name, get_analysis(name).version) for name in names)


def analysis_versions(names: Sequence[str]) -> Dict[str, int]:
    """``{name: version}`` for the requested passes (cache-key material).

    Memoized per name tuple — resume scans key every cell of a grid, and the
    registry lookup was the hot part of :meth:`SweepCell.key`.
    """
    return dict(_analysis_versions(tuple(names)))


def run_analyses(run: "Run", names: Sequence[str]) -> Dict[str, Dict[str, Any]]:
    """Apply the requested passes to one run, in the requested order.

    Each pass runs under a ``span(f"analysis.{name}")``, so per-pass timing
    totals accumulate in the ``span.analysis.<name>.s`` histograms without
    changing any result.  Artifacts the passes derive from the run live on
    the run itself (:meth:`Run.bounds_graph`, :meth:`Run.actions`), built
    once for every pass and every later reader of the same run.
    """
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        with span(f"analysis.{name}"):
            results[name] = get_analysis(name).run(run)
    return results


#: Passes every sweep applies unless told otherwise.
DEFAULT_ANALYSES: Tuple[str, ...] = (
    "summary",
    "bounds_graph",
    "bounds_stats",
    "coordination",
)


# ---------------------------------------------------------------------------
# Role inference.
# ---------------------------------------------------------------------------


def infer_roles(run: "Run") -> Dict[str, Optional[str]]:
    """Infer the coordination roles a run actually exhibits.

    The go sender is the process that received ``mu_go``; the actors of ``a``
    and ``b`` are whichever processes performed those actions.  Any role may
    be absent (pure flooding scenarios have none).
    """
    go_node = run.external_node(GO_TRIGGER)
    go_sender = None if go_node is None else go_node.process
    actor_a: Optional[str] = None
    actor_b: Optional[str] = None
    for record in run.actions():
        if record.action == "a" and actor_a is None:
            actor_a = record.process
        elif record.action == "b" and actor_b is None:
            actor_b = record.process
    return {"go_sender": go_sender, "actor_a": actor_a, "actor_b": actor_b}


# ---------------------------------------------------------------------------
# The built-in passes.
# ---------------------------------------------------------------------------


@register_analysis("summary", version=1)
def summary_pass(run: "Run") -> Dict[str, Any]:
    """Cheap structural statistics of the run."""
    first_action_times: Dict[str, int] = {}
    for record in run.actions():
        if record.action not in first_action_times:
            first_action_times[record.action] = record.time
    return {
        "horizon": run.horizon,
        "processes": len(run.processes),
        "channels": len(run.timed_network.channels),
        "sends": len(run.sends),
        "deliveries": len(run.deliveries),
        "pending": len(run.pending),
        "external_deliveries": len(run.external_deliveries),
        "actions": len(run.actions()),
        "first_action_times": first_action_times,
        "max_timeline_steps": max(
            (len(timeline) - 1 for timeline in run.timelines.values()), default=0
        ),
    }


@register_analysis("bounds_graph", version=1)
def bounds_graph_pass(run: "Run") -> Dict[str, Any]:
    """Size and composition of the run's basic bounds graph ``GB(r)``."""
    graph = run.bounds_graph()
    by_label: Dict[str, int] = {}
    for edge in graph.edges:
        by_label[edge.label] = by_label.get(edge.label, 0) + 1
    return {
        "nodes": len(graph),
        "edges": graph.edge_count(),
        "edges_by_label": by_label,
    }


@register_analysis("bounds_stats", version=1)
def bounds_stats_pass(run: "Run") -> Dict[str, Any]:
    """All-pairs longest-path statistics of ``GB(r)`` over final nodes.

    Every ordered pair of per-process final nodes is queried through the
    batched longest-path engine's :meth:`LongestPathEngine.rows` -- one call
    for all sources -- so the relaxation cost is paid once per source row
    rather than once per pair; ``rows_computed`` records exactly how many
    relaxations the pass needed.  The rows come back as final-to-final
    weights read by index (``targets=finals``), not as dicts over all nodes.
    The pass queries a private engine over the run's shared ``GB(r)``, so
    ``rows_computed`` counts its own rows whatever else queried the graph.
    """
    graph = run.bounds_graph()
    engine = LongestPathEngine(graph)
    finals = sorted(
        (run.final_node(process) for process in run.processes),
        key=lambda node: node.process,
    )
    queried = 0
    reachable = 0
    max_gap: Optional[int] = None
    min_gap: Optional[int] = None
    for source, row in enumerate(engine.rows(finals, targets=finals)):
        for target, value in enumerate(row):
            if target == source:
                continue
            queried += 1
            if value == float("-inf"):
                continue
            reachable += 1
            gap = int(value)
            if max_gap is None or gap > max_gap:
                max_gap = gap
            if min_gap is None or gap < min_gap:
                min_gap = gap
    return {
        "nodes": len(graph),
        "edges": graph.edge_count(),
        "queried_pairs": queried,
        "reachable_pairs": reachable,
        "max_pair_gap": max_gap,
        "min_pair_gap": min_gap,
        "has_positive_cycle": engine.has_positive_cycle(),
        "rows_computed": engine.stats.rows_computed,
    }


@register_analysis("coordination", version=1)
def coordination_pass(run: "Run") -> Dict[str, Any]:
    """Outcome of the run against a ``Late<a --0--> b>`` task with inferred roles."""
    roles = infer_roles(run)
    if roles["go_sender"] is None or roles["actor_a"] is None:
        return {"applicable": False, **roles}
    task = late_task(
        0,
        actor_a=roles["actor_a"],
        actor_b=roles["actor_b"] or "B",
        go_sender=roles["go_sender"],
    )
    outcome = evaluate(run, task)
    return {
        "applicable": True,
        **roles,
        "go_time": outcome.go_time,
        "a_time": outcome.a_time,
        "b_time": outcome.b_time,
        "b_performed": outcome.b_performed,
        "satisfied": outcome.satisfied,
        "achieved_margin": outcome.achieved_margin,
    }


@register_analysis("knowledge", version=2)
def knowledge_pass(run: "Run") -> Dict[str, Any]:
    """``max_known_gap`` at B's action node between A's action and B's action.

    Builds the extended bounds graph at the node where ``b`` was performed
    and asks for the largest ``x`` with ``K_sigma(theta_a --x--> sigma_b)``
    (Theorem 4 machinery).  The pass rides the incremental
    :class:`KnowledgeSession` substrate (a single observation is just a
    session's cold step) and answers both directions of the pair in one
    :meth:`KnowledgeSession.max_known_gaps` batch against a single overlay
    snapshot, which also yields the full known window.  Marked inapplicable
    when the run has no ``b`` action, no go, or the required nodes are not
    recognized at ``sigma_b``.
    """
    roles = infer_roles(run)
    if roles["go_sender"] is None or roles["actor_a"] is None or roles["actor_b"] is None:
        return {"applicable": False, **roles}
    b_record = run.find_action(roles["actor_b"], "b")
    go_node = run.external_node(GO_TRIGGER, roles["go_sender"])
    if b_record is None or go_node is None:
        return {"applicable": False, **roles}
    sigma_b = b_record.node
    if not run.timed_network.is_path((roles["go_sender"], roles["actor_a"])):
        return {"applicable": False, **roles, "reason": "no C->A channel"}
    theta_a = general(go_node, (roles["go_sender"], roles["actor_a"]))
    # A one-node chunk through the batch entry point: analysis passes share
    # the advance_many contract with the coordination replays.
    session = KnowledgeSession(run.timed_network).advance_many((sigma_b,))
    try:
        known_gap, reverse_gap = session.max_known_gaps(
            [(theta_a, sigma_b), (sigma_b, theta_a)]
        )
    except ExtendedGraphError:
        return {"applicable": False, **roles, "reason": "not recognized at sigma_b"}
    return {
        "applicable": True,
        **roles,
        "b_time": b_record.time,
        "known_gap": known_gap,
        "known_window": [
            known_gap,
            None if reverse_gap is None else -reverse_gap,
        ],
        "knows_precedence": known_gap is not None and known_gap >= 0,
    }
