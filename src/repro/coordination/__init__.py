"""Coordination layer: the Early/Late tasks, Protocol 2, and baselines."""

from .. import _lazy_exports

_EXPORTS = {
    ".baselines": (
        "ChainLowerBoundProtocol",
        "LocalGraphProtocol",
        "NeverActProtocol",
        "chain_lower_bound",
        "find_action_node",
    ),
    ".optimal": ("EagerKnowledgeProbe", "OptimalCoordinationProtocol", "find_go_node"),
    ".planner": (
        "ForkPlan",
        "best_fork_plan",
        "earliest_guaranteed_action_offset",
        "guaranteed_margin",
        "is_statically_solvable",
        "optimistic_margin",
    ),
    ".tasks": (
        "CoordinationTask",
        "OutcomeSummary",
        "TaskOutcome",
        "early_task",
        "evaluate",
        "evaluate_many",
        "late_task",
        "summarise",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
