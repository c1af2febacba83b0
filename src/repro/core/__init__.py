"""The paper's contribution: zigzag causality, bounds graphs, and knowledge."""

from .. import _lazy_exports

_EXPORTS = {
    ".bounds_graph": (
        "LOWER_EDGE",
        "SUCCESSOR_EDGE",
        "UPPER_EDGE",
        "basic_bounds_graph",
        "is_p_closed",
        "local_bounds_graph",
        "local_bounds_graph_from_run",
        "precedence_set",
        "verify_against_run",
    ),
    ".causality": (
        "boundary_nodes",
        "common_past",
        "happens_before",
        "is_recognized",
        "local_delivery_map",
        "past_nodes",
        "resolve_within_past",
    ),
    ".extended_graph": ("AuxiliaryNode", "ChainNode", "ExtendedBoundsGraph", "ExtendedGraphError"),
    ".forks": ("TwoLeggedFork", "simple_fork", "trivial_fork"),
    ".graph": ("Edge", "PositiveCycleError", "WeightedGraph"),
    ".knowledge": (
        "KnowledgeChecker",
        "empirical_min_gap",
        "indistinguishable",
        "knows_precedence",
        "max_known_gap",
    ),
    ".knowledge_session": ("KnowledgeSession",),
    ".longest_paths": ("EngineStats", "LongestPathEngine"),
    ".nodes": ("BasicNode", "GeneralNode", "NodeError", "general"),
    ".path_to_zigzag": ("ConversionError", "longest_zigzag_between", "path_to_zigzag"),
    ".precedence": ("TimedPrecedence", "minimum_gap", "precedes", "supports"),
    ".run_construction": ("ConstructionError", "realized_gap", "run_by_timing", "slow_run"),
    ".theorems": (
        "Theorem1Report",
        "Theorem2Report",
        "Theorem3Report",
        "Theorem4Report",
        "check_theorem1",
        "check_theorem2",
        "check_theorem3",
        "check_theorem4",
        "check_theorem4_batch",
        "supported_margin",
    ),
    ".timing": (
        "TimingError",
        "is_valid_timing",
        "run_timing",
        "slow_timing",
        "slow_timing_domain",
        "tight_gap",
        "validate_timing",
    ),
    ".visible": ("is_visible_zigzag", "search_visible_zigzag", "visible_weight"),
    ".zigzag": ("ZigzagError", "ZigzagPattern", "single_fork_pattern"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
