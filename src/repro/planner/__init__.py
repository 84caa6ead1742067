"""Global parallelization-strategy planner.

Searches the joint per-layer strategy space (worker grid × Cook–Toom
transform × micro-batch split) for a whole network, pricing inter-layer
reconfiguration with a transition cost model.  Under the paper's
zero-transition rule (the default preset) the Viterbi DP recovers the
per-layer greedy optimiser bit for bit; with any non-zero transition
pricing the DP's chain total is never worse than greedy's.

See ``docs/planner.md`` for the strategy space, the transition model,
the DP recurrence and the determinism contract.
"""

from .report import (
    REPORT_SCHEMA,
    config_by_name,
    config_names,
    network_by_name,
    network_names,
    plan_report,
    report_json,
)
from .solver import (
    MODES,
    ORACLE_PATH_LIMIT,
    NetworkPlan,
    PlannedLayer,
    greedy_plan,
    plan_network,
)
from .strategy import (
    DEFAULT_KNOBS,
    OBJECTIVES,
    PlannerError,
    StrategyCandidate,
    StrategyKnobs,
    layer_candidates,
    worker_footprint_bytes,
)
from .transition import (
    FREE_TRANSITION,
    REROUTED_TRANSITION,
    WEIGHTS_ONLY_TRANSITION,
    ZERO_TRANSITION,
    TransitionCost,
    TransitionCostModel,
    preset,
    preset_names,
    rerouted_bytes,
    transition_cost,
)
from .validate import transition_trace, validate_plan_transitions

__all__ = [
    "DEFAULT_KNOBS",
    "FREE_TRANSITION",
    "MODES",
    "NetworkPlan",
    "OBJECTIVES",
    "ORACLE_PATH_LIMIT",
    "PlannedLayer",
    "PlannerError",
    "REPORT_SCHEMA",
    "REROUTED_TRANSITION",
    "StrategyCandidate",
    "StrategyKnobs",
    "TransitionCost",
    "TransitionCostModel",
    "WEIGHTS_ONLY_TRANSITION",
    "ZERO_TRANSITION",
    "config_by_name",
    "config_names",
    "greedy_plan",
    "layer_candidates",
    "network_by_name",
    "network_names",
    "plan_network",
    "plan_report",
    "preset",
    "preset_names",
    "report_json",
    "rerouted_bytes",
    "transition_cost",
    "transition_trace",
    "validate_plan_transitions",
    "worker_footprint_bytes",
]
