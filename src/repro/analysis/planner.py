"""Planner analysis: greedy-vs-DP comparison and the Pareto frontier.

``planner_rows`` is the ``repro figure planner`` generator: for each
paper workload and transition preset it prices the greedy per-layer
baseline and the DP chain under the same fold and reports the savings.
``planner_pareto_rows`` sweeps objectives and presets, places every
resulting plan in (time, energy) space and marks the non-dominated
frontier.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.config import w_mp_plus_plus
from ..planner import StrategyKnobs, greedy_plan, plan_network, preset
from ..workloads import vgg16, wide_resnet_40_10


def pareto_frontier(points: Sequence[Tuple[float, float]]) -> List[bool]:
    """Non-dominated flags for ``(time_s, energy_j)`` points.

    A point is on the frontier iff no other point is at least as good in
    both objectives and strictly better in one.  Duplicate points are
    all kept (neither strictly dominates the other).
    """
    flags: List[bool] = []
    for i, (time_i, energy_i) in enumerate(points):
        dominated = False
        for j, (time_j, energy_j) in enumerate(points):
            if j == i:
                continue
            if (
                time_j <= time_i
                and energy_j <= energy_i
                and (time_j < time_i or energy_j < energy_i)
            ):
                dominated = True
                break
        flags.append(not dominated)
    return flags


#: Workloads and presets the battery compares.
_BATTERY_NETWORKS = (("VGG-16", vgg16), ("WRN-40-10", wide_resnet_40_10))
_BATTERY_PRESETS = ("zero", "rerouted", "weights-only")


def planner_rows(workers: int = 256, batch: int = 256) -> List[Dict]:
    """Greedy vs DP chain totals per (network, transition preset).

    Under the ``zero`` preset the two must agree bit for bit (the DP
    decomposes into per-layer argmins); under any priced preset the DP
    total is never worse.
    """
    config = w_mp_plus_plus()
    rows: List[Dict] = []
    for _name, build in _BATTERY_NETWORKS:
        net = build()
        for preset_name in _BATTERY_PRESETS:
            transition = preset(preset_name)
            greedy = greedy_plan(
                net, config, workers, batch, transition=transition
            )
            dp = plan_network(
                net, config, workers, batch, transition=transition
            )
            rows.append(
                {
                    "network": net.name,
                    "preset": preset_name,
                    "greedy_ms": greedy.total_cost * 1e3,
                    "dp_ms": dp.total_cost * 1e3,
                    "savings_pct": (
                        (greedy.total_cost - dp.total_cost)
                        / greedy.total_cost * 100.0
                        if greedy.total_cost
                        else 0.0
                    ),
                    "dp_transitions": dp.transitions,
                    "same_grids": dp.grids == greedy.grids,
                }
            )
    return rows


def planner_pareto_rows(
    network: str = "wrn-40-10", workers: int = 256, batch: int = 256
) -> List[Dict]:
    """(time, energy) positions of greedy and DP plans across presets
    and objectives, with the widened strategy space, frontier-flagged."""
    from ..planner import network_by_name

    net = network_by_name(network)
    config = w_mp_plus_plus()
    knobs = StrategyKnobs(search_transforms=True, batch_splits=(1, 2, 4))
    plans = []
    for preset_name in ("zero", "rerouted"):
        transition = preset(preset_name)
        plans.append(
            (
                f"greedy/{preset_name}",
                greedy_plan(net, config, workers, batch, transition=transition),
            )
        )
        for objective in ("time", "energy"):
            plans.append(
                (
                    f"dp-{objective}/{preset_name}",
                    plan_network(
                        net, config, workers, batch, knobs, transition,
                        objective,
                    ),
                )
            )
    points = [(plan.time_s, plan.energy_j) for _label, plan in plans]
    frontier = pareto_frontier(points)
    return [
        {
            "plan": label,
            "time_ms": plan.time_s * 1e3,
            "energy_j": plan.energy_j,
            "transitions": plan.transitions,
            "on_frontier": on_frontier,
        }
        for (label, plan), on_frontier in zip(plans, frontier)
    ]
