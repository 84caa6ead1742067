"""Netsim validation of planned transitions.

The transition model prices reconfiguration analytically (bytes over the
host-bridge/full-link bandwidth plus a fixed latency); this module
replays each costed transition of a plan as concrete messages on the
event-simulated machine (:mod:`repro.netsim`) and reports the
analytic-vs-simulated ratio, the same cross-check the tile-transfer
validation performs for the steady-state phases.

The replay models the re-routing as an all-to-all among the entering
grid's group leaders: each group must shed the slice layout of the old
grid and gather its new slice, and the host bridges stripe that exchange
across the inter-group fabric.  Single-group targets have no inter-group
fabric to exercise, so only the analytic figure is reported.

The replay dispatches through :func:`repro.netsim.all_to_all` rather
than injecting raw messages itself, so a fully-connected leader set
(small-group targets) rides the closed-form collective shortcut — the
fallback packet replay injects the identical ordered-pair schedule, so
the reported times are the same either way.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..netsim import NetworkSimulator, all_to_all
from ..netsim.topology import hybrid
from ..params import DEFAULT_PARAMS, HardwareParams
from .solver import NetworkPlan


def validate_plan_transitions(
    plan: NetworkPlan,
    params: HardwareParams = DEFAULT_PARAMS,
) -> List[Dict[str, object]]:
    """Replay every costed transition of ``plan`` on the event simulator.

    Returns one row per costed (non-free) transition with the analytic
    seconds the DP charged, the simulated finish time, and their ratio.
    Plans under the zero preset have no costed transitions and return an
    empty list.
    """
    rows: List[Dict[str, object]] = []
    prev_grid: Optional[str] = None
    for step in plan.steps:
        grid = step.candidate.grid
        grid_label = f"{grid.num_groups}x{grid.num_clusters}"
        if step.transition.bytes_moved > 0:
            analytic_s = step.transition.seconds
            row: Dict[str, object] = {
                "layer": step.layer.name,
                "from_grid": prev_grid,
                "to_grid": grid_label,
                "per_worker_bytes": step.transition.per_worker_bytes,
                "analytic_s": analytic_s,
            }
            if grid.num_groups > 1:
                # Uniform all-to-all of the per-worker re-routed volume
                # among the target grid's group leaders (cluster 0's
                # members, one per group).
                bytes_per_pair = max(
                    1,
                    round(step.transition.per_worker_bytes / (grid.num_groups - 1)),
                )
                topology, layout = hybrid(
                    grid.num_groups, grid.num_clusters, params
                )
                sim = NetworkSimulator(topology, params)
                replay = all_to_all(
                    sim, layout.cluster_members(0), bytes_per_pair
                )
                row["simulated_s"] = replay.finish_time_s
                row["messages"] = replay.messages
                row["ratio"] = (
                    replay.finish_time_s / analytic_s
                    if analytic_s
                    else float("nan")
                )
            else:
                # One group: the re-routing is a local re-layout with no
                # inter-group fabric to simulate.
                row["simulated_s"] = None
                row["messages"] = 0
                row["ratio"] = None
            rows.append(row)
        prev_grid = grid_label
    return rows
