"""Schema'd planner reports: byte-reproducible plan JSON.

``plan_report`` solves one (network, config, transition-preset) instance
in the requested modes and renders it as pure data: no timestamps, no
machine stamps, sorted-key canonical serialisation — two runs of the
same request diff clean, which the CLI smoke test and the checked-in
golden rely on.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import (
    SystemConfig,
    d_dp,
    w_dp,
    w_mp,
    w_mp_plus,
    w_mp_plus_plus,
)
from ..core.perf_model import PerfModel
from ..params import DEFAULT_PARAMS, HardwareParams
from ..workloads import CnnSpec, resnet34, vgg16, wide_resnet_40_10
from .solver import MODES, NetworkPlan, PlannedLayer, _plan_network_cached, greedy_plan
from .strategy import DEFAULT_KNOBS, OBJECTIVES, PlannerError, StrategyKnobs
from .transition import TransitionCostModel, preset
from .validate import validate_plan_transitions

REPORT_SCHEMA = "repro.planner.report/v1"

#: Paper workloads the planner reports over (immutable pair table; the
#: constructors build fresh specs per call).
_NETWORK_BASE: Tuple[Tuple[str, object], ...] = (
    ("vgg16", vgg16),
    ("wrn-40-10", wide_resnet_40_10),
    ("resnet-34", resnet34),
)

#: Table IV system configurations by CLI name.
_CONFIG_BASE: Tuple[Tuple[str, object], ...] = (
    ("d_dp", d_dp),
    ("w_dp", w_dp),
    ("w_mp", w_mp),
    ("w_mp+", w_mp_plus),
    ("w_mp++", w_mp_plus_plus),
)


def network_names() -> Tuple[str, ...]:
    return tuple(name for name, _ in _NETWORK_BASE)


def config_names() -> Tuple[str, ...]:
    return tuple(name for name, _ in _CONFIG_BASE)


def network_by_name(name: str) -> CnnSpec:
    for net_name, build in _NETWORK_BASE:
        if net_name == name:
            return build()
    raise PlannerError(
        f"unknown network {name!r}; available: " + ", ".join(network_names())
    )


def config_by_name(name: str) -> SystemConfig:
    for config_name, build in _CONFIG_BASE:
        if config_name == name:
            return build()
    raise PlannerError(
        f"unknown config {name!r}; available: " + ", ".join(config_names())
    )


def _transform_label(step: PlannedLayer) -> str:
    transform = step.candidate.transform
    if transform is None:
        return "direct"
    return f"F({transform.m}x{transform.m}, {transform.r}x{transform.r})"


def _plan_dict(plan: NetworkPlan, greedy: Optional[NetworkPlan]) -> Dict[str, object]:
    layers: List[Dict[str, object]] = []
    for step in plan.steps:
        grid = step.candidate.grid
        layers.append(
            {
                "layer": step.layer.name,
                "grid": f"{grid.num_groups}x{grid.num_clusters}",
                "transform": _transform_label(step),
                "batch_split": step.candidate.batch_split,
                "time_s": step.candidate.time_s,
                "energy_j": step.candidate.energy_j,
                "footprint_bytes": step.candidate.footprint_bytes,
                "feasible": step.candidate.feasible,
                "transition_s": step.transition.seconds,
                "transition_bytes": step.transition.bytes_moved,
            }
        )
    out: Dict[str, object] = {
        "mode": plan.mode,
        "objective": plan.objective,
        "total_cost": plan.total_cost,
        "time_s": plan.time_s,
        "energy_j": plan.energy_j,
        "transitions": plan.transitions,
        "transition_seconds": plan.transition_seconds,
        "transition_bytes": plan.transition_bytes,
        "feasible": plan.feasible,
        "layers": layers,
    }
    if greedy is not None:
        out["vs_greedy"] = {
            "greedy_total": greedy.total_cost,
            "savings": greedy.total_cost - plan.total_cost,
            "speedup": (
                greedy.total_cost / plan.total_cost if plan.total_cost else 1.0
            ),
            "same_grids": plan.grids == greedy.grids,
        }
    return out


def plan_report(
    network: str = "vgg16",
    config: str = "w_mp++",
    workers: int = 256,
    batch: int = 256,
    transition: str = "zero",
    objective: str = "time",
    modes: Sequence[str] = ("dp",),
    knobs: StrategyKnobs = DEFAULT_KNOBS,
    include_greedy: bool = True,
    validate: bool = False,
    params: HardwareParams = DEFAULT_PARAMS,
) -> Dict[str, object]:
    """Plan one network and render the result as pure data.

    ``transition`` names a preset (:func:`repro.planner.transition.
    preset`); ``modes`` selects any subset of :data:`~repro.planner.
    solver.MODES`.  The report embeds the greedy baseline and each
    mode's savings against it by default.
    """
    if objective not in OBJECTIVES:
        raise PlannerError(
            f"unknown objective {objective!r}; choose from {OBJECTIVES}"
        )
    for mode in modes:
        if mode not in MODES:
            raise PlannerError(f"unknown mode {mode!r}; choose from {MODES}")
    net = network_by_name(network)
    system = config_by_name(config)
    transition_model: TransitionCostModel = preset(transition)
    model = PerfModel(params=params)
    greedy = (
        greedy_plan(
            net, system, workers, batch, knobs, transition_model, objective,
            model,
        )
        if include_greedy
        else None
    )
    plans = [
        _plan_network_cached(
            net.name, tuple(net.conv_layers), batch, system, workers, knobs,
            transition_model, objective, mode, params,
        )
        for mode in modes
    ]
    report: Dict[str, object] = {
        "schema": REPORT_SCHEMA,
        "network": net.name,
        "config": system.name,
        "workers": workers,
        "batch": batch,
        "objective": objective,
        "transition": {
            "preset": transition_model.name,
            "weight_factor": transition_model.weight_factor,
            "activation_factor": transition_model.activation_factor,
            "latency_s": transition_model.latency_s,
        },
        "knobs": {
            "search_transforms": knobs.search_transforms,
            "batch_splits": list(knobs.batch_splits),
            "capacity_frac": knobs.capacity_frac,
        },
        "plans": [_plan_dict(plan, greedy) for plan in plans],
    }
    if greedy is not None:
        report["greedy"] = _plan_dict(greedy, None)
    if validate and plans:
        report["validation"] = validate_plan_transitions(plans[0], params)
    return report


def report_json(report: Dict[str, object]) -> str:
    """Canonical serialisation: sorted keys, trailing newline — two
    reports of the same request diff clean."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
