"""Inter-layer strategy-transition cost model.

The paper's Section IV rule: switching the ``(N_g, N_c)`` grid between
layers only re-routes tile and weight traffic through the host bridges
and costs no data movement — transitions are free, which is what makes
per-layer greedy selection globally optimal there.  This module prices
the alternative: when reconfiguration *does* move data (weights re-laid
out for a new group slicing, resident activations re-striped for a new
cluster sharding), adjacent layers couple and the planner's DP search
becomes meaningful.

The zero-cost rule stays the default preset (:data:`ZERO_TRANSITION`),
so planner results degrade gracefully to the paper's greedy behaviour;
the ``rerouted`` preset charges the full host-bridge re-routing volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..contracts import cost, shaped
from ..ndp.energy import EnergyModel
from ..params import DEFAULT_PARAMS, HardwareParams
from ..workloads.layers import ConvLayerSpec
from .strategy import PlannerError, StrategyCandidate

BYTES = 4  # FP32


@dataclass(frozen=True)
class TransitionCostModel:
    """How a grid/transform change between adjacent layers is priced.

    ``weight_factor`` scales the next layer's (update-domain) weight
    bytes: a new group slicing means every weight slice is re-gathered
    and re-scattered through the host bridges.  ``activation_factor``
    scales the next layer's input-activation bytes: a new cluster
    sharding re-stripes the resident batch.  ``latency_s`` is a fixed
    host-bridge reconfiguration latency per transition.  All zero (the
    default) reproduces the paper's free-transition rule.
    """

    name: str = "zero"
    weight_factor: float = 0.0
    activation_factor: float = 0.0
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so NaN is refused too.
        if not (0 <= self.weight_factor < math.inf
                and 0 <= self.activation_factor < math.inf):
            raise PlannerError("transition factors must be finite and non-negative")
        if not 0 <= self.latency_s < math.inf:
            raise PlannerError("transition latency must be finite and non-negative")

    @property
    def is_zero(self) -> bool:
        return (
            self.weight_factor == 0.0
            and self.activation_factor == 0.0
            and self.latency_s == 0.0
        )


#: The paper's Section IV rule: reconfiguration moves no data.
ZERO_TRANSITION = TransitionCostModel()

#: Full host-bridge re-routing: weights re-sliced and activations
#: re-striped on every grid change, plus a 2 us bridge set-up latency.
REROUTED_TRANSITION = TransitionCostModel(
    name="rerouted", weight_factor=1.0, activation_factor=1.0, latency_s=2e-6
)

#: Weights-only preset: activations stay put (recomputed from the
#: previous layer's output stream), only the weight slices move.
WEIGHTS_ONLY_TRANSITION = TransitionCostModel(
    name="weights-only", weight_factor=1.0, latency_s=2e-6
)

#: Immutable preset table (tuple of pairs, like the fault scenarios'
#: ``_SCENARIO_BASE``) so pure code may read it.
_PRESET_BASE: Tuple[Tuple[str, TransitionCostModel], ...] = (
    ("zero", ZERO_TRANSITION),
    ("rerouted", REROUTED_TRANSITION),
    ("weights-only", WEIGHTS_ONLY_TRANSITION),
)


def preset(name: str) -> TransitionCostModel:
    """Look up a named transition preset."""
    for preset_name, model in _PRESET_BASE:
        if preset_name == name:
            return model
    raise PlannerError(
        f"unknown transition preset {name!r}; available: "
        + ", ".join(preset_name for preset_name, _ in _PRESET_BASE)
    )


def preset_names() -> Tuple[str, ...]:
    return tuple(preset_name for preset_name, _ in _PRESET_BASE)


@shaped("AF, AB, WF, WB -> RB")
@cost(ret="AF*AB + WF*WB")
def rerouted_bytes(
    activation_factor: float,
    activation_bytes: int,
    weight_factor: float,
    weight_bytes: int,
) -> float:
    """Whole-machine bytes re-routed through the host bridges by one
    transition: the scaled activation re-striping plus the scaled
    weight re-slicing volume."""
    return activation_factor * activation_bytes + weight_factor * weight_bytes


@dataclass(frozen=True)
class TransitionCost:
    """The priced cost of entering one layer from the previous one."""

    seconds: float = 0.0
    joules: float = 0.0
    bytes_moved: float = 0.0
    per_worker_bytes: float = 0.0

    def cost_in(self, objective: str) -> float:
        if objective == "time":
            return self.seconds
        if objective == "energy":
            return self.joules
        raise PlannerError(
            f"unknown objective {objective!r}; choose 'time' or 'energy'"
        )


#: The free transition (chain start, unchanged strategy, zero preset).
FREE_TRANSITION = TransitionCost()


def _transform_key(candidate: StrategyCandidate) -> Optional[Tuple[int, int]]:
    if candidate.transform is None:
        return None
    return (candidate.transform.m, candidate.transform.r)


def transition_cost(
    model: TransitionCostModel,
    prev: Optional[StrategyCandidate],
    nxt: StrategyCandidate,
    next_layer: ConvLayerSpec,
    batch: int,
    params: HardwareParams = DEFAULT_PARAMS,
) -> TransitionCost:
    """Price the reconfiguration between two adjacent layer strategies.

    Free when the model is the zero preset, at the chain start, or when
    neither the grid nor the transform changes (a batch-split change
    re-schedules the same data layout).  A grid change moves both
    traffic classes; a transform-only change re-slices just the
    Winograd-domain weights (tile layouts of activations are rebuilt by
    the next layer's scatter anyway).
    """
    if model.is_zero or prev is None:
        return FREE_TRANSITION
    grid_change = nxt.grid != prev.grid
    transform_change = _transform_key(nxt) != _transform_key(prev)
    if not grid_change and not transform_change:
        return FREE_TRANSITION
    activation_bytes = next_layer.input_count(batch) * BYTES if grid_change else 0
    if nxt.transform is None:
        weight_elems = next_layer.weight_count
    else:
        weight_elems = next_layer.winograd_weight_count(nxt.transform.tile)
    total = rerouted_bytes(
        model.activation_factor, activation_bytes,
        model.weight_factor, weight_elems * BYTES,
    )
    per_worker = total / nxt.grid.workers
    seconds = per_worker / params.full_link_bytes_per_s + model.latency_s
    joules = EnergyModel(params).link_energy(per_worker)
    return TransitionCost(
        seconds=seconds,
        joules=joules,
        bytes_moved=total,
        per_worker_bytes=per_worker,
    )
