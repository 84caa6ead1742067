"""Global strategy-chain solvers: Viterbi DP and exhaustive oracle.

The chain problem: pick one strategy candidate per layer minimising

    sum_i [ transition(s_{i-1} -> s_i) + cost(s_i) ]

Transition costs couple only *adjacent* layers, so the problem has the
Markov structure of a Viterbi decode and the DP solve is exact.  The
exhaustive oracle enumerates every path (small nets; the property tests
use it to certify the DP).

The DP prices each previous-class x current-class pair of ``(grid,
transform)`` classes once (a transition reads only those fields of its
ends) and folds each layer's candidate pairs in one numpy float64
broadcast; the oracle, :func:`_assemble` and greedy stay scalar, so the
oracle certifies the DP independently.

Float-determinism contract: every solver and the greedy reference fold
path costs with the identical left-associated expression
``(total + transition) + candidate`` (see :func:`_step_total`), on floats
or float64 arrays alike, and IEEE addition is monotone — so the DP total
is *never* greater than the greedy total in exact float comparison, and
with the zero-transition preset it equals the greedy total bit for bit.
``min`` and ``argmin`` keep the first of equal values; non-finite costs
raise :class:`PlannerError` before either reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import SystemConfig
from ..core.perf_model import PerfModel
from ..params import DEFAULT_PARAMS, HardwareParams
from ..perf import memoize_sweep
from ..workloads.layers import ConvLayerSpec
from ..workloads.networks import CnnSpec
from .strategy import (
    DEFAULT_KNOBS,
    OBJECTIVES,
    PlannerError,
    StrategyCandidate,
    StrategyKnobs,
    _layer_candidates_cached,
)
from .transition import (
    ZERO_TRANSITION,
    TransitionCost,
    TransitionCostModel,
    _transform_key,
    transition_cost,
)

#: Solver modes of :func:`plan_network`.
MODES: Tuple[str, ...] = ("dp", "oracle")

#: Paths the exhaustive oracle refuses to enumerate past.
ORACLE_PATH_LIMIT = 262144


def _step_total(prefix, transition_c, candidate_c):
    """The one chain-cost fold every solver shares.  Keeping the exact
    expression (association included) identical across DP, oracle and
    the greedy reference is what makes their totals comparable in
    floats, not just in exact arithmetic.  The scalar solvers pass
    floats; the DP passes float64 arrays and gets the same IEEE adds
    elementwise."""
    return (prefix + transition_c) + candidate_c


def _first_min(values: Sequence[float]) -> int:
    """Index of the smallest value.  ``min`` keeps the first of equal
    values, the tie-breaking every solver and the greedy baseline share."""
    return min(range(len(values)), key=values.__getitem__)


@dataclass(frozen=True)
class PlannedLayer:
    """One step of a plan: the chosen strategy and the priced cost of
    entering it from the previous step."""

    layer: ConvLayerSpec
    candidate: StrategyCandidate
    transition: TransitionCost


@dataclass(frozen=True)
class NetworkPlan:
    """A full per-layer strategy chain with its objective total."""

    network: str
    mode: str
    objective: str
    transition: TransitionCostModel
    steps: Tuple[PlannedLayer, ...]
    total_cost: float

    @property
    def time_s(self) -> float:
        return sum(
            s.transition.seconds + s.candidate.time_s for s in self.steps
        )

    @property
    def energy_j(self) -> float:
        return sum(
            s.transition.joules + s.candidate.energy_j for s in self.steps
        )

    @property
    def transition_seconds(self) -> float:
        return sum(s.transition.seconds for s in self.steps)

    @property
    def transition_bytes(self) -> float:
        return sum(s.transition.bytes_moved for s in self.steps)

    @property
    def transitions(self) -> int:
        """Costed (non-free) transitions along the chain."""
        return sum(1 for s in self.steps if s.transition.bytes_moved > 0)

    @property
    def feasible(self) -> bool:
        return all(s.candidate.feasible for s in self.steps)

    @property
    def grids(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(
            (s.candidate.grid.num_groups, s.candidate.grid.num_clusters)
            for s in self.steps
        )


def plan_network(
    net: CnnSpec,
    config: SystemConfig,
    workers: int = 256,
    batch: int = 256,
    knobs: StrategyKnobs = DEFAULT_KNOBS,
    transition: TransitionCostModel = ZERO_TRANSITION,
    objective: str = "time",
    mode: str = "dp",
    model: Optional[PerfModel] = None,
) -> NetworkPlan:
    """Solve the global strategy chain for a whole network.

    Memoized process-wide on the contents of every argument; the
    returned plan is shared across equal calls and must be treated as
    read-only.
    """
    if objective not in OBJECTIVES:
        raise PlannerError(
            f"unknown objective {objective!r}; choose from {OBJECTIVES}"
        )
    if mode not in MODES:
        raise PlannerError(f"unknown mode {mode!r}; choose from {MODES}")
    model = model or PerfModel()
    return _plan_network_cached(
        net.name, tuple(net.conv_layers), batch, config, workers, knobs,
        transition, objective, mode, model.params,
    )


@memoize_sweep
def _plan_network_cached(
    network: str,
    layers: Tuple[ConvLayerSpec, ...],
    batch: int,
    config: SystemConfig,
    workers: int,
    knobs: StrategyKnobs = DEFAULT_KNOBS,
    transition: TransitionCostModel = ZERO_TRANSITION,
    objective: str = "time",
    mode: str = "dp",
    params: HardwareParams = DEFAULT_PARAMS,
) -> NetworkPlan:
    """The plan kernel: statically pure (EFF001), so safe to memoize."""
    per_layer: List[Tuple[StrategyCandidate, ...]] = []
    for layer in layers:
        candidates = _layer_candidates_cached(
            layer, batch, config, workers, knobs, params
        )
        usable = tuple(c for c in candidates if c.feasible)
        if not usable:
            raise PlannerError(
                f"no strategy for layer {layer.name!r} fits "
                f"{knobs.capacity_frac:.0%} of the per-worker DRAM stack "
                f"({params.dram_capacity_bytes / 2**30:.1f} GiB)"
            )
        per_layer.append(usable)
    if not layers:
        indices: Tuple[int, ...] = ()
    elif mode == "dp":
        indices = _solve_dp(
            per_layer, layers, batch, transition, objective, params
        )
    else:
        indices = _solve_oracle(
            per_layer, layers, batch, transition, objective, params
        )
    return _assemble(
        network, mode, objective, transition, layers,
        [per_layer[i][j] for i, j in enumerate(indices)], batch, params,
    )


def _edge(
    transition: TransitionCostModel,
    prev: Optional[StrategyCandidate],
    nxt: StrategyCandidate,
    layer: ConvLayerSpec,
    batch: int,
    params: HardwareParams,
    objective: str,
) -> float:
    return transition_cost(transition, prev, nxt, layer, batch, params).cost_in(
        objective
    )


def _require_finite(values, what: str, layer: ConvLayerSpec) -> None:
    """Raise before a comparison reads a NaN or infinite cost: ``<`` and
    ``argmin`` would each pick a different garbage path."""
    if not np.isfinite(values).all():
        raise PlannerError(f"non-finite {what} at layer {layer.name!r}")


def _classes(
    candidates: Sequence[StrategyCandidate],
) -> Tuple[List[int], List[StrategyCandidate]]:
    """Each candidate's ``(grid, transform)`` class index, and the first
    candidate of each class.  A transition's price reads only those two
    fields of its ends, so one member prices its whole class."""
    first: Dict[tuple, int] = {}
    labels = [first.setdefault((c.grid, _transform_key(c)), len(first)) for c in candidates]
    return labels, [candidates[labels.index(k)] for k in range(len(first))]


def _solve_dp(
    per_layer: List[Tuple[StrategyCandidate, ...]],
    layers: Tuple[ConvLayerSpec, ...],
    batch: int,
    transition: TransitionCostModel,
    objective: str,
    params: HardwareParams,
) -> Tuple[int, ...]:
    """Viterbi decode: exact for adjacent-pair transition costs."""
    costs = [[c.cost_in(objective) for c in cands] for cands in per_layer]
    for layer, layer_costs in zip(layers, costs):
        _require_finite(layer_costs, f"{objective} cost", layer)
    if transition.is_zero:
        # Decomposed per-layer argmin: ``min`` keeps the first of equal
        # costs, as greedy does, so the chosen indices (not just the
        # total) match greedy exactly.
        return tuple(_first_min(layer_costs) for layer_costs in costs)

    classes = [_classes(candidates) for candidates in per_layer]
    totals = _step_total(0.0, 0.0, np.array(costs[0]))
    back: List[np.ndarray] = []
    for i in range(1, len(per_layer)):
        (prev_labels, prev_reps), (labels, reps) = classes[i - 1], classes[i]
        edges = np.array([
            [_edge(transition, p, c, layers[i], batch, params, objective)
             for c in reps]
            for p in prev_reps
        ])
        _require_finite(edges, "transition cost", layers[i])
        # values[j, k]: the best path to candidate j, extended to k.
        values = _step_total(
            totals[:, None], edges[np.ix_(prev_labels, labels)],
            np.array(costs[i]),
        )
        pointers = values.argmin(axis=0)
        totals = values[pointers, np.arange(len(labels))]
        back.append(pointers)

    chain = [int(totals.argmin())]
    for pointers in reversed(back):
        chain.append(int(pointers[chain[-1]]))
    chain.reverse()
    return tuple(chain)


def _solve_oracle(
    per_layer: List[Tuple[StrategyCandidate, ...]],
    layers: Tuple[ConvLayerSpec, ...],
    batch: int,
    transition: TransitionCostModel,
    objective: str,
    params: HardwareParams,
) -> Tuple[int, ...]:
    """Exhaustive path enumeration (odometer order, strict-< minimum)."""
    paths = 1
    for candidates in per_layer:
        paths *= len(candidates)
        if paths > ORACLE_PATH_LIMIT:
            raise PlannerError(
                f"oracle space exceeds {ORACLE_PATH_LIMIT} paths; "
                "use mode='dp' (exact for chain transitions)"
            )
    n = len(per_layer)
    indices = [0] * n
    best_total: Optional[float] = None
    best_indices: Tuple[int, ...] = tuple(indices)
    while True:
        total = 0.0
        prev_cand: Optional[StrategyCandidate] = None
        for i in range(n):
            cand = per_layer[i][indices[i]]
            edge = _edge(
                transition, prev_cand, cand, layers[i], batch, params, objective
            )
            total = _step_total(total, edge, cand.cost_in(objective))
            prev_cand = cand
        if best_total is None or total < best_total:
            best_total = total
            best_indices = tuple(indices)
        position = n - 1
        while position >= 0:
            indices[position] += 1
            if indices[position] < len(per_layer[position]):
                break
            indices[position] = 0
            position -= 1
        if position < 0:
            break
    return best_indices


def _assemble(
    network: str,
    mode: str,
    objective: str,
    transition: TransitionCostModel,
    layers: Tuple[ConvLayerSpec, ...],
    chain: Sequence[StrategyCandidate],
    batch: int,
    params: HardwareParams,
) -> NetworkPlan:
    steps: List[PlannedLayer] = []
    total = 0.0
    prev_cand: Optional[StrategyCandidate] = None
    for layer, cand in zip(layers, chain):
        trans = transition_cost(transition, prev_cand, cand, layer, batch, params)
        total = _step_total(total, trans.cost_in(objective), cand.cost_in(objective))
        steps.append(PlannedLayer(layer=layer, candidate=cand, transition=trans))
        prev_cand = cand
    return NetworkPlan(
        network=network,
        mode=mode,
        objective=objective,
        transition=transition,
        steps=tuple(steps),
        total_cost=total,
    )


def greedy_plan(
    net: CnnSpec,
    config: SystemConfig,
    workers: int = 256,
    batch: int = 256,
    knobs: StrategyKnobs = DEFAULT_KNOBS,
    transition: TransitionCostModel = ZERO_TRANSITION,
    objective: str = "time",
    model: Optional[PerfModel] = None,
) -> NetworkPlan:
    """The paper's greedy baseline, priced as a plan.

    Each layer takes the per-layer greedy optimiser's choice
    (:func:`~repro.core.dynamic_clustering.choose_clustering`): the first
    fastest of its default-transform, whole-batch strategy candidates,
    one per grid in the same order and scored from the same cached
    evaluations.  The chain is then priced under the *same* transition
    model and fold as the DP, so ``dp.total_cost <= greedy.total_cost``
    holds in exact float comparison.  Greedy ignores the capacity
    filter, as the paper does — its plan may be marked infeasible.
    """
    if objective not in OBJECTIVES:
        raise PlannerError(
            f"unknown objective {objective!r}; choose from {OBJECTIVES}"
        )
    model = model or PerfModel()
    layers = tuple(net.conv_layers)
    chain = [
        min(
            (
                cand
                for cand in _layer_candidates_cached(
                    layer, batch, config, workers, knobs, model.params
                )
                if cand.transform_is_default and cand.batch_split == 1
            ),
            key=lambda cand: cand.time_s,
        )
        for layer in layers
    ]
    return _assemble(
        net.name, "greedy", objective, transition, layers, chain, batch,
        model.params,
    )
