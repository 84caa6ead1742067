"""Global strategy-chain solvers: Viterbi DP and exhaustive oracle.

The chain problem: pick one strategy candidate per layer minimising

    sum_i [ transition(s_{i-1} -> s_i) + cost(s_i) ]

Transition costs couple only *adjacent* layers, so the problem has the
Markov structure of a Viterbi decode and the DP solve is exact.  The
exhaustive oracle enumerates every path (small nets; the property tests
use it to certify the DP).

Float-determinism contract: every solver and the greedy reference fold
path costs with the identical left-associated expression
``(total + transition) + candidate`` (see :func:`_step_total`), and IEEE
addition is monotone — so the DP total is *never* greater than the
greedy total in exact float comparison, and with the zero-transition
preset it equals the greedy total bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.comm_model import DEFAULT_FACTORS, TrafficFactors
from ..core.config import SystemConfig
from ..core.dynamic_clustering import _choose_clustering_cached
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
    transition_cost,
)

#: Solver modes of :func:`plan_network`.
MODES: Tuple[str, ...] = ("dp", "oracle")

#: Paths the exhaustive oracle refuses to enumerate past.
ORACLE_PATH_LIMIT = 262144


def _step_total(prefix: float, transition_c: float, candidate_c: float) -> float:
    """The one chain-cost fold every solver shares.  Keeping the exact
    expression (association included) identical across DP, oracle and
    the greedy reference is what makes their totals comparable in
    floats, not just in exact arithmetic."""
    return (prefix + transition_c) + candidate_c


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
        transition, objective, mode, model.params, model.factors,
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
    factors: TrafficFactors = DEFAULT_FACTORS,
) -> NetworkPlan:
    """The plan kernel: statically pure (EFF001), so safe to memoize."""
    per_layer: List[Tuple[StrategyCandidate, ...]] = []
    for layer in layers:
        candidates = _layer_candidates_cached(
            layer, batch, config, workers, knobs, params, factors
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
        network, mode, objective, transition, layers, per_layer, indices,
        batch, params,
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


def _solve_dp(
    per_layer: List[Tuple[StrategyCandidate, ...]],
    layers: Tuple[ConvLayerSpec, ...],
    batch: int,
    transition: TransitionCostModel,
    objective: str,
    params: HardwareParams,
) -> Tuple[int, ...]:
    """Viterbi decode: exact for adjacent-pair transition costs."""
    if transition.is_zero:
        # Decomposed per-layer argmin — the same strict-< first-minimal
        # loop the greedy optimiser runs, so the chosen indices (not
        # just the total) match greedy exactly.
        chosen: List[int] = []
        for candidates in per_layer:
            best_j = 0
            best = candidates[0].cost_in(objective)
            for j in range(1, len(candidates)):
                value = candidates[j].cost_in(objective)
                if value < best:
                    best = value
                    best_j = j
            chosen.append(best_j)
        return tuple(chosen)

    totals: List[float] = [
        _step_total(0.0, 0.0, c.cost_in(objective)) for c in per_layer[0]
    ]
    back: List[List[int]] = []
    for i in range(1, len(per_layer)):
        layer = layers[i]
        new_totals: List[float] = []
        pointers: List[int] = []
        for cand in per_layer[i]:
            cand_cost = cand.cost_in(objective)
            best = None
            best_j = 0
            for j, prev_cand in enumerate(per_layer[i - 1]):
                edge = _edge(
                    transition, prev_cand, cand, layer, batch, params, objective
                )
                value = _step_total(totals[j], edge, cand_cost)
                if best is None or value < best:
                    best = value
                    best_j = j
            assert best is not None
            new_totals.append(best)
            pointers.append(best_j)
        back.append(pointers)
        totals = new_totals

    best_j = 0
    best = totals[0]
    for j in range(1, len(totals)):
        if totals[j] < best:
            best = totals[j]
            best_j = j
    chain = [best_j]
    for pointers in reversed(back):
        chain.append(pointers[chain[-1]])
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
    per_layer: List[Tuple[StrategyCandidate, ...]],
    indices: Tuple[int, ...],
    batch: int,
    params: HardwareParams,
) -> NetworkPlan:
    steps: List[PlannedLayer] = []
    total = 0.0
    prev_cand: Optional[StrategyCandidate] = None
    for i, j in enumerate(indices):
        cand = per_layer[i][j]
        trans = transition_cost(
            transition, prev_cand, cand, layers[i], batch, params
        )
        total = _step_total(total, trans.cost_in(objective), cand.cost_in(objective))
        steps.append(
            PlannedLayer(layer=layers[i], candidate=cand, transition=trans)
        )
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

    Each layer's grid comes from the per-layer greedy optimiser
    (:func:`~repro.core.dynamic_clustering.choose_clustering`, via its
    cached kernel) and is mapped onto the matching default strategy
    candidate; the chain is then priced under the *same* transition
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
    per_layer: List[Tuple[StrategyCandidate, ...]] = []
    indices: List[int] = []
    for layer in layers:
        choice = _choose_clustering_cached(
            layer, batch, config, workers, model.params, model.factors
        )
        candidates = _layer_candidates_cached(
            layer, batch, config, workers, knobs, model.params, model.factors
        )
        chosen_j = None
        for j, cand in enumerate(candidates):
            if (
                cand.grid == choice.chosen
                and cand.transform_is_default
                and cand.batch_split == 1
            ):
                chosen_j = j
                break
        if chosen_j is None:
            raise PlannerError(
                f"greedy grid {choice.chosen} missing from the strategy "
                f"space of layer {layer.name!r}"
            )
        per_layer.append(candidates)
        indices.append(chosen_j)
    return _assemble(
        net.name, "greedy", objective, transition, layers, per_layer,
        tuple(indices), batch, model.params,
    )
