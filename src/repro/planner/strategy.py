"""Per-layer strategy space for the global parallelization planner.

A *strategy* for one layer is a point in the joint space the planner
searches (following Jia et al.'s layer-wise parallelization search and
Gholami et al.'s joint batch/model/domain decomposition, mapped onto the
paper's machine):

* the ``(N_g, N_c)`` worker grid (the paper's dynamic-clustering axis,
  from :func:`~repro.core.dynamic_clustering.candidate_grids`),
* the Cook–Toom transform ``F(m x m, r x r)`` (the transform-search
  extension; the paper's default rule is always candidate zero),
* an optional micro-batch split ``S`` (gradient accumulation over
  ``S`` sub-batches, amortising one weight collective).

Each candidate is scored by the existing :class:`~repro.core.perf_model.
PerfModel` — the default candidate of each grid reuses *exactly* the
evaluation the greedy optimiser performs, so a zero-transition planner
run recovers the greedy plan bit for bit — and filtered by a per-worker
DRAM capacity check against :func:`repro.ndp.dram.stack_fits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..contracts import cost, shaped
from ..core.comm_model import DEFAULT_FACTORS, TrafficFactors, transform_for
from ..core.config import GridConfig, SystemConfig, default_grid
from ..core.dynamic_clustering import candidate_grids
from ..core.perf_model import LayerPerf, PerfModel
from ..ndp.dram import stack_fits
from ..params import DEFAULT_PARAMS, HardwareParams
from ..perf import memoize_sweep
from ..winograd.cook_toom import WinogradTransform, make_transform
from ..workloads.layers import ConvLayerSpec

BYTES = 4  # FP32

#: Objectives a plan can minimise.
OBJECTIVES: Tuple[str, ...] = ("time", "energy")


class PlannerError(ValueError):
    """An invalid planner request (unknown objective/mode, empty
    strategy space, oversized oracle)."""


@dataclass(frozen=True)
class StrategyKnobs:
    """What the per-layer strategy enumeration is allowed to vary.

    The defaults span exactly the greedy optimiser's space (grids only,
    paper-default transform, whole batch), which is what makes the
    zero-transition DP recover greedy bit-identically.

    Attributes
    ----------
    search_transforms:
        Also evaluate the non-default ``F(m x m, 3x3)`` transforms for
        kernel-3 layers (``m`` in 2, 4; constrained by the group count).
    batch_splits:
        Micro-batch split factors to evaluate.  ``1`` (whole batch) must
        be included; splits that do not divide the batch are skipped.
    capacity_frac:
        Fraction of the per-worker DRAM stack a strategy's resident
        working set may occupy (headroom for DMA staging buffers).
    """

    search_transforms: bool = False
    batch_splits: Tuple[int, ...] = (1,)
    capacity_frac: float = 1.0

    def __post_init__(self) -> None:
        if not self.batch_splits:
            raise PlannerError("batch_splits must not be empty")
        if 1 not in self.batch_splits:
            raise PlannerError("batch_splits must include 1 (the whole batch)")
        for split in self.batch_splits:
            if split < 1:
                raise PlannerError(f"batch split must be >= 1, got {split}")
        if not 0 < self.capacity_frac <= 1:
            raise PlannerError(
                f"capacity_frac must be in (0, 1], got {self.capacity_frac}"
            )


DEFAULT_KNOBS = StrategyKnobs()


@shaped("XE, YE, TE, WE, NG, NC -> FB")
@cost(
    ret="floordiv(4*XE, NG*NC) + floordiv(4*YE, NG*NC)"
        " + 2*floordiv(4*TE, NG*NC) + 3*floordiv(4*WE, NG)"
)
def worker_footprint_bytes(
    x_elems: int,
    y_elems: int,
    tile_elems: int,
    weight_elems: int,
    num_groups: int,
    num_clusters: int,
) -> int:
    """Resident per-worker DRAM bytes of one layer under one grid.

    Whole-machine element counts in, worst-worker bytes out: spatial
    activations and scattered Winograd-domain tiles are striped over all
    ``N_g * N_c`` workers (tiles double-buffered: scattered input and
    gathered output elements coexist), while the group's weight slice is
    replicated per cluster and held three ways (weights, gradient
    accumulator, optimiser state).
    """
    workers = num_groups * num_clusters
    spatial = 4 * x_elems // workers + 4 * y_elems // workers
    scattered = 2 * (4 * tile_elems // workers)
    weights = 3 * (4 * weight_elems // num_groups)
    return spatial + scattered + weights


@dataclass(frozen=True)
class StrategyCandidate:
    """One scored point of a layer's strategy space.

    ``transform`` is the transform the candidate actually runs (the
    resolved paper default when ``transform_is_default``; ``None`` for
    direct convolution).  ``time_s``/``energy_j`` are the scored
    objective values for the *whole* batch (micro-batch accumulation
    already folded in); ``perf`` is the underlying per-(sub-)batch model
    evaluation, kept for reporting.
    """

    grid: GridConfig
    transform: Optional[WinogradTransform]
    transform_is_default: bool
    batch_split: int
    time_s: float
    energy_j: float
    footprint_bytes: int
    feasible: bool
    perf: LayerPerf

    def cost_in(self, objective: str) -> float:
        if objective == "time":
            return self.time_s
        if objective == "energy":
            return self.energy_j
        raise PlannerError(
            f"unknown objective {objective!r}; choose from {OBJECTIVES}"
        )


def _layer_footprint(
    layer: ConvLayerSpec,
    sub_batch: int,
    grid: GridConfig,
    transform: Optional[WinogradTransform],
) -> int:
    """Whole-machine element counts of one layer, reduced to the
    per-worker footprint via :func:`worker_footprint_bytes`."""
    x_elems = layer.input_count(sub_batch)
    y_elems = layer.output_count(sub_batch)
    if transform is None:
        tile_elems = 0
        weight_elems = layer.weight_count
    else:
        tiles = sub_batch * layer.tiles_per_image(transform.m)
        tile_elems = (
            tiles * (layer.in_channels + layer.out_channels) * transform.tile**2
        )
        weight_elems = layer.winograd_weight_count(transform.tile)
    return worker_footprint_bytes(
        x_elems, y_elems, tile_elems, weight_elems,
        grid.num_groups, grid.num_clusters,
    )


def _score(
    model: PerfModel,
    layer: ConvLayerSpec,
    batch: int,
    config: SystemConfig,
    grid: GridConfig,
    transform: Optional[WinogradTransform],
    split: int,
) -> Tuple[float, float, LayerPerf]:
    """``(time_s, energy_j, perf)`` of one strategy for the whole batch.

    ``split == 1`` reuses the greedy optimiser's evaluation verbatim
    (same ``_evaluate_layer_impl`` call, so the floats are bit-identical
    to :func:`~repro.core.dynamic_clustering.choose_clustering`).  For
    ``split > 1`` the layer runs ``split`` micro-batch iterations with
    local gradient accumulation: fprop/bprop/updateGrad repeat per
    sub-batch, while the weight collective (and its link traffic) is
    paid once on the accumulated gradients.
    """
    if split == 1:
        perf = model._evaluate_layer_impl(layer, batch, config, grid, transform)
        return perf.total_s, perf.energy_j.total_j, perf
    perf = model._evaluate_layer_impl(
        layer, batch // split, config, grid, transform
    )
    update = perf.phases["update"]
    local_update_s = max(update.compute_s, update.dram_s) + update.vector_s
    time_s = (
        split * (perf.forward_s + perf.phases["bprop"].time_s + local_update_s)
        + update.net_collective_s
    )
    energy = perf.energy_j
    energy_j = split * energy.total_j - (split - 1) * update.energy.link_j
    return time_s, energy_j, perf


def layer_candidates(
    layer: ConvLayerSpec,
    batch: int,
    config: SystemConfig,
    workers: int,
    knobs: StrategyKnobs = DEFAULT_KNOBS,
    model: Optional[PerfModel] = None,
) -> Tuple[StrategyCandidate, ...]:
    """Every strategy candidate for one layer, scored and
    capacity-checked.

    Enumeration order is deterministic and significant: grids in
    :func:`candidate_grids` order, the paper-default transform before
    any searched transform, batch splits in declared order — so a
    strict-``<`` argmin over the tuple reproduces the greedy
    tie-breaking exactly.  Memoized process-wide on the contents of
    every argument; the returned tuple is shared and must be treated as
    read-only.
    """
    model = model or PerfModel()
    return _layer_candidates_cached(
        layer, batch, config, workers, knobs, model.params, model.factors
    )


@memoize_sweep
def _layer_candidates_cached(
    layer: ConvLayerSpec,
    batch: int,
    config: SystemConfig,
    workers: int,
    knobs: StrategyKnobs = DEFAULT_KNOBS,
    params: HardwareParams = DEFAULT_PARAMS,
    factors: TrafficFactors = DEFAULT_FACTORS,
) -> Tuple[StrategyCandidate, ...]:
    """The strategy-space kernel: statically pure (EFF001), so every
    plan over the same layer shares one evaluation of its space."""
    model = PerfModel(params=params, factors=factors)
    if not config.dynamic_clustering:
        multi_group = transform_for(
            config, GridConfig(4, max(1, workers // 4)), layer.kernel
        )
        grids: Sequence[GridConfig] = (
            default_grid(config, workers, multi_group.tile**2),
        )
    else:
        grids = candidate_grids(layer, config, workers)

    candidates = []
    for grid in grids:
        if config.conv == "direct":
            options: Tuple[Tuple[Optional[WinogradTransform], bool], ...] = (
                (None, True),
            )
        else:
            default_tr = transform_for(config, grid, layer.kernel)
            extra = []
            if knobs.search_transforms and layer.kernel == 3:
                for m in (2, 4):
                    tr = make_transform(m, 3)
                    if (tr.m, tr.r) == (default_tr.m, default_tr.r):
                        continue
                    if grid.num_groups <= tr.tile**2:
                        extra.append((tr, False))
            options = ((default_tr, True),) + tuple(extra)
        for transform, is_default in options:
            for split in knobs.batch_splits:
                if batch % split:
                    continue
                # The default option passes transform=None through to
                # the model, exactly as the greedy optimiser does.
                model_tr = None if is_default else transform
                time_s, energy_j, perf = _score(
                    model, layer, batch, config, grid, model_tr, split
                )
                footprint = _layer_footprint(
                    layer, batch // split, grid, transform
                )
                candidates.append(
                    StrategyCandidate(
                        grid=grid,
                        transform=transform,
                        transform_is_default=is_default,
                        batch_split=split,
                        time_s=time_s,
                        energy_j=energy_j,
                        footprint_bytes=footprint,
                        feasible=stack_fits(
                            footprint, params, knobs.capacity_frac
                        ),
                        perf=perf,
                    )
                )
    return tuple(candidates)
