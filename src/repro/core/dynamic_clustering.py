"""Dynamic clustering: per-layer ``(N_g, N_c)`` selection (paper Section IV).

Neural networks have fixed layer structures, so the communication volumes
and link bandwidths — and therefore the best worker organisation — can be
computed before training starts.  The optimiser below evaluates each
candidate configuration with the performance model and picks the one that
minimises the layer's iteration time; reconfiguration between layers only
re-routes tile and weight traffic through the host bridges and costs no
data movement (Section IV), so no switching penalty is charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..params import DEFAULT_PARAMS, HardwareParams
from ..perf import memoize_sweep
from ..winograd.cook_toom import WinogradTransform
from ..workloads.layers import ConvLayerSpec
from .comm_model import DEFAULT_FACTORS, TrafficFactors, transform_for
from .config import GridConfig, SystemConfig, clustering_candidates, default_grid
from .perf_model import LayerPerf, PerfModel


@dataclass
class ClusteringChoice:
    """Chosen grid for one layer, with the per-candidate evaluation."""

    layer: ConvLayerSpec
    chosen: GridConfig
    evaluations: Dict[GridConfig, LayerPerf]
    #: Transform chosen by the transform-search extension (None = the
    #: paper's default rule).
    chosen_transform: Optional[WinogradTransform] = None

    @property
    def perf(self) -> LayerPerf:
        return self.evaluations[self.chosen]


def candidate_grids(
    layer: ConvLayerSpec, config: SystemConfig, workers: int
) -> Sequence[GridConfig]:
    """Valid grids for a layer: pure DP always; MPT splits limited by the
    tile element count of the transform the split would use."""
    if not config.mpt:
        return [GridConfig(1, workers)]
    multi_group = transform_for(config, GridConfig(4, max(1, workers // 4)), layer.kernel)
    return clustering_candidates(workers, multi_group.tile**2)


def choose_clustering(
    layer: ConvLayerSpec,
    batch: int,
    config: SystemConfig,
    workers: int,
    model: Optional[PerfModel] = None,
) -> ClusteringChoice:
    """Pick the grid minimising the layer's predicted iteration time.

    When the configuration has dynamic clustering disabled the fixed
    default grid is returned (still evaluated, for reporting).

    The choice is memoized process-wide on the contents of
    ``(layer, batch, config, workers)`` plus the model's params and
    traffic factors — network sweeps re-optimise identical layers at
    every worker count.  The returned :class:`ClusteringChoice` is
    shared across equal calls and must be treated as read-only.
    """
    model = model or PerfModel()
    return _choose_clustering_cached(
        layer, batch, config, workers, model.params, model.factors
    )


@memoize_sweep
def _choose_clustering_cached(
    layer: ConvLayerSpec,
    batch: int,
    config: SystemConfig,
    workers: int,
    params: HardwareParams = DEFAULT_PARAMS,
    factors: TrafficFactors = DEFAULT_FACTORS,
) -> ClusteringChoice:
    model = PerfModel(params=params, factors=factors)
    # Call the model implementation directly: this function's own cache
    # already keys on (layer, batch, config, workers, params, factors),
    # so routing per-grid evaluations through ``evaluate_layer_cached``
    # would only rebuild content keys that can never hit here.
    if not config.dynamic_clustering:
        multi_group = transform_for(
            config, GridConfig(4, max(1, workers // 4)), layer.kernel
        )
        grid = default_grid(config, workers, multi_group.tile**2)
        perf = model._evaluate_layer_impl(layer, batch, config, grid, None)
        return ClusteringChoice(
            layer=layer, chosen=grid, evaluations={grid: perf}
        )

    evaluations: Dict[GridConfig, LayerPerf] = {}
    best: Optional[GridConfig] = None
    best_time = float("inf")
    for grid in candidate_grids(layer, config, workers):
        perf = model._evaluate_layer_impl(layer, batch, config, grid, None)
        evaluations[grid] = perf
        if perf.total_s < best_time:
            best_time = perf.total_s
            best = grid
    assert best is not None
    return ClusteringChoice(layer=layer, chosen=best, evaluations=evaluations)


def replan_for_survivors(
    layer: ConvLayerSpec,
    batch: int,
    config: SystemConfig,
    workers: int,
    dead_workers: Sequence[int],
    model: Optional[PerfModel] = None,
) -> ClusteringChoice:
    """Re-run dynamic clustering after permanent worker loss.

    Degraded-ring splicing (:mod:`repro.faults`) keeps the iteration
    alive the moment a worker dies; at the next iteration boundary the
    host can instead *re-plan* — the clustering optimiser already works
    for any worker count, so the surviving machine simply gets a fresh
    ``(N_g, N_c)`` choice.  Memoization makes repeated re-plans for the
    same survivor count free.
    """
    survivors = workers - len(frozenset(dead_workers))
    if survivors < 1:
        raise ValueError("no surviving workers to re-plan for")
    return choose_clustering(layer, batch, config, survivors, model)


def choose_clustering_and_transform(
    layer: ConvLayerSpec,
    batch: int,
    config: SystemConfig,
    workers: int,
    model: Optional[PerfModel] = None,
) -> ClusteringChoice:
    """Extension beyond the paper: jointly search the grid *and* the
    Winograd transform.

    The paper fixes F(2x2, r x r) for multi-group configurations "to
    have smaller Winograd-domain weights" and F(4x4, 3x3) for a single
    group.  But a multi-group F(4x4) trades bigger weight slices for
    ~44% less tile-transfer volume and 1.78x fewer MACs, which can win
    on tile-bound mid layers.  This optimiser evaluates every
    (grid, transform) pair and returns the best.
    """
    from ..winograd.cook_toom import make_transform

    model = model or PerfModel()
    candidates = []
    for grid in candidate_grids(layer, config, workers):
        default_tr = transform_for(config, grid, layer.kernel)
        options = {(default_tr.m, default_tr.r): default_tr}
        if layer.kernel == 3:
            for m in (2, 4):
                tr = make_transform(m, 3)
                if grid.num_groups <= tr.tile**2:
                    options[(m, 3)] = tr
        for tr in options.values():
            candidates.append((grid, tr))
    best = None
    best_perf = None
    evaluations: Dict[GridConfig, LayerPerf] = {}
    for grid, tr in candidates:
        perf = model.evaluate_layer(layer, batch, config, grid, transform=tr)
        if best_perf is None or perf.total_s < best_perf.total_s:
            best, best_perf = (grid, tr), perf
        # Keep the best evaluation seen per grid for reporting.
        if grid not in evaluations or perf.total_s < evaluations[grid].total_s:
            evaluations[grid] = perf
    assert best is not None and best_perf is not None
    return ClusteringChoice(
        layer=layer,
        chosen=best[0],
        evaluations=evaluations,
        chosen_transform=best[1],
    )
