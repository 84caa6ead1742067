"""Dynamic clustering: per-layer ``(N_g, N_c)`` selection (paper Section IV).

Neural networks have fixed layer structures, so the communication volumes
and link bandwidths — and therefore the best worker organisation — can be
computed before training starts.  The optimiser below evaluates each
candidate configuration with the performance model and picks the one that
minimises the layer's iteration time; reconfiguration between layers only
re-routes tile and weight traffic through the host bridges and costs no
data movement (Section IV), so no switching penalty is charged.

:func:`candidate_grids` is the one grid policy: the planner's strategy
space (:mod:`repro.planner.strategy`) enumerates the same grids, and both
evaluate them through the perf model's process-wide cache.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..workloads.layers import ConvLayerSpec
from .comm_model import transform_for
from .config import GridConfig, SystemConfig, clustering_candidates
from .perf_model import LayerPerf, PerfModel


def candidate_grids(
    layer: ConvLayerSpec, config: SystemConfig, workers: int
) -> Tuple[GridConfig, ...]:
    """The grids a layer may run on, in evaluation order.

    Pure DP for non-MPT configs.  MPT splits are limited by the tile
    element count of the transform a multi-group split would use: every
    host-bridgeable candidate with dynamic clustering, otherwise the
    squarest alone (``(16, 16)`` at p = 256, Section VII-A).
    """
    if not config.mpt:
        return (GridConfig(1, workers),)
    multi_group = transform_for(config, GridConfig(4, max(1, workers // 4)), layer.kernel)
    candidates = clustering_candidates(workers, multi_group.tile**2)
    if not config.dynamic_clustering:
        return (max(candidates, key=lambda g: g.num_groups),)
    return candidates


def choose_clustering(
    layer: ConvLayerSpec,
    batch: int,
    config: SystemConfig,
    workers: int,
    model: Optional[PerfModel] = None,
) -> LayerPerf:
    """The evaluation of the grid minimising the layer's predicted
    iteration time (``.grid`` is the chosen grid); ``min`` keeps the
    first of equal times in :func:`candidate_grids` order.

    Every evaluation goes through :meth:`PerfModel.evaluate_layer`, whose
    process-wide cache the planner's strategy space shares, so the
    returned :class:`LayerPerf` is shared and must be treated as
    read-only.
    """
    model = model or PerfModel()
    return min(
        (
            model.evaluate_layer(layer, batch, config, grid)
            for grid in candidate_grids(layer, config, workers)
        ),
        key=lambda perf: perf.total_s,
    )
