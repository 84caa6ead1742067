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
from ..workloads.layers import ConvLayerSpec
from .comm_model import transform_for
from .config import GridConfig, SystemConfig, clustering_candidates, default_grid
from .perf_model import LayerPerf, PerfModel


@dataclass
class ClusteringChoice:
    """Chosen grid for one layer, with the per-candidate evaluation."""

    layer: ConvLayerSpec
    chosen: GridConfig
    evaluations: Dict[GridConfig, LayerPerf]

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
    ``(layer, batch, config, workers)`` plus the model's params — network
    sweeps re-optimise identical layers at every worker count.  The
    returned :class:`ClusteringChoice` is shared across equal calls and
    must be treated as read-only.
    """
    model = model or PerfModel()
    return _choose_clustering_cached(layer, batch, config, workers, model.params)


@memoize_sweep
def _choose_clustering_cached(
    layer: ConvLayerSpec,
    batch: int,
    config: SystemConfig,
    workers: int,
    params: HardwareParams = DEFAULT_PARAMS,
) -> ClusteringChoice:
    model = PerfModel(params=params)
    # Call the model implementation directly: this function's own cache
    # already keys on (layer, batch, config, workers, params),
    # so routing per-grid evaluations through ``evaluate_layer_cached``
    # would only build cache keys that can never hit here.
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
