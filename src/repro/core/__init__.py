"""Multi-dimensional parallel training — the paper's core contribution."""

from .comm_model import (
    DEFAULT_FACTORS,
    CommVolume,
    layer_comm_volume,
    tile_transfer_bytes,
    transform_for,
    uses_1d_transfer,
    weight_collective_bytes,
)
from .config import (
    GridConfig,
    MachineConfig,
    SystemConfig,
    clustering_candidates,
    d_dp,
    table4_configs,
    w_dp,
    w_mp,
    w_mp_plus,
    w_mp_plus_plus,
)
from .dynamic_clustering import candidate_grids, choose_clustering
from .perf_model import LayerPerf, PerfModel, PhasePerf, powered_links
from .trainer import FaultImpact, IterationResult, LayerReport, TrainingSimulator

__all__ = [
    "DEFAULT_FACTORS",
    "CommVolume",
    "layer_comm_volume",
    "tile_transfer_bytes",
    "transform_for",
    "uses_1d_transfer",
    "weight_collective_bytes",
    "GridConfig",
    "MachineConfig",
    "SystemConfig",
    "clustering_candidates",
    "d_dp",
    "table4_configs",
    "w_dp",
    "w_mp",
    "w_mp_plus",
    "w_mp_plus_plus",
    "candidate_grids",
    "choose_clustering",
    "LayerPerf",
    "PerfModel",
    "PhasePerf",
    "powered_links",
    "FaultImpact",
    "IterationResult",
    "LayerReport",
    "TrainingSimulator",
]
