"""Near-data-processing worker substrate (paper Section VI)."""

from .comm_unit import Chunk, CollectiveEngine, ReduceBlock
from .energy import EnergyBreakdown, EnergyModel
from .systolic import (
    GemmTiming,
    batched_gemm_cycles,
    gemm_cycles,
    gemm_time_s,
    required_stream_bandwidth,
)
from .systolic_functional import FunctionalSystolicArray, SystolicRun, tiled_gemm
from .taskgraph import ScheduleEntry, Task, TaskExecutor, TaskGraph

__all__ = [
    "Chunk",
    "CollectiveEngine",
    "ReduceBlock",
    "EnergyBreakdown",
    "EnergyModel",
    "GemmTiming",
    "batched_gemm_cycles",
    "gemm_cycles",
    "gemm_time_s",
    "required_stream_bandwidth",
    "FunctionalSystolicArray",
    "SystolicRun",
    "tiled_gemm",
    "ScheduleEntry",
    "Task",
    "TaskExecutor",
    "TaskGraph",
]
