"""Activation prediction and zero-skipping (paper Section V)."""

from .predictor import (
    PredictionResult,
    gather_traffic_reduction,
    predict_1d,
    predict_2d,
)
from .quantization import (
    NonUniformQuantizer,
    QuantizedTensor,
    QuantizerConfig,
    interval_matmul_right,
)
from .statistics import (
    Fig12Row,
    PredictionSweep,
    TileSample,
    default_datasets,
    make_tile_sample,
    run_prediction_sweep,
    tile_sample_from_network,
)
from .zero_skip import ZeroSkipResult, zero_skip_1d, zero_skip_2d

__all__ = [
    "PredictionResult",
    "gather_traffic_reduction",
    "predict_1d",
    "predict_2d",
    "NonUniformQuantizer",
    "QuantizedTensor",
    "QuantizerConfig",
    "interval_matmul_right",
    "Fig12Row",
    "PredictionSweep",
    "TileSample",
    "default_datasets",
    "make_tile_sample",
    "run_prediction_sweep",
    "tile_sample_from_network",
    "ZeroSkipResult",
    "zero_skip_1d",
    "zero_skip_2d",
]
