"""Measurement harness for activation-prediction statistics (Fig. 12).

Drives realistic pre-activation Winograd tiles through the predictors and
the zero-skip analysis, sweeping the quantiser configuration exactly as
paper Fig. 12 does (1/2/4 regions at several level counts), and derives
the traffic-reduction factors the performance model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..nn.data import natural_feature_maps
from ..winograd.cook_toom import make_transform
from ..winograd.conv import elementwise_matmul, spatial_to_winograd
from ..winograd.tiling import TileGrid, extract_tiles
from .predictor import (
    PredictionResult,
    gather_traffic_reduction,
    predict_1d,
    predict_2d,
)
from .quantization import NonUniformQuantizer, QuantizerConfig
from .zero_skip import zero_skip_1d, zero_skip_2d


@dataclass
class TileSample:
    """A batch of realistic Winograd-domain data for one layer, tile-major
    (each tile's ``T x T`` elements last, contiguous)."""

    input_tiles_spatial: np.ndarray  # (B, I, th, tw, T, T), spatial domain
    output_tiles_wd: np.ndarray  # (B, J, th, tw, T, T), pre-activation


def _tile_major(tiles: np.ndarray) -> np.ndarray:
    """Element-major ``(T, T, B, th, tw, C)`` tiles as a contiguous
    tile-major ``(B, C, th, tw, T, T)`` array."""
    return np.ascontiguousarray(tiles.transpose(2, 5, 3, 4, 0, 1))


def make_tile_sample(
    batch: int = 4,
    in_channels: int = 8,
    out_channels: int = 8,
    size: int = 16,
    m: int = 2,
    r: int = 3,
    seed: int = 0,
    bias_shift: float = 0.8,
    input_sparsity: float = 0.65,
) -> TileSample:
    """Generate pre-activation Winograd tiles from natural-like inputs.

    Inputs are ReLU-sparse, spatially correlated maps; weights are
    zero-mean He-scaled.  ``bias_shift`` subtracts a small constant from
    the pre-activations (standing in for learned biases/batch-norm
    offsets), which gives the 30-70% dead-neuron rates observed in
    trained CNNs.
    """
    transform = make_transform(m, r)
    rng = np.random.default_rng(seed)
    maps = natural_feature_maps(
        batch, in_channels, size, seed=seed, sparsity=input_sparsity
    )
    weights = rng.standard_normal((out_channels, in_channels, r, r))
    weights *= np.sqrt(2.0 / (in_channels * r * r))
    grid = TileGrid(height=size, width=size, pad=1, m=m, r=r)
    spatial_tiles = extract_tiles(maps, grid)
    input_tiles = transform.transform_input(spatial_tiles)
    weights_wd = spatial_to_winograd(weights, transform)
    out_tiles = elementwise_matmul(input_tiles, weights_wd)
    # Shift in the Winograd domain so the spatial-domain pre-activations
    # are shifted by a constant (the (0..m,0..m) spatial impulse of a
    # constant is approximated by shifting the DC-like element).
    out_spatial_std = float(_tile_major(transform.inverse_transform(out_tiles)).std())
    shift_spatial = bias_shift * out_spatial_std
    # Winograd-domain representation S of a constant spatial shift:
    # solve A^T S A = shift * ones (minimum-norm solution).
    a = transform.A
    ones = np.full((transform.m, transform.m), shift_spatial)
    a_pinv = np.linalg.pinv(a.T)
    s = a_pinv @ ones @ a_pinv.T
    return TileSample(
        input_tiles_spatial=_tile_major(spatial_tiles),
        output_tiles_wd=_tile_major(out_tiles) - s,
    )


@dataclass
class Fig12Row:
    """One bar group of paper Fig. 12."""

    dataset: str
    mode: str  # "1d" or "2d"
    regions: int
    levels: int
    predicted_ratio: float
    actual_ratio: float
    false_negatives: int


@dataclass
class PredictionSweep:
    """Full Fig. 12 sweep plus derived traffic factors."""

    rows: List[Fig12Row] = field(default_factory=list)
    gather_reduction: Dict[Tuple[str, str], float] = field(default_factory=dict)
    scatter_reduction: Dict[Tuple[str, str], float] = field(default_factory=dict)


def run_prediction_sweep(
    datasets: Dict[str, TileSample],
    m: int = 2,
    r: int = 3,
    regions_list: Tuple[int, ...] = (1, 2, 4),
    levels_2d: int = 64,
    levels_1d: int = 32,
) -> PredictionSweep:
    """Reproduce the Fig. 12 measurement for the given tile samples."""
    transform = make_transform(m, r)
    sweep = PredictionSweep()
    for name, sample in datasets.items():
        tiles = sample.output_tiles_wd
        sigma = float(tiles.std())
        for mode, levels, fn in (
            ("2d", levels_2d, predict_2d),
            ("1d", levels_1d, predict_1d),
        ):
            best: PredictionResult | None = None
            for regions in regions_list:
                quantizer = NonUniformQuantizer(
                    QuantizerConfig(levels=levels, regions=regions), sigma
                )
                result = fn(tiles, transform, quantizer)
                sweep.rows.append(
                    Fig12Row(
                        dataset=name,
                        mode=mode,
                        regions=regions,
                        levels=levels,
                        predicted_ratio=result.predicted_ratio,
                        actual_ratio=result.actual_ratio,
                        false_negatives=result.false_negatives,
                    )
                )
                if best is None or result.predicted_ratio > best.predicted_ratio:
                    best = result
                    best_quant = quantizer
            sweep.gather_reduction[(name, mode)] = gather_traffic_reduction(
                best, best_quant, mode, transform
            )
        spatial = sample.input_tiles_spatial
        sweep.scatter_reduction[(name, "2d")] = zero_skip_2d(
            spatial, transform
        ).traffic_reduction
        sweep.scatter_reduction[(name, "1d")] = zero_skip_1d(
            spatial, transform
        ).traffic_reduction
    return sweep


def tile_sample_from_network(
    samples: int = 64,
    epochs: int = 2,
    seed: int = 0,
) -> TileSample:
    """Winograd tiles harvested from a *trained* CNN (not synthetic
    weights): trains a small Winograd-layer CNN on the synthetic
    classification set, then captures the first convolution's input tiles
    and pre-activation Winograd-domain outputs on held-out data.

    This is the closest offline equivalent of the paper's methodology
    (pre-trained weights + dataset images, Fig. 12).
    """
    from ..nn import small_cnn, train, train_val_datasets
    from ..nn.layers import WinogradConv2D

    train_data, val_data = train_val_datasets(
        max(128, samples * 2), samples, classes=4, size=16, seed=seed
    )
    net = small_cnn(classes=4, width=8, use_winograd=True, m=2, seed=seed)
    train(net, train_data, val_data, epochs=epochs, batch_size=32, lr=0.05,
          seed=seed)
    conv = next(l for l in net.layers if isinstance(l, WinogradConv2D))
    x = val_data.x[:samples]
    out_tiles = conv.forward_tiles(x)
    # forward_tiles cached the Winograd-domain input tiles; recover the
    # spatial tiles for the zero-skip analysis.
    spatial_tiles = extract_tiles(x, conv._cache.grid)
    return TileSample(
        input_tiles_spatial=_tile_major(spatial_tiles),
        output_tiles_wd=_tile_major(out_tiles),
    )


def default_datasets(seed: int = 0) -> Dict[str, TileSample]:
    """CIFAR-like and ImageNet-like tile samples (see DESIGN.md
    substitution table)."""
    return {
        "CIFAR": make_tile_sample(batch=8, size=16, seed=seed),
        "ImageNet": make_tile_sample(
            batch=4, in_channels=16, out_channels=16, size=28, seed=seed + 1
        ),
    }
