"""Zero-skipping of input-tile scatter traffic (paper Section V-B).

The inputs to a convolution layer come from a ReLU, so spatial tiles are
sparse; the Winograd input transform preserves many of those zeros.
Skipped values are recorded in an activation map (a bitmask shared between
source and destination) and re-materialised as zeros on the receiving
side, so the optimisation is lossless.

Two transfer points are modelled, matching the dynamic-clustering
configurations:

* **2D scatter** — the source holds the full spatial tile and sends the
  fully transformed ``B^T x B`` elements; zeros of the 2D-transformed tile
  are skipped.
* **1D scatter** — with few groups each worker owns complete tile rows,
  so the source sends the half-transformed ``B^T x`` and the destination
  finishes the transform; the half-transformed data retains the zero
  *columns* of the sparse spatial tile, yielding the higher skip rate the
  paper reports (64.7% vs 39.3%).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..winograd.cook_toom import WinogradTransform
from ..winograd.tiling import element_major


@dataclass
class ZeroSkipResult:
    """Scatter-compression statistics.

    ``skip_ratio`` is the fraction of values not transmitted;
    ``traffic_reduction`` additionally charges 1 bit per value for the
    activation map.
    """

    skip_ratio: float
    traffic_reduction: float


def _result_from_mask(zero_mask: np.ndarray) -> ZeroSkipResult:
    skip = float(zero_mask.mean())
    # 1-bit activation map per value, values are 32-bit.
    return ZeroSkipResult(skip_ratio=skip, traffic_reduction=skip - 1.0 / 32.0)


def zero_skip_2d(
    spatial_tiles: np.ndarray, transform: WinogradTransform, tol: float = 1e-12
) -> ZeroSkipResult:
    """Skip statistics for fully transformed input tiles ``B^T x B``."""
    transformed = transform.transform_input(element_major(spatial_tiles))
    return _result_from_mask(np.abs(transformed) <= tol)


def zero_skip_1d(
    spatial_tiles: np.ndarray, transform: WinogradTransform, tol: float = 1e-12
) -> ZeroSkipResult:
    """Skip statistics for half-transformed input tiles ``B^T x``."""
    half = np.tensordot(spatial_tiles, transform.B, axes=([-2], [0]))
    return _result_from_mask(np.abs(half) <= tol)
