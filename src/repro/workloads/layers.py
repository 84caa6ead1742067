"""Convolution-layer and network shape specifications.

Defines the five "typical" convolution layers of paper Table II and the
shape-level descriptions of the Table I networks.

**Substitution note (see DESIGN.md):** the numeric contents of Table II
are not present in the paper text available to us (the table body was lost
in extraction).  We reconstruct the five layers from the paper's
description — "Early" layers have large feature maps and small channel
counts, "Late" layers small feature maps and large weights — using the
standard VGG-16 ImageNet ladder, which matches the paper's measured
compute/memory ratios (Fig. 1) and communication trade-offs (Fig. 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List


@dataclass(frozen=True)
class ConvLayerSpec:
    """Shape of one stride-1 convolution layer.

    Attributes
    ----------
    name:
        Human-readable layer name, display only: equality and hash
        ignore it, so same-shape layers (the repeated VGG blocks) are
        equal and share one memoized evaluation.
    in_channels, out_channels:
        ``I`` and ``J`` in the paper's notation.
    height, width:
        Input spatial size.
    kernel:
        Filter size ``r`` (square).
    pad:
        Symmetric zero padding (default keeps the spatial size for odd
        kernels).
    has_relu:
        Whether a ReLU follows (drives activation prediction).
    """

    name: str = field(compare=False)
    in_channels: int
    out_channels: int
    height: int
    width: int
    kernel: int = 3
    pad: int = 1
    has_relu: bool = True

    @property
    def out_height(self) -> int:
        return self.height + 2 * self.pad - self.kernel + 1

    @property
    def out_width(self) -> int:
        return self.width + 2 * self.pad - self.kernel + 1

    @property
    def weight_count(self) -> int:
        """Spatial weight parameter count ``|w|`` (elements)."""
        return self.in_channels * self.out_channels * self.kernel * self.kernel

    def winograd_weight_count(self, tile: int) -> int:
        """Winograd-domain weight count ``|W|`` for tile size ``T``."""
        return self.in_channels * self.out_channels * tile * tile

    def tiles_per_image(self, m: int) -> int:
        """Number of ``T x T`` tiles per channel per image (``t``)."""
        return math.ceil(self.out_height / m) * math.ceil(self.out_width / m)

    def input_count(self, batch: int) -> int:
        """Spatial input activations for a batch (elements)."""
        return batch * self.in_channels * self.height * self.width

    def output_count(self, batch: int) -> int:
        """Spatial output activations for a batch (elements)."""
        return batch * self.out_channels * self.out_height * self.out_width

    def direct_macs(self, batch: int) -> int:
        """Multiply-accumulates of direct convolution for a batch."""
        return (
            batch
            * self.out_channels
            * self.in_channels
            * self.out_height
            * self.out_width
            * self.kernel
            * self.kernel
        )

    def with_kernel(self, kernel: int) -> "ConvLayerSpec":
        """The same layer with a different (odd) filter size, padding
        adjusted to preserve the output size (used for the 5x5 sweep of
        paper Fig. 16)."""
        if kernel % 2 == 0:
            raise ValueError(f"kernel must be odd, got {kernel}")
        return replace(self, kernel=kernel, pad=kernel // 2)


def five_layers() -> List[ConvLayerSpec]:
    """The five typical convolution layers of paper Table II.

    Reconstructed (see module docstring): one Early layer with a large
    feature map and small channel count, two Mid layers, two Late layers
    with small feature maps and large weights.
    """
    return [
        ConvLayerSpec("Early", 64, 64, 224, 224),
        ConvLayerSpec("Mid-1", 256, 256, 56, 56),
        ConvLayerSpec("Mid-2", 512, 512, 28, 28),
        ConvLayerSpec("Late-1", 512, 512, 14, 14),
        ConvLayerSpec("Late-2", 512, 512, 7, 7),
    ]


def early_layer() -> ConvLayerSpec:
    """The Table II Early layer (used alone in paper Fig. 6)."""
    return five_layers()[0]


def late_layer() -> ConvLayerSpec:
    """The Table II Late layer (used alone in paper Fig. 6)."""
    return five_layers()[4]
