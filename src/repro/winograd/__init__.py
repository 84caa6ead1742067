"""Winograd-transform convolution substrate (paper Sections II-B, III-A).

Public surface:

* :func:`make_transform` / :class:`WinogradTransform` — exact Cook-Toom
  construction of ``F(m, r)`` coefficient matrices.
* :class:`TileGrid`, :func:`extract_tiles`, :func:`assemble_output` —
  tile decomposition geometry.
* :func:`winograd_forward` / :func:`winograd_backward` — the Winograd
  layer (weights trained in the Winograd domain), composed of the
  Winograd-domain halves :func:`winograd_forward_tiles` /
  :func:`winograd_backward_tiles`.
* :func:`conv2d_forward` etc. — direct convolution reference.
"""

from .cook_toom import WinogradTransform, make_transform
from .conv import (
    WinogradConvCache,
    elementwise_matmul,
    elementwise_matmul_transposed,
    elementwise_weight_grad,
    spatial_to_winograd,
    winograd_backward,
    winograd_backward_spatial,
    winograd_backward_tiles,
    winograd_forward,
    winograd_forward_spatial,
    winograd_forward_tiles,
    winograd_to_spatial_lstsq,
)
from .direct import (
    conv2d_backward_input,
    conv2d_backward_weight,
    conv2d_forward,
    relu,
    relu_grad,
)
from .conv1d import (
    Conv1dCache,
    TileGrid1D,
    direct_conv1d,
    spatial_to_winograd_1d,
    winograd_backward_1d,
    winograd_forward_1d,
)
from .points import default_points
from .tiling import (
    TileGrid,
    assemble_output,
    assemble_output_adjoint,
    extract_tiles,
    extract_tiles_adjoint,
)

__all__ = [
    "WinogradTransform",
    "make_transform",
    "WinogradConvCache",
    "elementwise_matmul",
    "elementwise_matmul_transposed",
    "elementwise_weight_grad",
    "spatial_to_winograd",
    "winograd_backward",
    "winograd_backward_spatial",
    "winograd_backward_tiles",
    "winograd_forward",
    "winograd_forward_spatial",
    "winograd_forward_tiles",
    "winograd_to_spatial_lstsq",
    "conv2d_backward_input",
    "conv2d_backward_weight",
    "conv2d_forward",
    "relu",
    "relu_grad",
    "default_points",
    "Conv1dCache",
    "TileGrid1D",
    "direct_conv1d",
    "spatial_to_winograd_1d",
    "winograd_backward_1d",
    "winograd_forward_1d",
    "TileGrid",
    "assemble_output",
    "assemble_output_adjoint",
    "extract_tiles",
    "extract_tiles_adjoint",
]
