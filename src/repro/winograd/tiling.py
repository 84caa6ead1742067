"""Tile extraction and assembly for tiled Winograd convolution.

An input feature map is decomposed into overlapping ``T x T`` tiles with
stride ``m`` (``T = m + r - 1``); each tile produces an ``m x m`` patch of
the output.  This module implements the forward extraction, the output
assembly, and their adjoints (needed for back-propagation through the
tiling itself).

Feature maps use the layout ``(batch, channel, height, width)``.  Tile
arrays are element-major, ``(T, T, batch, tile_row, tile_col, channel)``
(``(m, m, ...)`` on the output side): element ``(u, v)`` of every tile is
one contiguous ``(batch * tiles, channel)`` block, which is what the
element-wise GEMMs of paper Equation 2 and the intra-tile split of
Section III consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..contracts import TILE_GEOMETRY, cost, shaped


@dataclass(frozen=True)
class TileGrid:
    """Geometry of the tile decomposition of one convolution layer.

    Attributes
    ----------
    height, width:
        Spatial input size (unpadded).
    pad:
        Symmetric zero padding applied to the input.
    m:
        Outputs per tile per dimension.
    r:
        Filter size per dimension.
    """

    height: int
    width: int
    pad: int
    m: int
    r: int

    def __post_init__(self) -> None:
        if self.out_height < 1 or self.out_width < 1:
            raise ValueError(
                f"layer geometry {self.height}x{self.width} pad={self.pad} "
                f"r={self.r} produces an empty output"
            )

    @property
    def tile(self) -> int:
        """Input tile size ``T = m + r - 1``."""
        return self.m + self.r - 1

    @property
    def out_height(self) -> int:
        return self.height + 2 * self.pad - self.r + 1

    @property
    def out_width(self) -> int:
        return self.width + 2 * self.pad - self.r + 1

    @property
    def tiles_high(self) -> int:
        return math.ceil(self.out_height / self.m)

    @property
    def tiles_wide(self) -> int:
        return math.ceil(self.out_width / self.m)

    @property
    def tiles_per_image(self) -> int:
        """Tiles per channel per image (``t`` in the paper)."""
        return self.tiles_high * self.tiles_wide

    @property
    def padded_height(self) -> int:
        """Height of the zero-extended canvas covering every tile."""
        return (self.tiles_high - 1) * self.m + self.tile

    @property
    def padded_width(self) -> int:
        return (self.tiles_wide - 1) * self.m + self.tile


@shaped("(B,C,H,W), _ -> (B,C,PH,PW)")
@cost(mem="4*B*C*(PH*PW + H*W)", where=TILE_GEOMETRY)
def _padded_canvas(x: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Zero-extend ``x`` so that every tile lies fully inside the canvas."""
    batch, channels = x.shape[0], x.shape[1]
    canvas = np.zeros(
        (batch, channels, grid.padded_height, grid.padded_width), dtype=x.dtype
    )
    canvas[:, :, grid.pad : grid.pad + grid.height, grid.pad : grid.pad + grid.width] = x
    return canvas


@shaped("(B,C,H,W), _ -> (T,T,B,TH,TW,C)")
@cost(mem="4*B*C*(PH*PW + H*W + TH*TW*T**2)", where=TILE_GEOMETRY)
def extract_tiles(x: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Cut a feature map into overlapping ``T x T`` tiles with stride ``m``.

    Parameters
    ----------
    x:
        Feature map of shape ``(B, C, H, W)`` matching ``grid``.

    Returns
    -------
    np.ndarray
        Element-major tiles of shape ``(T, T, B, tiles_high, tiles_wide, C)``.
    """
    if x.shape[2] != grid.height or x.shape[3] != grid.width:
        raise ValueError(f"input shape {x.shape} does not match grid {grid}")
    canvas = _padded_canvas(x, grid)
    t, m = grid.tile, grid.m
    view = np.lib.stride_tricks.sliding_window_view(canvas, (t, t), axis=(2, 3))
    return np.ascontiguousarray(view[:, :, ::m, ::m, :, :].transpose(4, 5, 0, 2, 3, 1))


@shaped("(T,T,B,TH,TW,C), _ -> (B,C,H,W)")
@cost(mem="4*B*C*(PH*PW + TH*TW*T**2)", where=TILE_GEOMETRY)
def extract_tiles_adjoint(d_tiles: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Adjoint of :func:`extract_tiles`: overlap-add tile gradients.

    Sums each tile gradient back into the (padded) canvas and crops the
    padding, yielding the gradient with respect to the original map.
    Element ``(u, v)`` of every tile lands on the ``m``-strided canvas
    view at offset ``(u, v)``, so the overlap-add is ``T^2`` strided adds.
    Both loops run downwards: a canvas cell then receives its tiles in
    ascending ``(tile_row, tile_col)`` order, the order of the per-tile
    loop :func:`repro.winograd.reference.extract_tiles_adjoint_reference`,
    so the two agree bit for bit.
    """
    t, _, batch, tiles_high, tiles_wide, channels = d_tiles.shape
    m = grid.m
    canvas = np.zeros(
        (batch, channels, grid.padded_height, grid.padded_width),
        dtype=d_tiles.dtype,
    )
    rows, cols = (tiles_high - 1) * m + 1, (tiles_wide - 1) * m + 1
    for u in range(t - 1, -1, -1):
        for v in range(t - 1, -1, -1):
            canvas[:, :, u : u + rows : m, v : v + cols : m] += d_tiles[
                u, v
            ].transpose(0, 3, 1, 2)
    return canvas[
        :, :, grid.pad : grid.pad + grid.height, grid.pad : grid.pad + grid.width
    ]


def element_major(tiles: np.ndarray) -> np.ndarray:
    """Tile-major ``(..., T, T)`` tiles, any leading rank, as the rank-6
    element-major ``(T, T, N, 1, 1, 1)`` array the 2D transforms take
    (``N`` tiles, in the leading axes' C order)."""
    t1, t2 = tiles.shape[-2:]
    return np.moveaxis(tiles.reshape(-1, 1, 1, 1, t1, t2), (-2, -1), (0, 1))


@shaped("(M,M,B,TH,TW,C), _ -> (B,C,OH,OW)")
@cost(mem="4*B*C*OH*OW", where=TILE_GEOMETRY)
def assemble_output(out_tiles: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Stitch per-tile ``m x m`` outputs into the full output map.

    Tiles never overlap on the output side; trailing tiles that extend past
    the output boundary are cropped.
    """
    m, _, batch, tiles_high, tiles_wide, channels = out_tiles.shape
    # Pure data movement (output tiles never overlap): interleave the
    # tile and intra-tile axes, then crop — bit-identical to placing
    # tiles one by one.
    full = out_tiles.transpose(2, 5, 3, 0, 4, 1).reshape(
        batch, channels, tiles_high * m, tiles_wide * m
    )
    return np.ascontiguousarray(full[:, :, : grid.out_height, : grid.out_width])


@shaped("(B,C,OH,OW), _ -> (M,M,B,TH,TW,C)")
@cost(mem="4*B*C*(2*TH*TW*M**2 + OH*OW)", where=TILE_GEOMETRY)
def assemble_output_adjoint(dy: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Adjoint of :func:`assemble_output`: cut an output gradient into
    non-overlapping ``m x m`` tiles (zero-padding past the boundary)."""
    batch, channels = dy.shape[0], dy.shape[1]
    m = grid.m
    full = np.zeros(
        (batch, channels, grid.tiles_high * m, grid.tiles_wide * m), dtype=dy.dtype
    )
    full[:, :, : grid.out_height, : grid.out_width] = dy
    tiles = full.reshape(
        batch, channels, grid.tiles_high, m, grid.tiles_wide, m
    ).transpose(3, 5, 0, 2, 4, 1)
    return np.ascontiguousarray(tiles)
