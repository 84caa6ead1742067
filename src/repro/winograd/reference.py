"""Loop-level reference implementations of the Winograd hot paths.

These spell out the paper's per-element formulation — ``T^2``
independent matrix products (Equation 2) and per-tile extraction /
assembly — exactly as written, one tile element or one tile per Python
step, on the same element-major layout as the production kernels.  The
production kernels in :mod:`repro.winograd.conv` and
:mod:`repro.winograd.tiling` compute the same quantities with single
batched ``matmul``/stride-tricks calls; the golden-equivalence tests in
``tests/winograd/test_golden_equivalence.py`` pin the two against each
other across odd shapes, so any future de-vectorization or indexing
regression is caught by a direct numeric diff.

Nothing here is exported through the package ``__init__``: these exist
for validation and for readers who want the paper's notation verbatim,
not for use in sweeps.
"""

from __future__ import annotations

import numpy as np

from ..contracts import TILE_GEOMETRY, cost, shaped
from .tiling import TileGrid, _padded_canvas


@shaped("(T,T,B,TH,TW,I), (T,T,I,J) -> (T,T,B,TH,TW,J)")
@cost(flops="2*B*I*J*TH*TW*T**2", mem="12*B*J*TH*TW*T**2")
def elementwise_matmul_reference(
    tiles: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Equation 2 as the literal loop over the ``T^2`` tile elements:
    ``Y(u,v) = X(u,v) @ W(u,v)`` for each ``(u, v)``."""
    t, _, batch, tiles_h, tiles_w, _ = tiles.shape
    out_ch = weights.shape[3]
    out = np.zeros(
        (t, t, batch, tiles_h, tiles_w, out_ch),
        dtype=np.result_type(tiles.dtype, weights.dtype),
    )
    for u in range(t):
        for v in range(t):
            out[u, v] = tiles[u, v] @ weights[u, v]  # (B, th, tw, I) @ (I, J)
    return out


@shaped("(T,T,B,TH,TW,J), (T,T,I,J) -> (T,T,B,TH,TW,I)")
@cost(flops="2*B*I*J*TH*TW*T**2", mem="12*B*I*TH*TW*T**2")
def elementwise_matmul_transposed_reference(
    tiles_grad: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """``dX(u,v) = dY(u,v) @ W(u,v)^T`` per tile element."""
    t, _, batch, tiles_h, tiles_w, _ = tiles_grad.shape
    in_ch = weights.shape[2]
    out = np.zeros(
        (t, t, batch, tiles_h, tiles_w, in_ch),
        dtype=np.result_type(tiles_grad.dtype, weights.dtype),
    )
    for u in range(t):
        for v in range(t):
            out[u, v] = tiles_grad[u, v] @ weights[u, v].T
    return out


@shaped("(T,T,B,TH,TW,I), (T,T,B,TH,TW,J) -> (T,T,I,J)")
@cost(flops="2*B*I*J*TH*TW*T**2", mem="12*I*J*T**2")
def elementwise_weight_grad_reference(
    tiles: np.ndarray, tiles_grad: np.ndarray
) -> np.ndarray:
    """``dW(u,v) = X(u,v)^T @ dY(u,v)`` summed over batch and tiles,
    per tile element."""
    t, _, batch, tiles_h, tiles_w, in_ch = tiles.shape
    out_ch = tiles_grad.shape[5]
    n = batch * tiles_h * tiles_w
    grad = np.zeros(
        (t, t, in_ch, out_ch),
        dtype=np.result_type(tiles.dtype, tiles_grad.dtype),
    )
    for u in range(t):
        for v in range(t):
            grad[u, v] = tiles[u, v].reshape(n, in_ch).T @ tiles_grad[
                u, v
            ].reshape(n, out_ch)
    return grad


@shaped("(B,C,H,W), _ -> (T,T,B,TH,TW,C)")
@cost(mem="4*B*C*(PH*PW + H*W + 2*TH*TW*T**2)", where=TILE_GEOMETRY)
def extract_tiles_reference(x: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Per-tile copy loop matching :func:`repro.winograd.tiling.extract_tiles`."""
    if x.shape[2] != grid.height or x.shape[3] != grid.width:
        raise ValueError(f"input shape {x.shape} does not match grid {grid}")
    canvas = _padded_canvas(x, grid)
    t, m = grid.tile, grid.m
    batch, channels = x.shape[0], x.shape[1]
    tiles = np.zeros(
        (t, t, batch, grid.tiles_high, grid.tiles_wide, channels), dtype=x.dtype
    )
    for th in range(grid.tiles_high):
        for tw in range(grid.tiles_wide):
            tiles[:, :, :, th, tw] = canvas[
                :, :, th * m : th * m + t, tw * m : tw * m + t
            ].transpose(2, 3, 0, 1)
    return tiles


@shaped("(T,T,B,TH,TW,C), _ -> (B,C,H,W)")
@cost(mem="4*B*C*(PH*PW + TH*TW*T**2)", where=TILE_GEOMETRY)
def extract_tiles_adjoint_reference(
    d_tiles: np.ndarray, grid: TileGrid
) -> np.ndarray:
    """Per-tile overlap-add loop matching
    :func:`repro.winograd.tiling.extract_tiles_adjoint`."""
    t, _, batch, _, _, channels = d_tiles.shape
    m = grid.m
    canvas = np.zeros(
        (batch, channels, grid.padded_height, grid.padded_width),
        dtype=d_tiles.dtype,
    )
    for th in range(grid.tiles_high):
        for tw in range(grid.tiles_wide):
            canvas[:, :, th * m : th * m + t, tw * m : tw * m + t] += d_tiles[
                :, :, :, th, tw
            ].transpose(2, 3, 0, 1)
    return canvas[
        :, :, grid.pad : grid.pad + grid.height, grid.pad : grid.pad + grid.width
    ]


@shaped("(M,M,B,TH,TW,C), _ -> (B,C,OH,OW)")
@cost(mem="8*B*C*TH*TW*M**2", where=TILE_GEOMETRY)
def assemble_output_reference(out_tiles: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Per-tile placement loop matching
    :func:`repro.winograd.tiling.assemble_output`."""
    m, _, batch, _, _, channels = out_tiles.shape
    full = np.zeros(
        (batch, channels, grid.tiles_high * m, grid.tiles_wide * m),
        dtype=out_tiles.dtype,
    )
    for th in range(grid.tiles_high):
        for tw in range(grid.tiles_wide):
            full[:, :, th * m : (th + 1) * m, tw * m : (tw + 1) * m] = out_tiles[
                :, :, :, th, tw
            ].transpose(2, 3, 0, 1)
    return full[:, :, : grid.out_height, : grid.out_width]


@shaped("(B,C,OH,OW), _ -> (M,M,B,TH,TW,C)")
@cost(mem="4*B*C*(3*TH*TW*M**2 + OH*OW)", where=TILE_GEOMETRY)
def assemble_output_adjoint_reference(dy: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Per-tile cut loop matching
    :func:`repro.winograd.tiling.assemble_output_adjoint`."""
    batch, channels = dy.shape[0], dy.shape[1]
    m = grid.m
    full = np.zeros(
        (batch, channels, grid.tiles_high * m, grid.tiles_wide * m), dtype=dy.dtype
    )
    full[:, :, : grid.out_height, : grid.out_width] = dy
    tiles = np.zeros(
        (m, m, batch, grid.tiles_high, grid.tiles_wide, channels), dtype=dy.dtype
    )
    for th in range(grid.tiles_high):
        for tw in range(grid.tiles_wide):
            tiles[:, :, :, th, tw] = full[
                :, :, th * m : (th + 1) * m, tw * m : (tw + 1) * m
            ].transpose(2, 3, 0, 1)
    return tiles
