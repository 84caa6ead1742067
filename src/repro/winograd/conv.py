"""Winograd-domain convolution: forward, backward and weight update.

Two weight representations are supported, matching paper Figure 2:

* **Spatial weights** (Fig. 2a): weights live in the spatial domain as
  ``(J, I, r, r)``; each phase transforms them with ``G . G^T`` and
  gradients are brought back with the transposed transform.
* **Winograd layer** (Fig. 2b, [29]): weights live permanently in the
  Winograd domain as ``(J, I, T, T)`` and are updated there, eliminating
  the weight transforms from the training loop.  This is the form the
  paper's MPT architecture trains (``update W`` in Table IV).

The element-wise dot product of paper Equation 2 is implemented as ``T^2``
independent batched matrix multiplications — exactly the *intra-tile
parallelism* that MPT distributes across worker groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import TILE_GEOMETRY, cost, shaped
from .cook_toom import WinogradTransform, make_transform
from .tiling import (
    TileGrid,
    assemble_output,
    assemble_output_adjoint,
    extract_tiles,
    extract_tiles_adjoint,
)


@shaped("(B,I,TH,TW,T,T), (J,I,T,T) -> (B,J,TH,TW,T,T)")
@cost(flops="2*B*I*J*TH*TW*T**2", mem="8*B*J*TH*TW*T**2")
def elementwise_matmul(tiles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The ``T^2`` independent matrix products of paper Equation 2.

    Parameters
    ----------
    tiles:
        Winograd-domain input tiles ``(B, I, th, tw, T, T)``.
    weights:
        Winograd-domain weights ``(J, I, T, T)``.

    Returns
    -------
    np.ndarray
        Winograd-domain output tiles ``(B, J, th, tw, T, T)``.
    """
    batch, in_ch, tiles_h, tiles_w, t, _ = tiles.shape
    out_ch = weights.shape[0]
    # (u,v)-major batched GEMM: for each tile element, (B*t tiles, I) @ (I, J)
    lhs = tiles.transpose(4, 5, 0, 2, 3, 1).reshape(t * t, -1, in_ch)
    rhs = weights.transpose(2, 3, 1, 0).reshape(t * t, in_ch, out_ch)
    out = np.matmul(lhs, rhs)  # (T^2, B*tiles, J)
    out = out.reshape(t, t, batch, tiles_h, tiles_w, out_ch)
    return np.ascontiguousarray(out.transpose(2, 5, 3, 4, 0, 1))


@shaped("(B,J,TH,TW,T,T), (J,I,T,T) -> (B,I,TH,TW,T,T)")
@cost(flops="2*B*I*J*TH*TW*T**2", mem="8*B*I*TH*TW*T**2")
def elementwise_matmul_transposed(tiles_grad: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Backward-to-input of :func:`elementwise_matmul`:
    ``dX(u,v) = dY(u,v) @ W(u,v)^T``."""
    batch, out_ch, tiles_h, tiles_w, t, _ = tiles_grad.shape
    in_ch = weights.shape[1]
    lhs = tiles_grad.transpose(4, 5, 0, 2, 3, 1).reshape(t * t, -1, out_ch)
    rhs = weights.transpose(2, 3, 0, 1).reshape(t * t, out_ch, in_ch)
    out = np.matmul(lhs, rhs)
    out = out.reshape(t, t, batch, tiles_h, tiles_w, in_ch)
    return np.ascontiguousarray(out.transpose(2, 5, 3, 4, 0, 1))


@shaped("(B,I,TH,TW,T,T), (B,J,TH,TW,T,T) -> (J,I,T,T)")
@cost(flops="2*B*I*J*TH*TW*T**2", mem="8*I*J*T**2")
def elementwise_weight_grad(tiles: np.ndarray, tiles_grad: np.ndarray) -> np.ndarray:
    """Winograd-domain weight gradient:
    ``dW(u,v) = X(u,v)^T @ dY(u,v)`` summed over batch and tiles."""
    batch, in_ch, tiles_h, tiles_w, t, _ = tiles.shape
    out_ch = tiles_grad.shape[1]
    lhs = tiles.transpose(4, 5, 1, 0, 2, 3).reshape(t * t, in_ch, -1)
    rhs = tiles_grad.transpose(4, 5, 0, 2, 3, 1).reshape(t * t, -1, out_ch)
    grad = np.matmul(lhs, rhs)  # (T^2, I, J)
    grad = grad.reshape(t, t, in_ch, out_ch)
    return np.ascontiguousarray(grad.transpose(3, 2, 0, 1))


@dataclass
class WinogradConvCache:
    """Forward-pass state needed by the backward pass."""

    input_tiles: np.ndarray  # Winograd-domain X, (B, I, th, tw, T, T)
    grid: TileGrid


@shaped("(B,I,H,W), (J,I,T,T), _, P -> (B,J,H+2*P-R+1,W+2*P-R+1), _")
@cost(
    flops="4*B*I*TH*TW*T**3 + 2*B*I*J*TH*TW*T**2 + 2*B*J*TH*TW*M*T*(M+T)",
    mem=(
        "4*B*I*(PH*PW + H*W + TH*TW*T**2) + 8*B*I*TH*TW*T**2"
        " + 8*B*J*TH*TW*T**2 + 4*B*J*TH*TW*M*(M+T) + 4*B*J*OH*OW"
    ),
    where=TILE_GEOMETRY,
)
def winograd_forward(
    x: np.ndarray,
    weights_wd: np.ndarray,
    transform: WinogradTransform,
    pad: int = 0,
) -> tuple[np.ndarray, WinogradConvCache]:
    """Forward propagation with Winograd-domain weights.

    Parameters
    ----------
    x:
        Inputs ``(B, I, H, W)``.
    weights_wd:
        Winograd-domain weights ``(J, I, T, T)``.
    transform:
        The ``F(m, r)`` transform to use.
    pad:
        Symmetric zero padding.

    Returns
    -------
    tuple
        ``(y, cache)`` with ``y`` of shape ``(B, J, H_out, W_out)`` and the
        cache required by the backward functions.
    """
    if weights_wd.shape[-1] != transform.tile:
        raise ValueError(
            f"weights last dim {weights_wd.shape[-1]} != tile {transform.tile}"
        )
    grid = TileGrid(
        height=x.shape[2], width=x.shape[3], pad=pad, m=transform.m, r=transform.r
    )
    spatial_tiles = extract_tiles(x, grid)
    input_tiles = transform.transform_input(spatial_tiles)
    out_tiles_wd = elementwise_matmul(input_tiles, weights_wd)
    out_tiles = transform.inverse_transform(out_tiles_wd)
    y = assemble_output(out_tiles, grid)
    return y, WinogradConvCache(input_tiles=input_tiles, grid=grid)


@shaped("(B,J,OH,OW), (J,I,T,T), _, _ -> (B,I,H,W), (J,I,T,T)")
@cost(
    flops="2*B*J*TH*TW*M*T*(M+T) + 4*B*I*J*TH*TW*T**2 + 4*B*I*TH*TW*T**3",
    mem=(
        "4*B*J*(2*TH*TW*M**2 + OH*OW) + 4*B*J*TH*TW*T*(M+T) + 8*I*J*T**2"
        " + 16*B*I*TH*TW*T**2 + 4*B*I*(PH*PW + TH*TW*T**2)"
    ),
    where=TILE_GEOMETRY,
)
def winograd_backward(
    dy: np.ndarray,
    weights_wd: np.ndarray,
    transform: WinogradTransform,
    cache: WinogradConvCache,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward propagation and Winograd-domain weight gradient.

    Returns ``(dx, dW)`` where ``dx`` matches the forward input shape and
    ``dW`` has shape ``(J, I, T, T)`` — the quantity MPT all-reduces within
    each worker group.
    """
    grid = cache.grid
    dy_tiles = assemble_output_adjoint(dy, grid)
    dy_tiles_wd = transform.inverse_transform_transposed(dy_tiles)
    dw_wd = elementwise_weight_grad(cache.input_tiles, dy_tiles_wd)
    dx_tiles_wd = elementwise_matmul_transposed(dy_tiles_wd, weights_wd)
    dx_tiles = transform.transform_input_transposed(dx_tiles_wd)
    dx = extract_tiles_adjoint(dx_tiles, grid)
    return dx, dw_wd


@shaped("(B,I,H,W), (J,I,R,R), _, P -> (B,J,H+2*P-R+1,W+2*P-R+1), _")
@cost(
    flops=(
        "2*I*J*R*T*(R+T) + 4*B*I*TH*TW*T**3 + 2*B*I*J*TH*TW*T**2"
        " + 2*B*J*TH*TW*M*T*(M+T)"
    ),
    mem=(
        "4*I*J*T*(R+T) + 4*B*I*(PH*PW + H*W + TH*TW*T**2)"
        " + 8*B*I*TH*TW*T**2 + 8*B*J*TH*TW*T**2 + 4*B*J*TH*TW*M*(M+T)"
        " + 4*B*J*OH*OW"
    ),
    where=TILE_GEOMETRY,
)
def winograd_forward_spatial(
    x: np.ndarray,
    w: np.ndarray,
    transform: WinogradTransform,
    pad: int = 0,
) -> tuple[np.ndarray, WinogradConvCache]:
    """Forward propagation with spatial weights (paper Fig. 2a)."""
    return winograd_forward(x, transform.transform_weight(w), transform, pad)


@shaped("(B,J,OH,OW), (J,I,R,R), _, _ -> (B,I,H,W), (J,I,R,R)")
@cost(
    flops=(
        "4*I*J*R*T*(R+T) + 2*B*J*TH*TW*M*T*(M+T) + 4*B*I*J*TH*TW*T**2"
        " + 4*B*I*TH*TW*T**3"
    ),
    mem=(
        "4*I*J*T*(R+T) + 4*I*J*R*(R+T) + 4*B*J*(2*TH*TW*M**2 + OH*OW)"
        " + 4*B*J*TH*TW*T*(M+T) + 8*I*J*T**2 + 16*B*I*TH*TW*T**2"
        " + 4*B*I*(PH*PW + TH*TW*T**2)"
    ),
    where=TILE_GEOMETRY,
)
def winograd_backward_spatial(
    dy: np.ndarray,
    w: np.ndarray,
    transform: WinogradTransform,
    cache: WinogradConvCache,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward pass for spatial weights; returns ``(dx, dw)`` with ``dw``
    of shape ``(J, I, r, r)``."""
    dx, dw_wd = winograd_backward(dy, transform.transform_weight(w), transform, cache)
    return dx, transform.transform_weight_transposed(dw_wd)


@shaped("(J,I,R,R), _ -> (J,I,T,T)")
@cost(flops="2*I*J*R*T*(R+T)", mem="4*I*J*T*(R+T)", where="T=M+R-1")
def spatial_to_winograd(w: np.ndarray, transform: WinogradTransform) -> np.ndarray:
    """Lift spatial weights ``(J, I, r, r)`` into the Winograd domain."""
    return transform.transform_weight(w)


@shaped("(...,T,T), _ -> (...,R,R)")
def winograd_to_spatial_lstsq(
    weights_wd: np.ndarray, transform: WinogradTransform
) -> np.ndarray:
    """Least-squares projection of Winograd-domain weights back to spatial.

    Winograd-domain weights have ``T^2`` free parameters versus ``r^2``
    spatial ones, so the map is not invertible; this returns the spatial
    weights whose lifting is closest in Frobenius norm.  Useful for
    inspecting what a trained Winograd layer has learned.
    """
    g = transform.G
    # Solve min_w || G w G^T - W ||_F  ==>  w = G^+ W (G^T)^+
    g_pinv = np.linalg.pinv(g)
    out = np.tensordot(weights_wd, g_pinv, axes=([-2], [1]))
    out = np.tensordot(out, g_pinv, axes=([-2], [1]))
    return out


def default_transform_for(r: int, groups: int = 1) -> WinogradTransform:
    """The transform the paper pairs with a given weight size.

    ``F(2x2, r x r)`` when intra-tile parallelism is in use (smaller
    Winograd-domain weights), ``F(4x4, 3x3)`` for single-group data
    parallelism (more computation saving) — see Section VII-A.
    """
    if groups > 1:
        return make_transform(2, r)
    if r == 3:
        return make_transform(4, 3)
    return make_transform(2, r)
