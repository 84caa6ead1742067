"""Winograd-domain convolution: forward, backward and weight update.

Two weight representations are supported, matching paper Figure 2:

* **Spatial weights** (Fig. 2a): weights live in the spatial domain as
  ``(J, I, r, r)``; each phase transforms them with ``G . G^T`` and
  gradients are brought back with the transposed transform.
* **Winograd layer** (Fig. 2b, [29]): weights live permanently in the
  Winograd domain as ``(T, T, I, J)`` and are updated there, eliminating
  the weight transforms from the training loop.  This is the form the
  paper's MPT architecture trains (``update W`` in Table IV).

The element-wise dot product of paper Equation 2 is implemented as ``T^2``
independent batched matrix multiplications — exactly the *intra-tile
parallelism* that MPT distributes across worker groups.  Tiles and
weights are element-major (see :mod:`.tiling`), so each kernel is a bare
``np.matmul`` on contiguous ``(T^2, N, C)`` operands.

Each pass is written once: :func:`winograd_forward_tiles` and
:func:`winograd_backward_tiles` meet in the Winograd domain (the modified
FractalNet join of Section VII-A calls them directly), and
:func:`winograd_forward`/:func:`winograd_backward` add the output side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import TILE_GEOMETRY, cost, shaped
from .cook_toom import WinogradTransform, _sandwich
from .tiling import (
    TileGrid,
    assemble_output,
    assemble_output_adjoint,
    extract_tiles,
    extract_tiles_adjoint,
)


@shaped("(T,T,B,TH,TW,I), (T,T,I,J) -> (T,T,B,TH,TW,J)")
@cost(flops="2*B*I*J*TH*TW*T**2", mem="4*B*J*TH*TW*T**2")
def elementwise_matmul(tiles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The ``T^2`` independent matrix products of paper Equation 2.

    Parameters
    ----------
    tiles:
        Winograd-domain input tiles ``(T, T, B, th, tw, I)``.
    weights:
        Winograd-domain weights ``(T, T, I, J)``.

    Returns
    -------
    np.ndarray
        Winograd-domain output tiles ``(T, T, B, th, tw, J)``: for each
        tile element, ``(B*th*tw, I) @ (I, J)``.
    """
    t, _, batch, tiles_h, tiles_w, in_ch = tiles.shape
    out_ch = weights.shape[3]
    out = np.matmul(
        tiles.reshape(t * t, batch * tiles_h * tiles_w, in_ch),
        weights.reshape(t * t, in_ch, out_ch),
    )
    return out.reshape(t, t, batch, tiles_h, tiles_w, out_ch)


@shaped("(T,T,B,TH,TW,J), (T,T,I,J) -> (T,T,B,TH,TW,I)")
@cost(flops="2*B*I*J*TH*TW*T**2", mem="4*I*T**2*(J + B*TH*TW)")
def elementwise_matmul_transposed(tiles_grad: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Backward-to-input of :func:`elementwise_matmul`:
    ``dX(u,v) = dY(u,v) @ W(u,v)^T``."""
    t, _, batch, tiles_h, tiles_w, out_ch = tiles_grad.shape
    in_ch = weights.shape[2]
    # W^T is only T^2*I*J values: one contiguous copy feeds the GEMMs.
    weights_t = np.ascontiguousarray(
        weights.reshape(t * t, in_ch, out_ch).transpose(0, 2, 1)
    )
    out = np.matmul(
        tiles_grad.reshape(t * t, batch * tiles_h * tiles_w, out_ch), weights_t
    )
    return out.reshape(t, t, batch, tiles_h, tiles_w, in_ch)


@shaped("(T,T,B,TH,TW,I), (T,T,B,TH,TW,J) -> (T,T,I,J)")
@cost(flops="2*B*I*J*TH*TW*T**2", mem="4*I*J*T**2")
def elementwise_weight_grad(tiles: np.ndarray, tiles_grad: np.ndarray) -> np.ndarray:
    """Winograd-domain weight gradient:
    ``dW(u,v) = X(u,v)^T @ dY(u,v)`` summed over batch and tiles."""
    t, _, batch, tiles_h, tiles_w, in_ch = tiles.shape
    out_ch = tiles_grad.shape[5]
    n = batch * tiles_h * tiles_w
    grad = np.matmul(
        tiles.reshape(t * t, n, in_ch).transpose(0, 2, 1),
        tiles_grad.reshape(t * t, n, out_ch),
    )
    return grad.reshape(t, t, in_ch, out_ch)


@dataclass
class WinogradConvCache:
    """Forward-pass state needed by the backward pass."""

    input_tiles: np.ndarray  # Winograd-domain X, (T, T, B, th, tw, I)
    grid: TileGrid


@shaped("(B,I,H,W), (T,T,I,J), _, P -> (T,T,B,TH,TW,J), _")
@cost(
    flops="4*B*I*TH*TW*T**3 + 2*B*I*J*TH*TW*T**2",
    mem=(
        "4*B*I*(PH*PW + H*W + TH*TW*T**2) + 8*B*I*TH*TW*T**2"
        " + 4*B*J*TH*TW*T**2"
    ),
    where=TILE_GEOMETRY,
)
def winograd_forward_tiles(
    x: np.ndarray,
    weights_wd: np.ndarray,
    transform: WinogradTransform,
    pad: int = 0,
) -> tuple[np.ndarray, WinogradConvCache]:
    """First half of :func:`winograd_forward`: stops in the Winograd
    domain, returning the output tiles ``(T, T, B, th, tw, J)`` *before*
    the inverse transform, and the cache the backward pass needs."""
    if weights_wd.shape[:2] != (transform.tile, transform.tile):
        raise ValueError(
            f"weights lead dims {weights_wd.shape[:2]} != tile {transform.tile}"
        )
    grid = TileGrid(
        height=x.shape[2], width=x.shape[3], pad=pad, m=transform.m, r=transform.r
    )
    input_tiles = transform.transform_input(extract_tiles(x, grid))
    out_tiles_wd = elementwise_matmul(input_tiles, weights_wd)
    return out_tiles_wd, WinogradConvCache(input_tiles=input_tiles, grid=grid)


@shaped("(T,T,B,TH,TW,J), (T,T,I,J), _, _ -> (B,I,H,W), (T,T,I,J)")
@cost(
    flops="4*B*I*J*TH*TW*T**2 + 4*B*I*TH*TW*T**3",
    mem=(
        "4*I*J*T**2 + 4*I*T**2*(J + B*TH*TW) + 8*B*I*TH*TW*T**2"
        " + 4*B*I*(PH*PW + TH*TW*T**2)"
    ),
    where=TILE_GEOMETRY,
)
def winograd_backward_tiles(
    d_out_tiles: np.ndarray,
    weights_wd: np.ndarray,
    transform: WinogradTransform,
    cache: WinogradConvCache,
) -> tuple[np.ndarray, np.ndarray]:
    """Second half of :func:`winograd_backward`: takes the gradient with
    respect to the Winograd-domain output tiles and returns ``(dx, dW)``."""
    dw_wd = elementwise_weight_grad(cache.input_tiles, d_out_tiles)
    dx_tiles_wd = elementwise_matmul_transposed(d_out_tiles, weights_wd)
    dx_tiles = transform.transform_input_transposed(dx_tiles_wd)
    return extract_tiles_adjoint(dx_tiles, cache.grid), dw_wd


@shaped("(B,I,H,W), (T,T,I,J), _, P -> (B,J,H+2*P-R+1,W+2*P-R+1), _")
@cost(
    flops="4*B*I*TH*TW*T**3 + 2*B*I*J*TH*TW*T**2 + 2*B*J*TH*TW*M*T*(M+T)",
    mem=(
        "4*B*I*(PH*PW + H*W + TH*TW*T**2) + 8*B*I*TH*TW*T**2"
        " + 4*B*J*TH*TW*T**2 + 4*B*J*TH*TW*M*(M+T) + 4*B*J*OH*OW"
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
        Winograd-domain weights ``(T, T, I, J)``.
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
    out_tiles_wd, cache = winograd_forward_tiles(x, weights_wd, transform, pad)
    y = assemble_output(transform.inverse_transform(out_tiles_wd), cache.grid)
    return y, cache


@shaped("(B,J,OH,OW), (T,T,I,J), _, _ -> (B,I,H,W), (T,T,I,J)")
@cost(
    flops="2*B*J*TH*TW*M*T*(M+T) + 4*B*I*J*TH*TW*T**2 + 4*B*I*TH*TW*T**3",
    mem=(
        "4*B*J*(2*TH*TW*M**2 + OH*OW) + 4*B*J*TH*TW*T*(M+T) + 4*I*J*T**2"
        " + 4*I*T**2*(J + B*TH*TW) + 8*B*I*TH*TW*T**2"
        " + 4*B*I*(PH*PW + TH*TW*T**2)"
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
    ``dW`` has shape ``(T, T, I, J)`` — the quantity MPT all-reduces within
    each worker group.
    """
    dy_tiles = assemble_output_adjoint(dy, cache.grid)
    d_out_tiles = transform.inverse_transform_transposed(dy_tiles)
    return winograd_backward_tiles(d_out_tiles, weights_wd, transform, cache)


@shaped("(B,I,H,W), (J,I,R,R), _, P -> (B,J,H+2*P-R+1,W+2*P-R+1), _")
@cost(
    flops=(
        "2*I*J*R*T*(R+T) + 4*B*I*TH*TW*T**3 + 2*B*I*J*TH*TW*T**2"
        " + 2*B*J*TH*TW*M*T*(M+T)"
    ),
    mem=(
        "4*I*J*T*(R+T) + 4*B*I*(PH*PW + H*W + TH*TW*T**2)"
        " + 8*B*I*TH*TW*T**2 + 4*B*J*TH*TW*T**2 + 4*B*J*TH*TW*M*(M+T)"
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
    return winograd_forward(x, spatial_to_winograd(w, transform), transform, pad)


@shaped("(B,J,OH,OW), (J,I,R,R), _, _ -> (B,I,H,W), (J,I,R,R)")
@cost(
    flops=(
        "4*I*J*R*T*(R+T) + 2*B*J*TH*TW*M*T*(M+T) + 4*B*I*J*TH*TW*T**2"
        " + 4*B*I*TH*TW*T**3"
    ),
    mem=(
        "4*I*J*T*(R+T) + 4*I*J*R*(R+T) + 4*B*J*(2*TH*TW*M**2 + OH*OW)"
        " + 4*B*J*TH*TW*T*(M+T) + 4*I*J*T**2 + 4*I*T**2*(J + B*TH*TW)"
        " + 8*B*I*TH*TW*T**2 + 4*B*I*(PH*PW + TH*TW*T**2)"
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
    dx, dw_wd = winograd_backward(dy, spatial_to_winograd(w, transform), transform, cache)
    return dx, transform.transform_weight_transposed(dw_wd).transpose(3, 2, 0, 1)


@shaped("(J,I,R,R), _ -> (T,T,I,J)")
@cost(flops="2*I*J*R*T*(R+T)", mem="4*I*J*T*(R+T)", where="T=M+R-1")
def spatial_to_winograd(w: np.ndarray, transform: WinogradTransform) -> np.ndarray:
    """Lift spatial weights ``(J, I, r, r)`` into the Winograd domain as
    element-major ``(T, T, I, J)``."""
    return transform.transform_weight(w.transpose(2, 3, 1, 0))


@shaped("(T,T,I,J), _ -> (J,I,R,R)")
def winograd_to_spatial_lstsq(
    weights_wd: np.ndarray, transform: WinogradTransform
) -> np.ndarray:
    """Least-squares projection of Winograd-domain weights back to spatial.

    Winograd-domain weights have ``T^2`` free parameters versus ``r^2``
    spatial ones, so the map is not invertible; this returns the spatial
    weights ``(J, I, r, r)`` whose lifting is closest in Frobenius norm.
    Useful for inspecting what a trained Winograd layer has learned.
    """
    t, _, in_ch, out_ch = weights_wd.shape
    # Solve min_w || G w G^T - W ||_F  ==>  w = G^+ W (G^T)^+
    g_pinv = np.linalg.pinv(transform.G)
    out = _sandwich(g_pinv, weights_wd.reshape(t, t, in_ch * out_ch))
    return out.reshape(transform.r, transform.r, in_ch, out_ch).transpose(3, 2, 0, 1)
