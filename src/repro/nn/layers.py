"""Minimal trainable layer library built on the Winograd substrate.

Implements the layers the paper's workloads need: direct and Winograd
convolutions (the latter with weights trained in the Winograd domain, i.e.
the *Winograd layer* of Fig. 2b), ReLU, pooling, dense, and the FractalNet
join in both its standard (spatial) and modified (Winograd-domain,
Section VII-A / Fig. 14) forms.

All layers expose ``forward(x) -> y`` and ``backward(dy) -> dx`` and
accumulate parameter gradients in ``.grads`` keyed like ``.params``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..contracts import shaped
from ..winograd import (
    WinogradTransform,
    conv2d_backward_input,
    conv2d_backward_weight,
    conv2d_forward,
    spatial_to_winograd,
    winograd_backward,
    winograd_backward_tiles,
    winograd_forward,
    winograd_forward_tiles,
)


class Layer:
    """Base class: stateless by default, with empty parameter dicts."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grads(self) -> None:
        for key in self.grads:
            self.grads[key] = np.zeros_like(self.grads[key])


def _he_init(shape: tuple, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


class Conv2D(Layer):
    """Direct stride-1 convolution with spatial weights ``(J, I, r, r)``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        pad: int = 1,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.pad = pad
        fan_in = in_channels * kernel * kernel
        self.params["w"] = _he_init(
            (out_channels, in_channels, kernel, kernel), fan_in, rng
        )
        self.grads["w"] = np.zeros_like(self.params["w"])
        self._x: Optional[np.ndarray] = None

    @shaped("(B,I,H,W) -> (B,J,OH,OW)")
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return conv2d_forward(x, self.params["w"], self.pad)

    @shaped("(B,J,OH,OW) -> (B,I,H,W)")
    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward called before forward"
        self.grads["w"] += conv2d_backward_weight(self._x, dy, self.pad)
        return conv2d_backward_input(
            dy, self.params["w"], self.pad, self._x.shape[2:]
        )


class WinogradConv2D(Layer):
    """The Winograd layer (paper Fig. 2b): weights live in the Winograd
    domain ``(T, T, I, J)`` and are updated there.

    Initialisation lifts a He-initialised spatial kernel with
    ``G w G^T`` so training starts from a conventional operating point
    (as in [29]).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        transform: WinogradTransform,
        pad: int = 1,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.transform = transform
        self.pad = pad
        fan_in = in_channels * transform.r * transform.r
        spatial = _he_init(
            (out_channels, in_channels, transform.r, transform.r), fan_in, rng
        )
        self.params["W"] = spatial_to_winograd(spatial, transform)
        self.grads["W"] = np.zeros_like(self.params["W"])
        self._cache = None

    @shaped("(B,I,H,W) -> (B,J,OH,OW)")
    def forward(self, x: np.ndarray) -> np.ndarray:
        y, self._cache = winograd_forward(x, self.params["W"], self.transform, self.pad)
        return y

    @shaped("(B,J,OH,OW) -> (B,I,H,W)")
    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward called before forward"
        dx, dw = winograd_backward(dy, self.params["W"], self.transform, self._cache)
        self.grads["W"] += dw
        return dx

    @shaped("(B,I,H,W) -> (T,T,B,TH,TW,J)")
    def forward_tiles(self, x: np.ndarray) -> np.ndarray:
        """Forward pass that stops in the Winograd domain, returning output
        tiles ``(T, T, B, th, tw, J)`` *before* the inverse transform.

        Used by the modified FractalNet join (Section VII-A), which
        averages branches in the Winograd domain and inverse-transforms
        once.
        """
        out_tiles, self._cache = winograd_forward_tiles(
            x, self.params["W"], self.transform, self.pad
        )
        return out_tiles

    @shaped("(T,T,B,TH,TW,J) -> (B,I,H,W)")
    def backward_tiles(self, d_out_tiles: np.ndarray) -> np.ndarray:
        """Backward counterpart of :meth:`forward_tiles`: takes the
        gradient w.r.t. the Winograd-domain output tiles."""
        assert self._cache is not None, "backward_tiles called before forward_tiles"
        dx, dw = winograd_backward_tiles(
            d_out_tiles, self.params["W"], self.transform, self._cache
        )
        self.grads["W"] += dw
        return dx


class ReLU(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    @shaped("(...) -> (...)")
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    @shaped("(...) -> (...)")
    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return dy * self._mask


class MaxPool2x2(Layer):
    """2x2 max pooling with stride 2 (input sizes must be even)."""

    def __init__(self) -> None:
        super().__init__()
        self._argmax: Optional[np.ndarray] = None
        self._shape: Optional[tuple] = None

    @shaped("(B,C,2*HH,2*WW) -> (B,C,HH,WW)")
    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"MaxPool2x2 needs even spatial size, got {h}x{w}")
        self._shape = x.shape
        blocks = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
        flat = blocks.reshape(b, c, h // 2, w // 2, 4)
        self._argmax = flat.argmax(axis=-1)
        return flat.max(axis=-1)

    @shaped("(B,C,HH,WW) -> (B,C,2*HH,2*WW)")
    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._shape is not None and self._argmax is not None
        b, c, h, w = self._shape
        flat = np.zeros((b, c, h // 2, w // 2, 4), dtype=dy.dtype)
        np.put_along_axis(flat, self._argmax[..., None], dy[..., None], axis=-1)
        blocks = flat.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return blocks.reshape(b, c, h, w)


class GlobalAvgPool(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[tuple] = None

    @shaped("(B,C,H,W) -> (B,C)")
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    @shaped("(B,C) -> (B,C,H,W)")
    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._shape is not None
        b, c, h, w = self._shape
        return np.broadcast_to(dy[:, :, None, None], self._shape) / (h * w)


class Dense(Layer):
    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.params["w"] = _he_init((in_features, out_features), in_features, rng)
        self.params["b"] = np.zeros(out_features)
        self.grads["w"] = np.zeros_like(self.params["w"])
        self.grads["b"] = np.zeros_like(self.params["b"])
        self._x: Optional[np.ndarray] = None

    @shaped("(B,F) -> (B,G)")
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.params["w"] + self.params["b"]

    @shaped("(B,G) -> (B,F)")
    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._x is not None
        self.grads["w"] += self._x.T @ dy
        self.grads["b"] += dy.sum(axis=0)
        return dy @ self.params["w"].T
