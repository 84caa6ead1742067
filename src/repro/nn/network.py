"""Network containers: sequential stacks and fractal blocks.

The fractal block implements both join variants of paper Section VII-A:

* ``join_mode="spatial"`` — each branch inverse-transforms to the spatial
  domain, the join averages spatial maps (standard FractalNet).
* ``join_mode="winograd"`` — the *modified join* (Fig. 14): branch outputs
  are averaged as Winograd-domain tiles and inverse-transformed once,
  which removes per-branch tile gathers on the MPT architecture.  Because
  the join and the inverse transform are both linear the two variants are
  mathematically identical; Fig. 14 demonstrates equal validation
  accuracy, which we reproduce.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from .layers import Layer, ReLU, WinogradConv2D


class Sequential(Layer):
    """A plain stack of layers."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        super().__init__()
        self.layers: List[Layer] = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def parameters(self) -> Iterable[tuple[Layer, str]]:
        """Yield ``(layer, param_name)`` pairs over the whole tree."""
        for layer in self.layers:
            if isinstance(layer, (Sequential, FractalJoin2)):
                yield from layer.parameters()
            else:
                for name in layer.params:
                    yield layer, name

    def param_count(self) -> int:
        return sum(layer.params[name].size for layer, name in self.parameters())


class FractalJoin2(Layer):
    """A two-branch fractal join: ``mean(branch_a(x), branch_b(x))`` + ReLU.

    ``branch_a`` is the "shallow" column (a single Winograd conv) and
    ``branch_b`` the "deep" column (any sub-network whose final layer is a
    Winograd conv).  With ``join_mode="winograd"`` both final convolutions
    stay in the Winograd domain and only the averaged tiles are
    inverse-transformed (paper Fig. 14a, right side).
    """

    def __init__(
        self,
        shallow: WinogradConv2D,
        deep_prefix: Sequential,
        deep_last: WinogradConv2D,
        join_mode: str = "spatial",
    ) -> None:
        super().__init__()
        if join_mode not in ("spatial", "winograd"):
            raise ValueError(f"unknown join_mode {join_mode!r}")
        self.join_mode = join_mode
        self.shallow = shallow
        self.deep_prefix = deep_prefix
        self.deep_last = deep_last
        self.relu = ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        deep_mid = self.deep_prefix.forward(x)
        if self.join_mode == "spatial":
            a = self.shallow.forward(x)
            b = self.deep_last.forward(deep_mid)
            joined = 0.5 * (a + b)
        else:
            tiles_a = self.shallow.forward_tiles(x)
            tiles_b = self.deep_last.forward_tiles(deep_mid)
            mean_tiles = 0.5 * (tiles_a + tiles_b)
            transform = self.shallow.transform
            out_tiles = transform.inverse_transform(mean_tiles)
            from ..winograd.tiling import assemble_output

            joined = assemble_output(out_tiles, self.shallow._cache.grid)
        return self.relu.forward(joined)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dj = self.relu.backward(dy)
        if self.join_mode == "spatial":
            da = self.shallow.backward(0.5 * dj)
            d_mid = self.deep_last.backward(0.5 * dj)
        else:
            from ..winograd.tiling import assemble_output_adjoint

            grid = self.shallow._cache.grid
            d_out_tiles = assemble_output_adjoint(dj, grid)
            transform = self.shallow.transform
            d_mean_tiles = transform.inverse_transform_transposed(d_out_tiles)
            da = self.shallow.backward_tiles(0.5 * d_mean_tiles)
            d_mid = self.deep_last.backward_tiles(0.5 * d_mean_tiles)
        dx_deep = self.deep_prefix.backward(d_mid)
        return da + dx_deep

    def zero_grads(self) -> None:
        self.shallow.zero_grads()
        self.deep_prefix.zero_grads()
        self.deep_last.zero_grads()

    def parameters(self) -> Iterable[tuple[Layer, str]]:
        for name in self.shallow.params:
            yield self.shallow, name
        yield from self.deep_prefix.parameters()
        for name in self.deep_last.params:
            yield self.deep_last, name
