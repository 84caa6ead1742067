"""Numeric gradient checks for every trainable layer."""

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Dense,
    GlobalAvgPool,
    MaxPool2x2,
    ReLU,
    WinogradConv2D,
)
from repro.winograd import make_transform


def numeric_grad_input(layer, x, dy, idx, eps=1e-6):
    xp, xm = x.copy(), x.copy()
    xp[idx] += eps
    xm[idx] -= eps
    return (np.sum(layer.forward(xp) * dy) - np.sum(layer.forward(xm) * dy)) / (2 * eps)


class TestConv2D:
    def test_forward_shape(self):
        layer = Conv2D(3, 5, rng=np.random.default_rng(0))
        y = layer.forward(np.zeros((2, 3, 8, 8)))
        assert y.shape == (2, 5, 8, 8)

    def test_input_gradient(self):
        rng = np.random.default_rng(1)
        layer = Conv2D(2, 3, rng=rng)
        x = rng.standard_normal((1, 2, 6, 6))
        dy = rng.standard_normal((1, 3, 6, 6))
        layer.forward(x)
        dx = layer.backward(dy)
        for idx in [(0, 0, 2, 2), (0, 1, 5, 0)]:
            assert abs(dx[idx] - numeric_grad_input(layer, x, dy, idx)) < 1e-5

    def test_weight_gradient_accumulates(self):
        rng = np.random.default_rng(2)
        layer = Conv2D(2, 2, rng=rng)
        x = rng.standard_normal((1, 2, 4, 4))
        dy = rng.standard_normal((1, 2, 4, 4))
        layer.forward(x)
        layer.backward(dy)
        first = layer.grads["w"].copy()
        layer.forward(x)
        layer.backward(dy)
        np.testing.assert_allclose(layer.grads["w"], 2 * first)

    def test_zero_grads(self):
        rng = np.random.default_rng(3)
        layer = Conv2D(1, 1, rng=rng)
        layer.forward(rng.standard_normal((1, 1, 4, 4)))
        layer.backward(rng.standard_normal((1, 1, 4, 4)))
        layer.zero_grads()
        assert np.all(layer.grads["w"] == 0)


class TestWinogradConv2D:
    def test_matches_direct_conv_at_init(self):
        """A freshly initialised Winograd layer is the lift of a spatial
        kernel, so its forward equals a direct convolution."""
        rng = np.random.default_rng(4)
        tr = make_transform(2, 3)
        wino = WinogradConv2D(2, 3, tr, rng=np.random.default_rng(7))
        direct = Conv2D(2, 3, rng=np.random.default_rng(7))
        x = rng.standard_normal((1, 2, 8, 8))
        np.testing.assert_allclose(wino.forward(x), direct.forward(x), atol=1e-8)

    def test_input_gradient(self):
        rng = np.random.default_rng(5)
        tr = make_transform(2, 3)
        layer = WinogradConv2D(2, 2, tr, rng=rng)
        x = rng.standard_normal((1, 2, 6, 6))
        dy = rng.standard_normal((1, 2, 6, 6))
        layer.forward(x)
        dx = layer.backward(dy)
        for idx in [(0, 0, 0, 0), (0, 1, 3, 4)]:
            assert abs(dx[idx] - numeric_grad_input(layer, x, dy, idx)) < 1e-5

    def test_weight_gradient_numeric(self):
        rng = np.random.default_rng(6)
        tr = make_transform(2, 3)
        layer = WinogradConv2D(2, 2, tr, rng=rng)
        x = rng.standard_normal((1, 2, 6, 6))
        dy = rng.standard_normal((1, 2, 6, 6))
        layer.forward(x)
        layer.backward(dy)
        eps = 1e-6
        idx = (2, 3, 0, 1)  # (u, v, i, j)
        w0 = layer.params["W"][idx]
        layer.params["W"][idx] = w0 + eps
        up = np.sum(layer.forward(x) * dy)
        layer.params["W"][idx] = w0 - eps
        down = np.sum(layer.forward(x) * dy)
        layer.params["W"][idx] = w0
        assert abs(layer.grads["W"][idx] - (up - down) / (2 * eps)) < 1e-5

    def test_tile_interface_matches_full_forward(self):
        rng = np.random.default_rng(7)
        tr = make_transform(2, 3)
        layer = WinogradConv2D(2, 2, tr, rng=rng)
        x = rng.standard_normal((1, 2, 8, 8))
        full = layer.forward(x)
        tiles = layer.forward_tiles(x)
        from repro.winograd.tiling import assemble_output

        via_tiles = assemble_output(tr.inverse_transform(tiles), layer._cache.grid)
        np.testing.assert_allclose(via_tiles, full, atol=1e-10)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        pooled = MaxPool2x2().forward(x)
        np.testing.assert_array_equal(pooled[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_odd_size_rejected(self):
        with pytest.raises(ValueError):
            MaxPool2x2().forward(np.zeros((1, 1, 5, 4)))

    def test_maxpool_gradient_routes_to_argmax(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer = MaxPool2x2()
        layer.forward(x)
        dx = layer.backward(np.ones((1, 1, 2, 2)))
        assert dx[0, 0, 1, 1] == 1.0  # value 5 is the block max
        assert dx[0, 0, 0, 0] == 0.0
        assert dx.sum() == 4.0

    def test_global_avg_pool_gradient(self):
        rng = np.random.default_rng(8)
        layer = GlobalAvgPool()
        x = rng.standard_normal((2, 3, 4, 4))
        layer.forward(x)
        dx = layer.backward(np.ones((2, 3)))
        np.testing.assert_allclose(dx, np.full_like(x, 1 / 16))


class TestDense:
    def test_gradients_numeric(self):
        rng = np.random.default_rng(9)
        layer = Dense(4, 3, rng=rng)
        x = rng.standard_normal((5, 4))
        dy = rng.standard_normal((5, 3))
        layer.forward(x)
        dx = layer.backward(dy)
        np.testing.assert_allclose(dx, dy @ layer.params["w"].T)
        np.testing.assert_allclose(layer.grads["w"], x.T @ dy)
        np.testing.assert_allclose(layer.grads["b"], dy.sum(axis=0))


class TestReLU:
    def test_backward_uses_forward_mask(self):
        layer = ReLU()
        x = np.array([[-1.0, 2.0, 0.0]])
        layer.forward(x)
        dx = layer.backward(np.array([[5.0, 5.0, 5.0]]))
        np.testing.assert_array_equal(dx, [[0.0, 5.0, 0.0]])
