"""Integration: multi-layer distributed MPT network vs single-worker
training, and prediction statistics harvested from a trained network."""

import numpy as np
import pytest

from repro.core import GridConfig
from repro.core.functional import MptLayerMachine, MptNetworkMachine
from repro.winograd import (
    make_transform,
    spatial_to_winograd,
    winograd_backward,
    winograd_forward,
)


def reference_two_layer(x, weights1, weights2, transform, dy):
    """Single-worker forward/backward of conv-relu-conv-relu."""
    y1, cache1 = winograd_forward(x, weights1, transform, 1)
    a1 = np.maximum(y1, 0.0)
    y2, cache2 = winograd_forward(a1, weights2, transform, 1)
    a2 = np.maximum(y2, 0.0)
    d2 = dy * (y2 > 0)
    da1, dw2 = winograd_backward(d2, weights2, transform, cache2)
    d1 = da1 * (y1 > 0)
    dx, dw1 = winograd_backward(d1, weights1, transform, cache1)
    return a2, dx, dw1, dw2


class TestMptNetworkMachine:
    def _build(self, predict=False, ng=4, nc=2, seed=0):
        transform = make_transform(2, 3)
        rng = np.random.default_rng(seed)
        w1 = spatial_to_winograd(rng.standard_normal((4, 3, 3, 3)), transform)
        w2 = spatial_to_winograd(rng.standard_normal((4, 4, 3, 3)), transform)
        grid = GridConfig(ng, nc)
        layers = [
            MptLayerMachine(3, 4, transform, grid, w1, pad=1, predict=predict),
            MptLayerMachine(4, 4, transform, grid, w2, pad=1, predict=predict),
        ]
        return MptNetworkMachine(layers), transform, w1, w2

    def test_two_layer_forward_backward_exact(self):
        net, transform, w1, w2 = self._build()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 3, 8, 8))
        y = net.forward(x)
        dy = rng.standard_normal(y.shape)
        dx = net.backward(dy)
        expected_y, expected_dx, dw1, dw2 = reference_two_layer(
            x, w1, w2, transform, dy
        )
        np.testing.assert_allclose(y, expected_y, atol=1e-9)
        np.testing.assert_allclose(dx, expected_dx, atol=1e-9)
        # Check the reduced gradient slices of layer 1.
        t2 = transform.tile**2
        flat = dw1.reshape(t2, 3, 4)
        for (g, c), worker in net.layers[0].workers.items():
            np.testing.assert_allclose(
                worker.grad, flat[worker.element_ids], atol=1e-8
            )

    def test_update_then_retrain_exact(self):
        net, transform, w1, w2 = self._build(seed=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 3, 8, 8))
        y = net.forward(x)
        dy = rng.standard_normal(y.shape)
        net.backward(dy)
        net.apply_update(0.05)
        _, _, dw1, dw2 = reference_two_layer(x, w1, w2, transform, dy)
        np.testing.assert_allclose(
            net.layers[0].full_weights(), w1 - 0.05 * dw1, atol=1e-9
        )
        np.testing.assert_allclose(
            net.layers[1].full_weights(), w2 - 0.05 * dw2, atol=1e-9
        )

    def test_prediction_mode_output_exact(self):
        plain, _, _, _ = self._build(predict=False, seed=4)
        pred, _, _, _ = self._build(predict=True, seed=4)
        x = np.random.default_rng(5).standard_normal((8, 3, 8, 8)) - 0.3
        np.testing.assert_allclose(
            pred.forward(x), plain.forward(x), atol=1e-10
        )
        assert pred.counters.gather_bytes <= plain.counters.gather_bytes

    def test_mixed_grids_rejected(self):
        transform = make_transform(2, 3)
        w = np.zeros((4, 4, 2, 2))
        with pytest.raises(ValueError):
            MptNetworkMachine(
                [
                    MptLayerMachine(2, 2, transform, GridConfig(4, 2), w),
                    MptLayerMachine(2, 2, transform, GridConfig(2, 4), w),
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MptNetworkMachine([])


class TestTrainedNetworkStatistics:
    def test_trained_sample_predicts_with_no_false_negatives(self):
        from repro.prediction import (
            NonUniformQuantizer,
            QuantizerConfig,
            predict_2d,
        )
        from repro.prediction.statistics import tile_sample_from_network
        from repro.winograd import make_transform

        sample = tile_sample_from_network(samples=32, epochs=1, seed=0)
        tiles = sample.output_tiles_wd
        transform = make_transform(2, 3)
        quantizer = NonUniformQuantizer(
            QuantizerConfig(levels=64, regions=4), float(tiles.std())
        )
        result = predict_2d(tiles, transform, quantizer)
        assert result.false_negatives == 0
        assert 0.0 <= result.predicted_ratio <= result.actual_ratio
