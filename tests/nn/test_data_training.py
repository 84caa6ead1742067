"""Tests for synthetic datasets and the training loop."""

import numpy as np
import pytest

from repro.nn import (
    train_val_datasets,
    cifar_like,
    evaluate,
    natural_feature_maps,
    small_cnn,
    synthetic_classification,
    train,
)


class TestDatasets:
    def test_shapes_and_labels(self):
        data = synthetic_classification(32, classes=5, channels=3, size=12, seed=0)
        assert data.x.shape == (32, 3, 12, 12)
        assert data.y.shape == (32,)
        assert data.y.max() < 5

    def test_deterministic_by_seed(self):
        a = synthetic_classification(8, seed=3)
        b = synthetic_classification(8, seed=3)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = synthetic_classification(8, seed=3)
        b = synthetic_classification(8, seed=4)
        assert not np.array_equal(a.x, b.x)

    def test_batches_cover_dataset(self):
        data = synthetic_classification(33, seed=0)
        rng = np.random.default_rng(0)
        batches = list(data.batches(8, rng))
        assert len(batches) == 4  # 33 // 8
        assert all(x.shape[0] == 8 for x, _ in batches)

    def test_cifar_like_shape(self):
        data = cifar_like(4)
        assert data.x.shape == (4, 3, 32, 32)

    def test_feature_maps_sparsity_controlled(self):
        maps = natural_feature_maps(2, 4, 16, sparsity=0.7)
        zero_frac = float((maps == 0).mean())
        assert 0.6 < zero_frac < 0.8

    def test_feature_maps_invalid_sparsity(self):
        with pytest.raises(ValueError):
            natural_feature_maps(1, 1, 8, sparsity=1.5)


class TestTraining:
    def test_learns_separable_classes(self):
        """A small CNN must beat chance comfortably on the synthetic set."""
        train_data, val_data = train_val_datasets(192, 64, classes=4, size=12, seed=0)
        net = small_cnn(classes=4, width=8, seed=0)
        before = evaluate(net, val_data)
        curve = train(net, train_data, val_data, epochs=3, batch_size=32, lr=0.05)
        assert curve.val_accuracies[-1] > max(0.5, before)
        assert curve.losses[-1] < curve.losses[0]

    @pytest.mark.parametrize("batch_size", [32, 0, -4])
    def test_batch_size_without_a_full_batch_rejected(self, batch_size):
        """An epoch with no full batch would run no step and record a NaN
        loss; train must refuse it, naming both values."""
        train_data, val_data = train_val_datasets(16, 8, classes=4, size=16, seed=0)
        net = small_cnn(classes=4, width=4, seed=0)
        with pytest.raises(ValueError) as err:
            train(net, train_data, val_data, epochs=1, batch_size=batch_size)
        assert f"batch_size {batch_size}" in str(err.value)
        assert str(len(train_data)) in str(err.value)

    def test_batch_size_equal_to_dataset_trains(self):
        train_data, val_data = train_val_datasets(16, 8, classes=4, size=12, seed=0)
        net = small_cnn(classes=4, width=4, seed=0)
        curve = train(net, train_data, val_data, epochs=1, batch_size=16)
        assert np.isfinite(curve.losses).all()

    def test_winograd_and_direct_nets_train_equivalently(self):
        """The Winograd layer must train as well as direct convolution
        (paper Section II-B: no quality loss)."""
        train_data, val_data = train_val_datasets(128, 64, classes=4, size=12, seed=2)
        results = {}
        for use_winograd in (True, False):
            net = small_cnn(classes=4, width=8, use_winograd=use_winograd, seed=0)
            curve = train(net, train_data, val_data, epochs=2, batch_size=32, lr=0.05)
            results[use_winograd] = curve.val_accuracies[-1]
        assert abs(results[True] - results[False]) < 0.15
