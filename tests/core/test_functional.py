"""Bit-level verification of the functional MPT execution engine.

These tests are the strongest correctness evidence in the repository:
they run the *actual distributed algorithm* (batch sharding, tile
scatter/gather, element-wise GEMMs on weight slices, ring all-reduce of
gradient slices) and require exact agreement with single-worker Winograd
training.
"""

import numpy as np
import pytest

from repro.core import GridConfig
from repro.core.functional import MptLayerMachine
from repro.winograd import (
    make_transform,
    spatial_to_winograd,
    winograd_backward,
    winograd_forward,
)


def build_machine(ng=4, nc=2, predict=False, seed=0, in_ch=3, out_ch=4):
    transform = make_transform(2, 3)
    rng = np.random.default_rng(seed)
    weights = spatial_to_winograd(
        rng.standard_normal((out_ch, in_ch, 3, 3)), transform
    )
    machine = MptLayerMachine(
        in_channels=in_ch,
        out_channels=out_ch,
        transform=transform,
        grid=GridConfig(ng, nc),
        initial_weights=weights,
        pad=1,
        predict=predict,
    )
    return machine, transform, weights


class TestForward:
    @pytest.mark.parametrize("ng,nc", [(1, 1), (1, 4), (4, 2), (16, 2), (4, 4)])
    def test_matches_single_worker(self, ng, nc):
        machine, transform, weights = build_machine(ng, nc)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 3, 8, 8))
        expected, _ = winograd_forward(x, weights, transform, 1)
        got = machine.forward(x)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_batch_not_divisible_rejected(self):
        machine, _, _ = build_machine(4, 3)
        with pytest.raises(ValueError):
            machine.forward(np.zeros((8, 3, 8, 8)))

    def test_too_many_groups_rejected(self):
        transform = make_transform(2, 3)
        with pytest.raises(ValueError):
            MptLayerMachine(
                2, 2, transform, GridConfig(32, 1),
                initial_weights=np.zeros((4, 4, 2, 2)),
            )

    def test_full_weights_round_trip(self):
        machine, _, weights = build_machine(4, 2)
        np.testing.assert_allclose(machine.full_weights(), weights)


class TestBackward:
    @pytest.mark.parametrize("ng,nc", [(1, 2), (4, 2), (16, 4)])
    def test_dx_and_dw_match_single_worker(self, ng, nc):
        machine, transform, weights = build_machine(ng, nc)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 3, 8, 8))
        expected_y, cache = winograd_forward(x, weights, transform, 1)
        dy = rng.standard_normal(expected_y.shape)
        expected_dx, expected_dw = winograd_backward(dy, weights, transform, cache)

        machine.forward(x)
        dx = machine.backward(dy)
        np.testing.assert_allclose(dx, expected_dx, atol=1e-9)
        # Every worker's reduced slice equals the full-batch gradient.
        t2 = transform.tile**2
        flat_expected = expected_dw.reshape(t2, 3, 4)
        for (g, c), worker in machine.workers.items():
            np.testing.assert_allclose(
                worker.grad, flat_expected[worker.element_ids], atol=1e-8
            )

    def test_gradient_replicas_identical_across_clusters(self):
        machine, transform, weights = build_machine(4, 4)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 3, 8, 8))
        y = machine.forward(x)
        machine.backward(rng.standard_normal(y.shape))
        for g in range(4):
            reference = machine.workers[(g, 0)].grad
            for c in range(1, 4):
                np.testing.assert_allclose(machine.workers[(g, c)].grad, reference)

    def test_backward_before_forward_rejected(self):
        machine, _, _ = build_machine()
        with pytest.raises(RuntimeError):
            machine.backward(np.zeros((8, 4, 8, 8)))


class TestTrainingStep:
    def test_sgd_step_matches_single_worker(self):
        """A full distributed iteration (fprop, bprop, all-reduce, SGD
        update) must produce the same new weights as one worker."""
        machine, transform, weights = build_machine(4, 2)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 3, 8, 8))
        y, cache = winograd_forward(x, weights, transform, 1)
        dy = rng.standard_normal(y.shape)
        _, dw = winograd_backward(dy, weights, transform, cache)
        expected = weights - 0.1 * dw

        machine.forward(x)
        machine.backward(dy)
        machine.apply_update(0.1)
        np.testing.assert_allclose(machine.full_weights(), expected, atol=1e-9)

    def test_update_before_backward_rejected(self):
        machine, _, _ = build_machine()
        machine.forward(np.zeros((8, 3, 8, 8)))
        with pytest.raises(RuntimeError):
            machine.apply_update(0.1)

    def test_multi_iteration_training_stays_exact(self):
        machine, transform, weights = build_machine(4, 2, seed=5)
        reference = weights.copy()
        rng = np.random.default_rng(6)
        for _ in range(3):
            x = rng.standard_normal((4, 3, 8, 8))
            y_ref, cache = winograd_forward(x, reference, transform, 1)
            dy = rng.standard_normal(y_ref.shape)
            _, dw = winograd_backward(dy, reference, transform, cache)
            reference = reference - 0.05 * dw

            machine.forward(x)
            machine.backward(dy)
            machine.apply_update(0.05)
        np.testing.assert_allclose(machine.full_weights(), reference, atol=1e-8)


class TestActivationPredictionLossless:
    def test_post_relu_output_exact_with_prediction(self):
        machine, transform, weights = build_machine(4, 2, predict=True, seed=7)
        baseline, _, _ = build_machine(4, 2, predict=False, seed=7)
        rng = np.random.default_rng(8)
        # Shift inputs negative so a good fraction of tiles are dead.
        x = rng.standard_normal((8, 3, 8, 8)) - 0.3
        got = machine.forward(x, apply_relu=True)
        expected = baseline.forward(x, apply_relu=True)
        np.testing.assert_allclose(got, expected, atol=1e-10)
        # And traffic was actually skipped.
        assert machine.counters.gather_bytes_skipped >= 0
        assert machine.counters.gather_bytes < baseline.counters.gather_bytes

    def test_prediction_without_relu_rejected(self):
        machine, _, _ = build_machine(4, 2, predict=True)
        with pytest.raises(ValueError):
            machine.forward(np.zeros((8, 3, 8, 8)), apply_relu=False)


class TestTrafficCounters:
    def test_counters_match_comm_model(self):
        """The functional engine's measured bytes must equal the
        Section III-C closed forms used by the performance model."""
        from repro.core import layer_comm_volume, w_mp
        from repro.workloads import ConvLayerSpec

        ng, nc, batch = 4, 2, 8
        machine, transform, _ = build_machine(ng, nc, in_ch=3, out_ch=4)
        x = np.random.default_rng(9).standard_normal((batch, 3, 8, 8))
        y = machine.forward(x)
        machine.backward(np.random.default_rng(10).standard_normal(y.shape))

        layer = ConvLayerSpec("test", 3, 4, 8, 8)
        volume = layer_comm_volume(layer, batch, w_mp(), GridConfig(ng, nc))
        per_worker_to_total = ng * nc
        # Scatter (fprop + bprop): model gives per-worker bytes.
        expected_scatter = (
            volume.scatter_fprop + volume.scatter_bprop
        ) * per_worker_to_total
        assert machine.counters.scatter_bytes == pytest.approx(
            expected_scatter, rel=0.01
        )
        # Gather: model's fprop gather uses the 1D volume factor for
        # ng <= T; the functional engine transfers full tiles, so compare
        # against the un-factored bprop gather exactly and the fprop
        # gather within the volume factor.
        expected_gather_bprop = volume.gather_bprop * per_worker_to_total
        assert machine.counters.gather_bytes >= expected_gather_bprop
        # All-reduce volume: 2 (nc-1)/nc * |W|/ng per worker.
        expected_allreduce = volume.weight_bytes * per_worker_to_total
        assert machine.counters.allreduce_bytes == pytest.approx(
            expected_allreduce, rel=0.01
        )

    def test_reset(self):
        machine, _, _ = build_machine()
        machine.forward(np.zeros((8, 3, 8, 8)))
        machine.counters.reset()
        assert machine.counters.scatter_bytes == 0
