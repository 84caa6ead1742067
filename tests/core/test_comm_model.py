"""Tests for the Section III-C communication-volume equations."""

import pytest

from repro.core import (
    GridConfig,
    layer_comm_volume,
    transform_for,
    uses_1d_transfer,
    w_dp,
    w_mp,
    w_mp_plus,
    weight_collective_bytes,
)
from repro.workloads import early_layer, five_layers, late_layer


class TestWeightCollective:
    def test_dp_formula(self):
        """DP: 2 (p-1)/p |w| per worker (reduce + broadcast)."""
        layer = late_layer()
        volume = weight_collective_bytes(layer, w_dp(), GridConfig(1, 256), None)
        expected = 2 * (255 / 256) * layer.weight_count * 4
        assert volume == pytest.approx(expected)

    def test_mpt_reduces_by_group_count(self):
        """Section III-B: per-worker weight traffic shrinks by N_g."""
        layer = late_layer()
        config = w_mp()
        transform = transform_for(config, GridConfig(16, 16), 3)
        v16 = weight_collective_bytes(layer, config, GridConfig(16, 16), transform)
        v4 = weight_collective_bytes(layer, config, GridConfig(4, 64), transform)
        # Same Winograd |W|; slice scales 1/N_g, ring factor
        # (N_c-1)/N_c differs slightly: 4 * (63/64)/(15/16).
        assert v4 / v16 == pytest.approx(4 * (63 / 64) / (15 / 16), rel=1e-6)

    def test_single_cluster_no_collective(self):
        layer = late_layer()
        assert weight_collective_bytes(layer, w_dp(), GridConfig(1, 1), None) == 0.0

    def test_winograd_domain_weights_larger(self):
        """|W| = (T/r)^2 |w|: the Winograd layer all-reduces more data
        per group at N_g = 1."""
        layer = late_layer()
        config = w_mp()
        transform = transform_for(config, GridConfig(1, 256), 3)  # F(4x4): T=6
        wino = weight_collective_bytes(layer, config, GridConfig(1, 256), transform)
        spatial = weight_collective_bytes(layer, w_dp(), GridConfig(1, 256), None)
        assert wino / spatial == pytest.approx(36 / 9, rel=0.01)


class TestTileTransfer:
    def test_dp_has_no_tile_traffic(self):
        volume = layer_comm_volume(early_layer(), 256, w_dp(), GridConfig(1, 256))
        assert volume.tile_bytes == 0.0

    def test_early_layer_dominated_by_tiles(self):
        volume = layer_comm_volume(early_layer(), 256, w_mp(), GridConfig(16, 16))
        assert volume.tile_bytes > 100 * volume.weight_bytes

    def test_late_layer_dominated_by_weights_at_few_groups(self):
        volume = layer_comm_volume(late_layer(), 256, w_mp(), GridConfig(4, 64))
        assert volume.weight_bytes > volume.tile_bytes

    def test_prediction_reduces_tile_traffic(self):
        grid = GridConfig(16, 16)
        plain = layer_comm_volume(early_layer(), 256, w_mp(), grid)
        pred = layer_comm_volume(early_layer(), 256, w_mp_plus(), grid)
        assert pred.tile_bytes < plain.tile_bytes
        assert pred.weight_bytes == pytest.approx(plain.weight_bytes)

    def test_1d_transfer_detection(self):
        transform = transform_for(w_mp(), GridConfig(4, 64), 3)
        assert uses_1d_transfer(GridConfig(4, 64), transform)
        assert not uses_1d_transfer(GridConfig(16, 16), transform)

    def test_scaling_shape_fig7(self):
        """Fig. 7: DP per-worker volume ~constant; MPT decreasing in p."""
        layer = five_layers()[2]
        dp_small = layer_comm_volume(layer, 256, w_dp(), GridConfig(1, 16)).total_bytes
        dp_large = layer_comm_volume(layer, 256, w_dp(), GridConfig(1, 1024)).total_bytes
        assert dp_large == pytest.approx(dp_small, rel=0.1)
        mp_small = layer_comm_volume(layer, 256, w_mp(), GridConfig(4, 4)).total_bytes
        mp_large = layer_comm_volume(layer, 256, w_mp(), GridConfig(16, 64)).total_bytes
        assert mp_large < mp_small

    def test_paper_per_worker_tile_formula(self):
        """Section III-C: tile traffic per worker =
        [Tiles]/(N_c N_g) * (N_g-1)/N_g, counted for scatter+gather in
        both passes."""
        layer = five_layers()[3]
        grid = GridConfig(16, 16)
        config = w_mp()
        transform = transform_for(config, grid, 3)
        volume = layer_comm_volume(layer, 256, config, grid)
        tiles_batch = 256 * layer.tiles_per_image(transform.m)
        t2 = transform.tile**2
        per_channel = (
            tiles_batch * t2 * 4 / (grid.num_clusters * grid.num_groups)
            * (grid.num_groups - 1) / grid.num_groups
        )
        expected_fprop_scatter = per_channel * layer.in_channels
        assert volume.scatter_fprop == pytest.approx(expected_fprop_scatter)


class TestTransformFor:
    """Section VII-A's rule: F(2x2, r x r) with several groups (smaller
    Winograd-domain weights), F(4x4, 3x3) for one group with 3x3
    weights, F(2x2, r x r) otherwise."""

    @pytest.mark.parametrize(
        "groups, kernel, expected",
        [(16, 3, (2, 3)), (1, 3, (4, 3)), (1, 5, (2, 5))],
        ids=["multi_group_uses_f2", "single_group_3x3_uses_f4",
             "single_group_5x5_uses_f2"],
    )
    def test_paper_rule(self, groups, kernel, expected):
        transform = transform_for(w_mp(), GridConfig(groups, 256 // groups), kernel)
        assert (transform.m, transform.r) == expected
