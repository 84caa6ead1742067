"""Tests for system configurations and grid arithmetic."""

import pytest

from repro.core import (
    GridConfig,
    SystemConfig,
    candidate_grids,
    clustering_candidates,
    d_dp,
    table4_configs,
    w_dp,
    w_mp,
    w_mp_plus,
    w_mp_plus_plus,
)
from repro.workloads import early_layer


class TestSystemConfigs:
    def test_table4_has_five(self):
        names = [c.name for c in table4_configs()]
        assert names == ["d_dp", "w_dp", "w_mp", "w_mp+", "w_mp++"]

    def test_dp_configs_update_spatial_weights(self):
        assert d_dp().update_domain == "spatial"
        assert w_dp().update_domain == "spatial"

    def test_mpt_configs_update_winograd_weights(self):
        for config in (w_mp(), w_mp_plus(), w_mp_plus_plus()):
            assert config.update_domain == "winograd"
            assert config.mpt

    def test_mpt_reserves_half_links_for_fbfly(self):
        assert w_dp().collective_rings == 4
        assert w_mp().collective_rings == 2

    def test_feature_flags_nested(self):
        assert not w_mp().prediction
        assert w_mp_plus().prediction and not w_mp_plus().dynamic_clustering
        assert w_mp_plus_plus().prediction and w_mp_plus_plus().dynamic_clustering

    def test_invalid_conv_mode_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(name="bad", conv="fourier")

    def test_invalid_update_domain_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(name="bad", update_domain="frequency")


class TestGrid:
    def test_workers_product(self):
        assert GridConfig(16, 16).workers == 256

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            GridConfig(0, 4)


class TestClusteringCandidates:
    def test_paper_configurations_at_256(self):
        """Section IV: (16,16), (4,64), (1,256) for a 4x4 tile."""
        grids = clustering_candidates(256, tile_elems=16)
        assert {(g.num_groups, g.num_clusters) for g in grids} == {
            (1, 256),
            (4, 64),
            (16, 16),
        }

    def test_5x5_tile_allows_16_groups(self):
        """F(2x2,5x5) has 36 elements: 16 groups allowed via uneven
        (channel-balanced) assignment."""
        grids = clustering_candidates(256, tile_elems=36)
        assert (16, 16) in {(g.num_groups, g.num_clusters) for g in grids}

    def test_small_machine(self):
        grids = clustering_candidates(4, tile_elems=16)
        assert {(g.num_groups, g.num_clusters) for g in grids} == {(1, 4), (4, 1)}

    def test_default_grid_dp_for_non_mpt(self):
        for config in (d_dp(), w_dp()):
            grids = candidate_grids(early_layer(), config, 256)
            assert [(g.num_groups, g.num_clusters) for g in grids] == [(1, 256)]

    def test_default_grid_squarest_for_mpt(self):
        """Without dynamic clustering MPT runs the squarest candidate
        alone (Section VII-A)."""
        for config in (w_mp(), w_mp_plus()):
            grids = candidate_grids(early_layer(), config, 256)
            assert [(g.num_groups, g.num_clusters) for g in grids] == [(16, 16)]
