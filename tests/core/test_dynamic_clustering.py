"""Tests for per-layer dynamic clustering (paper Section IV)."""

import pytest

from repro.core import (
    PerfModel,
    candidate_grids,
    choose_clustering,
    w_dp,
    w_mp,
    w_mp_plus_plus,
)
from repro.workloads import early_layer, five_layers, late_layer


@pytest.fixture(scope="module")
def model():
    return PerfModel()


class TestCandidates:
    def test_dp_has_single_candidate(self):
        grids = candidate_grids(early_layer(), w_dp(), 256)
        assert len(grids) == 1
        assert grids[0].num_groups == 1

    def test_mpt_has_three_candidates_at_256(self):
        grids = candidate_grids(early_layer(), w_mp_plus_plus(), 256)
        assert {(g.num_groups, g.num_clusters) for g in grids} == {
            (1, 256), (4, 64), (16, 16),
        }


class TestChoice:
    def test_early_layer_chooses_data_parallel(self, model):
        """Section VII-B: dynamic clustering configures early layers to
        (1, 256) to remove tile transfer."""
        choice = choose_clustering(early_layer(), 256, w_mp_plus_plus(), 256, model)
        assert choice.grid.num_groups == 1

    def test_late_layer_chooses_many_groups(self, model):
        """Late layers want the full 16-group split."""
        choice = choose_clustering(late_layer(), 256, w_mp_plus_plus(), 256, model)
        assert choice.grid.num_groups == 16

    def test_choice_is_minimum_over_candidates(self, model):
        config = w_mp_plus_plus()
        for layer in five_layers():
            choice = choose_clustering(layer, 256, config, 256, model)
            evaluations = [
                model.evaluate_layer(layer, 256, config, grid)
                for grid in candidate_grids(layer, config, 256)
            ]
            # The choice is the first fastest evaluation itself, taken
            # from the shared cache.
            best = min(evaluations, key=lambda perf: perf.total_s)
            assert choice is best

    def test_never_worse_than_fixed_grid(self, model):
        """Dynamic clustering can only help (it includes the fixed grid
        as a candidate)."""
        for layer in five_layers():
            fixed = choose_clustering(layer, 256, w_mp(), 256, model)
            dynamic = choose_clustering(layer, 256, w_mp_plus_plus(), 256, model)
            # w_mp++ also has prediction; compare against the same config
            # evaluated at the fixed grid.
            fixed_pp = model.evaluate_layer(
                layer, 256, w_mp_plus_plus(), fixed.grid
            )
            assert dynamic.total_s <= fixed_pp.total_s + 1e-12

    def test_disabled_clustering_uses_default_grid(self, model):
        choice = choose_clustering(early_layer(), 256, w_mp(), 256, model)
        assert (choice.grid.num_groups, choice.grid.num_clusters) == (16, 16)
        assert len(candidate_grids(early_layer(), w_mp(), 256)) == 1
