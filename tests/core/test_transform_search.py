"""Tests for the joint (grid, transform) search extension: the argmin of
the planner's layer candidates with ``search_transforms`` on."""

import pytest

from repro.core import GridConfig, PerfModel, choose_clustering, w_mp_plus_plus
from repro.planner import StrategyKnobs, layer_candidates
from repro.winograd import make_transform
from repro.workloads import five_layers

SEARCH = StrategyKnobs(search_transforms=True)


@pytest.fixture(scope="module")
def model():
    return PerfModel()


def searched(layer, model):
    """The fastest (grid, transform) candidate; ``min`` keeps the first
    of equal times, the planner's strict-``<`` tie-breaking."""
    candidates = layer_candidates(layer, 256, w_mp_plus_plus(), 256, SEARCH, model)
    return min(candidates, key=lambda candidate: candidate.time_s)


class TestTransformSearch:
    def test_never_worse_than_paper_rule(self, model):
        for layer in five_layers():
            rule = choose_clustering(layer, 256, w_mp_plus_plus(), 256, model)
            assert searched(layer, model).time_s <= rule.total_s + 1e-12

    def test_finds_multi_group_f4_for_tile_bound_layer(self, model):
        """Mid-2 is tile-transfer-bound under F(2x2); the search must
        discover the multi-group F(4x4) point."""
        best = searched(five_layers()[2], model)
        assert best.grid.num_groups > 1
        assert best.transform.m == 4

    def test_transform_recorded(self, model):
        assert searched(five_layers()[0], model).transform is not None

    def test_5x5_layers_still_searchable(self, model):
        layer = five_layers()[3].with_kernel(5)
        assert searched(layer, model).time_s > 0

    def test_override_plumbs_through_perf_model(self, model):
        """evaluate_layer with an explicit transform must differ from the
        default rule when the transform differs."""
        layer = five_layers()[2]
        grid = GridConfig(16, 16)
        default = model.evaluate_layer(layer, 256, w_mp_plus_plus(), grid)
        f4 = model.evaluate_layer(
            layer, 256, w_mp_plus_plus(), grid, transform=make_transform(4, 3)
        )
        assert f4.total_s != default.total_s
