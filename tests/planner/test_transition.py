"""Transition cost model: presets, pricing rules, free cases."""

import pytest

from repro.core.config import w_mp_plus_plus
from repro.params import DEFAULT_PARAMS
from repro.planner import (
    FREE_TRANSITION,
    REROUTED_TRANSITION,
    WEIGHTS_ONLY_TRANSITION,
    ZERO_TRANSITION,
    PlannerError,
    TransitionCostModel,
    layer_candidates,
    preset,
    preset_names,
    rerouted_bytes,
    transition_cost,
)
from repro.workloads import vgg16

NET = vgg16()
CONFIG = w_mp_plus_plus()


def candidates_for(index):
    return layer_candidates(NET.conv_layers[index], 256, CONFIG, 256)


def distinct_grid_pair():
    """Two candidates of adjacent layers with different grids."""
    prev = candidates_for(4)[0]
    for nxt in candidates_for(5):
        if nxt.grid != prev.grid:
            return prev, nxt
    raise AssertionError("expected more than one grid in the space")


class TestPresets:
    def test_registry(self):
        assert preset_names() == ("zero", "rerouted", "weights-only")
        assert preset("zero") is ZERO_TRANSITION
        assert preset("rerouted") is REROUTED_TRANSITION
        assert preset("weights-only") is WEIGHTS_ONLY_TRANSITION

    def test_unknown_preset_raises(self):
        with pytest.raises(PlannerError):
            preset("teleport")

    def test_zero_is_zero(self):
        assert ZERO_TRANSITION.is_zero
        assert not REROUTED_TRANSITION.is_zero
        assert not WEIGHTS_ONLY_TRANSITION.is_zero

    def test_negative_factors_rejected(self):
        with pytest.raises(PlannerError):
            TransitionCostModel(weight_factor=-1.0)
        with pytest.raises(PlannerError):
            TransitionCostModel(latency_s=-1e-9)

    @pytest.mark.parametrize("field", ["weight_factor", "activation_factor",
                                       "latency_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_pricing_rejected(self, field, value):
        # NaN passed the old ``< 0`` checks, and every comparison the DP
        # made against a NaN price was False.
        with pytest.raises(PlannerError, match="finite"):
            TransitionCostModel(name="p", **{field: value})


class TestFreeCases:
    def test_zero_preset_is_always_free(self):
        prev, nxt = distinct_grid_pair()
        got = transition_cost(
            ZERO_TRANSITION, prev, nxt, NET.conv_layers[5], 256
        )
        assert got is FREE_TRANSITION

    def test_chain_start_is_free(self):
        cand = candidates_for(0)[0]
        got = transition_cost(
            REROUTED_TRANSITION, None, cand, NET.conv_layers[0], 256
        )
        assert got is FREE_TRANSITION

    def test_unchanged_strategy_is_free(self):
        cand = candidates_for(5)[0]
        got = transition_cost(
            REROUTED_TRANSITION, cand, cand, NET.conv_layers[5], 256
        )
        assert got is FREE_TRANSITION


class TestPricing:
    def test_grid_change_moves_weights_and_activations(self):
        prev, nxt = distinct_grid_pair()
        layer = NET.conv_layers[5]
        got = transition_cost(REROUTED_TRANSITION, prev, nxt, layer, 256)
        assert got.bytes_moved > 0
        assert got.per_worker_bytes == got.bytes_moved / nxt.grid.workers
        assert got.seconds > REROUTED_TRANSITION.latency_s
        assert got.joules > 0

    def test_weights_only_charges_less(self):
        prev, nxt = distinct_grid_pair()
        layer = NET.conv_layers[5]
        full = transition_cost(REROUTED_TRANSITION, prev, nxt, layer, 256)
        weights = transition_cost(
            WEIGHTS_ONLY_TRANSITION, prev, nxt, layer, 256
        )
        assert weights.bytes_moved < full.bytes_moved

    def test_rerouted_bytes_formula(self):
        assert rerouted_bytes(1.0, 1000, 0.5, 600) == 1000 + 300.0

    def test_analytic_seconds_formula(self):
        prev, nxt = distinct_grid_pair()
        layer = NET.conv_layers[5]
        got = transition_cost(REROUTED_TRANSITION, prev, nxt, layer, 256)
        expected = (
            got.per_worker_bytes / DEFAULT_PARAMS.full_link_bytes_per_s
            + REROUTED_TRANSITION.latency_s
        )
        assert got.seconds == expected

    def test_cost_in_objectives(self):
        prev, nxt = distinct_grid_pair()
        got = transition_cost(
            REROUTED_TRANSITION, prev, nxt, NET.conv_layers[5], 256
        )
        assert got.cost_in("time") == got.seconds
        assert got.cost_in("energy") == got.joules
        with pytest.raises(PlannerError):
            got.cost_in("carbon")
