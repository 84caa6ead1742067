"""Property tests: DP dominance over greedy for arbitrary transition
pricings, greedy recovery under the zero preset, Pareto soundness."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import pareto_frontier
from repro.core.config import w_mp_plus_plus
from repro.planner import (
    StrategyKnobs,
    TransitionCostModel,
    greedy_plan,
    plan_network,
)
from repro.workloads import vgg16
from repro.workloads.networks import CnnSpec

CONFIG = w_mp_plus_plus()


def chain(length):
    net = vgg16()
    return CnnSpec(
        name=f"vgg16-head{length}",
        dataset=net.dataset,
        conv_layers=net.conv_layers[:length],
    )


factors = st.floats(
    min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False
)
latencies = st.floats(
    min_value=0.0, max_value=1e-4, allow_nan=False, allow_infinity=False
)


class TestDpDominance:
    @settings(max_examples=20, deadline=None)
    @given(weight=factors, activation=factors, latency=latencies)
    def test_dp_never_costlier_than_greedy(self, weight, activation, latency):
        # Any non-negative transition pricing: the greedy chain is one
        # feasible DP path evaluated with the identical fold, so the DP
        # minimum can never exceed it — exactly, in floats.
        transition = TransitionCostModel(
            name="prop", weight_factor=weight,
            activation_factor=activation, latency_s=latency,
        )
        net = chain(6)
        dp = plan_network(net, CONFIG, 256, 256, transition=transition)
        greedy = greedy_plan(net, CONFIG, 256, 256, transition=transition)
        assert dp.total_cost <= greedy.total_cost

    @settings(max_examples=10, deadline=None)
    @given(weight=factors, activation=factors, latency=latencies)
    def test_dp_never_costlier_than_oracle(self, weight, activation, latency):
        transition = TransitionCostModel(
            name="prop", weight_factor=weight,
            activation_factor=activation, latency_s=latency,
        )
        net = chain(4)
        dp = plan_network(net, CONFIG, 256, 256, transition=transition)
        oracle = plan_network(
            net, CONFIG, 256, 256, transition=transition, mode="oracle"
        )
        assert dp.total_cost == oracle.total_cost

    @settings(max_examples=10, deadline=None)
    @given(weight=factors, activation=factors, latency=latencies,
           objective=st.sampled_from(("time", "energy")))
    def test_dp_equals_oracle_when_classes_share_candidates(
        self, weight, activation, latency, objective
    ):
        # Transforms and batch splits put several candidates in each
        # (grid, transform) class, whose members the DP prices as one:
        # 18 candidates per layer, 5,832 oracle paths.
        transition = TransitionCostModel(
            name="prop", weight_factor=weight,
            activation_factor=activation, latency_s=latency,
        )
        knobs = StrategyKnobs(search_transforms=True, batch_splits=(1, 2, 4))
        net = chain(3)
        dp = plan_network(
            net, CONFIG, 256, 256, knobs, transition, objective=objective
        )
        oracle = plan_network(
            net, CONFIG, 256, 256, knobs, transition, objective=objective,
            mode="oracle",
        )
        assert dp.total_cost == oracle.total_cost

    @settings(max_examples=10, deadline=None)
    @given(workers=st.sampled_from([16, 64, 256]),
           length=st.integers(min_value=1, max_value=8))
    def test_zero_preset_recovers_greedy_everywhere(self, workers, length):
        net = chain(length)
        dp = plan_network(net, CONFIG, workers, 256)
        greedy = greedy_plan(net, CONFIG, workers, 256)
        assert dp.total_cost == greedy.total_cost
        assert dp.grids == greedy.grids


class TestParetoFrontier:
    points_strategy = st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=16,
    )

    @settings(max_examples=50, deadline=None)
    @given(points=points_strategy)
    def test_frontier_is_sound_and_nonempty(self, points):
        flags = pareto_frontier(points)
        assert len(flags) == len(points)
        assert any(flags)  # a minimum always survives
        for (time_i, energy_i), on_frontier in zip(points, flags):
            dominated = any(
                (tj <= time_i and ej <= energy_i)
                and (tj < time_i or ej < energy_i)
                for tj, ej in points
            )
            assert on_frontier == (not dominated)
