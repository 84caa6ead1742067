"""Chain solvers: DP optimality, greedy recovery, oracle certification.

These are the PR's acceptance assertions: across the paper grids the DP
plan is never costlier than greedy, and under the zero-transition preset
it recovers the greedy plan bit for bit — total *and* per-layer grids.
"""

from collections import Counter

import pytest

from repro.core import MachineConfig, PerfModel, TrainingSimulator
from repro.core.config import w_mp_plus_plus
from repro.perf import import_sweep_modules, registered_caches
from repro.planner import (
    ORACLE_PATH_LIMIT,
    PlannerError,
    StrategyKnobs,
    greedy_plan,
    plan_network,
    plan_report,
    preset,
)
from repro.workloads import vgg16, wide_resnet_40_10
from repro.workloads.networks import CnnSpec

NETWORKS = (vgg16, wide_resnet_40_10)
WORKER_COUNTS = (64, 256)
PRESETS = ("zero", "rerouted", "weights-only")
CONFIG = w_mp_plus_plus()


def small_chain(length=5):
    net = vgg16()
    return CnnSpec(
        name=f"vgg16-head{length}",
        dataset=net.dataset,
        conv_layers=net.conv_layers[:length],
    )


class TestAcceptance:
    @pytest.mark.parametrize("build", NETWORKS, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("preset_name", PRESETS)
    def test_dp_never_costlier_than_greedy(self, build, workers, preset_name):
        net = build()
        transition = preset(preset_name)
        dp = plan_network(net, CONFIG, workers, 256, transition=transition)
        greedy = greedy_plan(net, CONFIG, workers, 256, transition=transition)
        assert dp.total_cost <= greedy.total_cost

    @pytest.mark.parametrize("build", NETWORKS, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_zero_preset_recovers_greedy_bit_identically(self, build, workers):
        net = build()
        dp = plan_network(net, CONFIG, workers, 256)
        greedy = greedy_plan(net, CONFIG, workers, 256)
        assert dp.total_cost == greedy.total_cost
        assert dp.grids == greedy.grids

    def test_zero_preset_matches_the_trainer_plan(self):
        net = wide_resnet_40_10()
        sim = TrainingSimulator(MachineConfig())
        choices = sim.plan_layers(net, CONFIG)
        dp = plan_network(net, CONFIG, 256, 256)
        assert dp.grids == tuple(
            (c.grid.num_groups, c.grid.num_clusters) for c in choices
        )
        assert dp.total_cost == sum(c.perf.total_s for c in dp_perfs(dp))

    def test_rerouted_dp_strictly_beats_greedy_on_wrn(self):
        # The DP's reason to exist: WRN's greedy chain flips grids where
        # holding the previous grid is cheaper once transitions cost.
        net = wide_resnet_40_10()
        transition = preset("rerouted")
        dp = plan_network(net, CONFIG, 256, 256, transition=transition)
        greedy = greedy_plan(net, CONFIG, 256, 256, transition=transition)
        assert dp.total_cost < greedy.total_cost
        assert dp.grids != greedy.grids


def dp_perfs(plan):
    return [step.candidate for step in plan.steps]


class TestOneEvaluationPerPoint:
    def test_greedy_dp_and_simulator_share_each_evaluation(self, monkeypatch):
        # Greedy, DP and the training simulator search one strategy space
        # through one cache: from cold caches, each (layer, batch, config,
        # grid, transform) point is evaluated once.
        import_sweep_modules()
        for cache in registered_caches():
            cache.clear()
        evaluations = Counter()
        impl = PerfModel._evaluate_layer_impl

        def counting(self, layer, batch, config, grid, transform):
            evaluations[(layer, batch, config, grid, transform, self.params)] += 1
            return impl(self, layer, batch, config, grid, transform)

        monkeypatch.setattr(PerfModel, "_evaluate_layer_impl", counting)
        plan_report("wrn-40-10", transition="rerouted")
        TrainingSimulator().simulate_iteration(wide_resnet_40_10(), CONFIG)
        repeated = [point[:4] for point, n in evaluations.items() if n > 1]
        assert evaluations
        assert not repeated, f"{len(repeated)} points evaluated twice or more"


class TestOracleAndBeam:
    @pytest.mark.parametrize("preset_name", PRESETS)
    def test_dp_equals_oracle_on_small_chains(self, preset_name):
        net = small_chain()
        transition = preset(preset_name)
        dp = plan_network(net, CONFIG, 256, 256, transition=transition)
        oracle = plan_network(
            net, CONFIG, 256, 256, transition=transition, mode="oracle"
        )
        assert dp.total_cost == oracle.total_cost

    def test_oracle_refuses_oversized_spaces(self):
        net = wide_resnet_40_10()  # 3^37 paths
        with pytest.raises(PlannerError, match=str(ORACLE_PATH_LIMIT)):
            plan_network(
                net, CONFIG, 256, 256, transition=preset("rerouted"),
                mode="oracle",
            )


class TestValidationAndEdges:
    def test_unknown_mode_and_objective_raise(self):
        net = small_chain(2)
        for kwargs in ({"mode": "anneal"}, {"mode": "beam"}, {"objective": "carbon"}):
            with pytest.raises(PlannerError):
                plan_network(net, CONFIG, 256, 256, **kwargs)

    def test_empty_network_plans_empty(self):
        net = CnnSpec(name="empty", dataset="none", conv_layers=[])
        plan = plan_network(net, CONFIG, 256, 256)
        assert plan.steps == ()
        assert plan.total_cost == 0.0
        assert plan.feasible

    def test_infeasible_space_raises(self):
        from repro.params import HardwareParams

        small = HardwareParams(dram_capacity_bytes=1024)
        net = small_chain(2)
        with pytest.raises(PlannerError, match="fits"):
            plan_network(
                net, CONFIG, 256, 256, model=PerfModel(params=small)
            )

    def test_energy_objective_solves(self):
        net = small_chain()
        plan = plan_network(net, CONFIG, 256, 256, objective="energy")
        greedy = greedy_plan(net, CONFIG, 256, 256, objective="energy")
        assert plan.total_cost <= greedy.total_cost
        assert plan.total_cost == pytest.approx(plan.energy_j)

    def test_widened_space_never_hurts(self):
        net = small_chain()
        base = plan_network(net, CONFIG, 256, 256)
        widened = plan_network(
            net, CONFIG, 256, 256,
            StrategyKnobs(search_transforms=True, batch_splits=(1, 2, 4)),
        )
        assert widened.total_cost <= base.total_cost
