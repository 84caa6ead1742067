"""Chain solvers: DP optimality, greedy recovery, oracle certification.

These are the PR's acceptance assertions: across the paper grids the DP
plan is never costlier than greedy, and under the zero-transition preset
it recovers the greedy plan bit for bit — total *and* per-layer grids.
"""

import dataclasses
import math
from collections import Counter

import pytest

import repro.planner.solver as solver
from repro.core import MachineConfig, PerfModel, TrainingSimulator
from repro.core.config import w_mp_plus_plus
from repro.params import DEFAULT_PARAMS, HardwareParams
from repro.perf import import_sweep_modules, registered_caches
from repro.planner import (
    DEFAULT_KNOBS,
    ORACLE_PATH_LIMIT,
    PlannerError,
    StrategyKnobs,
    TransitionCostModel,
    greedy_plan,
    layer_candidates,
    plan_network,
    plan_report,
    preset,
)
from repro.planner.solver import _edge, _solve_dp, _step_total
from repro.planner.transition import _transform_key
from repro.workloads import resnet34, vgg16, wide_resnet_40_10
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


WIDENED = StrategyKnobs(search_transforms=True, batch_splits=(1, 2, 4))


def feasible_space(net, knobs):
    return [
        tuple(
            c for c in layer_candidates(layer, 256, CONFIG, 256, knobs)
            if c.feasible
        )
        for layer in net.conv_layers
    ]


def scalar_viterbi(per_layer, layers, batch, transition, objective, params):
    """The per-candidate Viterbi loop the vectorised DP replaced, kept
    as its reference: ``(indices, best folded total)``."""
    totals = [_step_total(0.0, 0.0, c.cost_in(objective)) for c in per_layer[0]]
    back = []
    for i in range(1, len(per_layer)):
        new_totals, pointers = [], []
        for cand in per_layer[i]:
            cand_cost = cand.cost_in(objective)
            best, best_j = None, 0
            for j, prev_cand in enumerate(per_layer[i - 1]):
                edge = _edge(
                    transition, prev_cand, cand, layers[i], batch, params,
                    objective,
                )
                value = _step_total(totals[j], edge, cand_cost)
                if best is None or value < best:
                    best, best_j = value, j
            new_totals.append(best)
            pointers.append(best_j)
        back.append(pointers)
        totals = new_totals
    best = min(range(len(totals)), key=totals.__getitem__)
    chain = [best]
    for pointers in reversed(back):
        chain.append(pointers[chain[-1]])
    return tuple(reversed(chain)), totals[best]


class TestVectorisedDp:
    @pytest.mark.parametrize(
        "build", (vgg16, wide_resnet_40_10, resnet34), ids=lambda b: b.__name__
    )
    @pytest.mark.parametrize("preset_name", ("rerouted", "weights-only"))
    @pytest.mark.parametrize("objective", ("time", "energy"))
    @pytest.mark.parametrize(
        "knobs", (DEFAULT_KNOBS, WIDENED), ids=("default", "widened")
    )
    def test_matches_the_scalar_loop(self, build, preset_name, objective, knobs):
        # Same IEEE adds in the same association, and argmin keeps the
        # first of equal values as the strict-< scan does: the indices
        # and the folded total are bit-equal, not merely close.
        net = build()
        layers = tuple(net.conv_layers)
        per_layer = feasible_space(net, knobs)
        transition = preset(preset_name)
        expected, folded = scalar_viterbi(
            per_layer, layers, 256, transition, objective, DEFAULT_PARAMS
        )
        got = _solve_dp(
            per_layer, layers, 256, transition, objective, DEFAULT_PARAMS
        )
        assert got == expected
        plan = plan_network(
            net, CONFIG, 256, 256, knobs, transition, objective=objective
        )
        assert plan.total_cost == folded

    def test_rounding_tie_keeps_the_first_candidate(self):
        # Two candidates of one (grid, transform) class whose totals
        # differ by one ulp round to the same value once the 1 s latency
        # is added.  The first must win, as in the scalar loop; taking
        # each class's smallest total first would pick the second.
        net = small_chain(2)
        first, second = (
            layer_candidates(layer, 256, CONFIG, 256)
            for layer in net.conv_layers
        )
        (head,) = [c for c in first if c.grid.num_groups == 1]
        (tail,) = [c for c in second if c.grid.num_groups == 16]
        a = 1e-3
        per_layer = [
            (
                dataclasses.replace(head, batch_split=1, time_s=a),
                dataclasses.replace(
                    head, batch_split=2, time_s=math.nextafter(a, 0)
                ),
            ),
            (tail,),
        ]
        tie = TransitionCostModel(name="tie", latency_s=1.0)
        args = (per_layer, tuple(net.conv_layers), 256, tie, "time",
                DEFAULT_PARAMS)
        assert scalar_viterbi(*args)[0] == (0, 0)
        assert _solve_dp(*args) == (0, 0)

    def test_prices_each_class_pair_once(self, monkeypatch):
        net = wide_resnet_40_10()
        classes = [
            len({(c.grid, _transform_key(c)) for c in cands})
            for cands in feasible_space(net, WIDENED)
        ]
        # One call per previous x current class pair, plus one per layer
        # when the chosen chain is assembled (11,701 candidate pairs
        # were priced before classes were shared).
        bound = sum(p * c for p, c in zip(classes, classes[1:])) + len(classes)
        calls = 0
        price = solver.transition_cost

        def counting(*args):
            nonlocal calls
            calls += 1
            return price(*args)

        monkeypatch.setattr(solver, "transition_cost", counting)
        solver._plan_network_cached.__wrapped__(
            net.name, tuple(net.conv_layers), 256, CONFIG, 256, WIDENED,
            preset("rerouted"), "time", "dp",
        )
        assert 0 < calls <= bound


class TestNonFinitePricing:
    def test_nan_candidate_cost_names_the_layer(self):
        nan_clock = PerfModel(params=HardwareParams(clock_hz=float("nan")))
        with pytest.raises(PlannerError, match="time cost at layer 'conv1_1'"):
            plan_network(
                small_chain(2), CONFIG, 256, 256,
                transition=preset("rerouted"), model=nan_clock,
            )

    def test_nan_transition_cost_names_the_layer(self):
        nan_link = PerfModel(
            params=HardwareParams(full_link_bytes_per_s=float("nan"))
        )
        with pytest.raises(
            PlannerError, match="transition cost at layer 'conv1_2'"
        ):
            plan_network(
                small_chain(2), CONFIG, 256, 256,
                transition=preset("rerouted"), model=nan_link,
            )
