"""FaultImpact and the trainer's degraded-iteration path."""

import pytest

from repro.core import FaultImpact, MachineConfig, TrainingSimulator, w_mp_plus_plus
from repro.faults import FaultPlan, Straggler, WorkerFault
from repro.workloads.layers import ConvLayerSpec
from repro.workloads.networks import CnnSpec


def tiny_net():
    return CnnSpec(
        name="tiny",
        dataset="unit-test",
        conv_layers=[
            ConvLayerSpec(
                name="conv1", in_channels=16, out_channels=16,
                height=16, width=16, kernel=3,
            ),
            ConvLayerSpec(
                name="conv2", in_channels=16, out_channels=32,
                height=16, width=16, kernel=3,
            ),
        ],
    )


def make_sim():
    return TrainingSimulator(MachineConfig(workers=16, batch=16))


class TestFaultImpact:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultImpact(workers=16, compute_slowdown=0.5)
        with pytest.raises(ValueError):
            FaultImpact(workers=16, dead_workers=16)
        with pytest.raises(ValueError):
            FaultImpact(workers=16, dead_workers=-1)

    def test_grad_renorm_and_effective_batch(self):
        impact = FaultImpact(workers=16, dead_workers=2)
        assert impact.survivors == 14
        assert impact.grad_renorm == pytest.approx(16 / 14)
        assert impact.effective_batch(32) == 28

    def test_from_plan_straggler(self):
        plan = FaultPlan(stragglers=(Straggler(worker=3, slowdown=2.5),))
        impact = FaultImpact.from_plan(plan, workers=16)
        assert impact.compute_slowdown == 2.5
        assert impact.dead_workers == 0
        assert impact.collective_scale == 1.0

    def test_from_plan_dead_worker_scales_collective(self):
        plan = FaultPlan(worker_faults=(WorkerFault(worker=3),))
        impact = FaultImpact.from_plan(plan, workers=16)
        assert impact.dead_workers == 1
        # 2(n'-1)/n' over 2(n-1)/n with n=16, n'=15.
        assert impact.collective_scale == pytest.approx(
            (14 / 15) / (15 / 16)
        )
        assert impact.grad_renorm == pytest.approx(16 / 15)


class TestDegradedIteration:
    def test_faults_none_is_bit_identical(self):
        sim = make_sim()
        net, config = tiny_net(), w_mp_plus_plus()
        clean = sim.simulate_iteration(net, config)
        explicit = sim.simulate_iteration(net, config, faults=None)
        assert explicit.iteration_s == clean.iteration_s
        assert explicit.effective_batch == 0  # sentinel: untouched
        assert explicit.grad_renorm == 1.0

    def test_noop_impact_changes_nothing(self):
        sim = make_sim()
        net, config = tiny_net(), w_mp_plus_plus()
        clean = sim.simulate_iteration(net, config)
        noop = FaultImpact(workers=16)
        result = sim.simulate_iteration(net, config, faults=noop)
        assert result.iteration_s == clean.iteration_s
        assert result.effective_batch == 16
        assert result.grad_renorm == 1.0

    def test_straggler_stretches_iteration(self):
        sim = make_sim()
        net, config = tiny_net(), w_mp_plus_plus()
        clean = sim.simulate_iteration(net, config)
        slow = sim.simulate_iteration(
            net, config, faults=FaultImpact(workers=16, compute_slowdown=2.0)
        )
        assert clean.iteration_s < slow.iteration_s <= 2.0 * clean.iteration_s + 1e-12

    def test_dead_worker_reduces_effective_batch(self):
        sim = make_sim()
        net, config = tiny_net(), w_mp_plus_plus()
        impact = FaultImpact(
            workers=16, dead_workers=1, collective_scale=0.995,
            collective_overhead_s=1e-5,
        )
        result = sim.simulate_iteration(net, config, faults=impact)
        assert result.effective_batch == 15
        assert result.grad_renorm == pytest.approx(16 / 15)
        assert result.images_per_s == pytest.approx(15 / result.iteration_s)

    def test_overhead_charged_once(self):
        sim = make_sim()
        net, config = tiny_net(), w_mp_plus_plus()
        base = sim.simulate_iteration(
            net, config, faults=FaultImpact(workers=16)
        )
        charged = sim.simulate_iteration(
            net, config,
            faults=FaultImpact(workers=16, collective_overhead_s=1.0),
        )
        # One second of overhead on the first collective; with a 1 s
        # stall on the network resource the makespan grows by <= 1 s
        # (and by at least something, since collectives end the
        # iteration's critical path when inflated this much).
        growth = charged.iteration_s - base.iteration_s
        assert 0.0 < growth <= 1.0 + 1e-9
