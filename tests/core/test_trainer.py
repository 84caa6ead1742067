"""Tests for the end-to-end training-iteration simulator."""

import pytest

from repro.core import (
    MachineConfig,
    TrainingSimulator,
    table4_configs,
    w_dp,
    w_mp,
    w_mp_plus,
    w_mp_plus_plus,
)
from repro.workloads import five_layers, resnet34, vgg16, wide_resnet_40_10


@pytest.fixture(scope="module")
def sim():
    return TrainingSimulator(MachineConfig(workers=256, batch=256))


@pytest.fixture(scope="module")
def net():
    return wide_resnet_40_10()


class TestIteration:
    def test_layers_all_reported(self, sim, net):
        result = sim.simulate_iteration(net, w_dp())
        assert len(result.layers) == len(net.conv_layers)

    @pytest.mark.parametrize("network", [wide_resnet_40_10, vgg16])
    def test_each_report_names_its_own_layer(self, sim, network):
        """Same-shape layers share one clustering choice, but each
        report carries its own layer, not the first one of its shape."""
        net = network()
        result = sim.simulate_iteration(net, w_mp_plus_plus())
        assert [r.layer.name for r in result.layers] == [
            layer.name for layer in net.conv_layers
        ]

    def test_iteration_time_between_bounds(self, sim, net):
        """Overlap: iteration time is at most the serial sum of phases
        and at least the forward+bprop critical path."""
        result = sim.simulate_iteration(net, w_dp())
        serial = sum(r.forward_s + r.backward_s for r in result.layers)
        compute_only = sum(
            r.forward_s + r.perf.phases["bprop"].time_s for r in result.layers
        )
        assert compute_only <= result.iteration_s <= serial + 1e-9

    def test_throughput(self, sim, net):
        result = sim.simulate_iteration(net, w_dp())
        assert result.images_per_s == pytest.approx(256 / result.iteration_s)

    def test_machine_energy_scales_with_workers(self, net):
        small = TrainingSimulator(MachineConfig(workers=16, batch=256))
        result = small.simulate_iteration(net, w_dp())
        per_worker = sum(
            (r.perf.energy_j for r in result.layers),
            start=type(result.energy_j)(),
        )
        assert result.energy_j.total_j == pytest.approx(16 * per_worker.total_j)


class TestPaperHeadlines:
    def test_w_mp_pp_beats_w_dp_on_all_networks(self, sim):
        # ResNet-34's narrow channels limit the MPT win (see
        # EXPERIMENTS.md); WRN's wide late layers benefit strongly.
        for net, floor in ((wide_resnet_40_10(), 1.8), (resnet34(), 1.2)):
            base = sim.simulate_iteration(net, w_dp())
            best = sim.simulate_iteration(net, w_mp_plus_plus())
            assert base.iteration_s / best.iteration_s > floor

    def test_feature_ordering(self, sim, net):
        """Each added mechanism must not slow the full network down:
        w_mp++ <= w_mp+ <= w_mp in iteration time."""
        t_mp = sim.simulate_iteration(net, w_mp()).iteration_s
        t_mpp = sim.simulate_iteration(net, w_mp_plus()).iteration_s
        t_mppp = sim.simulate_iteration(net, w_mp_plus_plus()).iteration_s
        assert t_mppp <= t_mpp <= t_mp + 1e-12

    def test_single_worker_has_no_communication(self):
        solo = TrainingSimulator(MachineConfig(workers=1, batch=256))
        result = solo.simulate_iteration(wide_resnet_40_10(), w_dp())
        for report in result.layers:
            assert report.perf.phases["update"].net_collective_s == 0.0

    def test_scaling_efficiency_shape(self):
        """Fig. 17: DP scales sub-linearly from 1 to 256 workers; MPT
        scales better."""
        net = wide_resnet_40_10()
        t1 = (
            TrainingSimulator(MachineConfig(workers=1, batch=256))
            .simulate_iteration(net, w_dp())
            .iteration_s
        )
        sim256 = TrainingSimulator(MachineConfig(workers=256, batch=256))
        dp = sim256.simulate_iteration(net, w_dp()).iteration_s
        mpt = sim256.simulate_iteration(net, w_mp_plus_plus()).iteration_s
        dp_speedup = t1 / dp
        mpt_speedup = t1 / mpt
        assert dp_speedup < 256  # sub-linear
        assert mpt_speedup > 1.5 * dp_speedup


class TestSingleLayer:
    def test_all_configs_evaluate(self, sim):
        for layer in five_layers():
            for config in table4_configs():
                report = sim.evaluate_single_layer(layer, config)
                assert report.forward_s > 0
