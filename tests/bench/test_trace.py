"""The benchmark tracer: exact self-time split and transparency."""

import time

import pytest

import contextlib
import io

import repro.analysis.figures as figures
import repro.analysis.planner as planner_figures
import repro.faults
import repro.nn.layers
from bench.trace import LAYERS, LEAF_LAYERS, Tracer, layer_metrics, self_time_gap
from bench.workloads import Op, canonical, clear_sweep_caches, plan_op
from repro.core import MachineConfig, TrainingSimulator, table4_configs
from repro.statcheck.cli import main as statcheck_main
from repro.workloads import table1_networks


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TestSelfTime:
    def test_nested_and_recursive_tree_sums_to_wall(self):
        tracer = Tracer()

        def leaf():
            _spin(0.002)

        def recurse(depth):
            _spin(0.001)
            if depth:
                recurse_traced(depth - 1)
            leaf_traced()

        def top():
            _spin(0.002)
            recurse_traced(3)
            _spin(0.001)

        leaf_traced = tracer.wrap("netsim", leaf, None)
        recurse_traced = tracer.wrap("core", recurse, None)
        top_traced = tracer.wrap("planner", top, None)

        def op():
            _spin(0.001)
            top_traced()

        _, record = tracer.measure(op)
        assert self_time_gap(record) < 0.01
        self_s = record["self_s"]
        # Four leaf calls, four recursion levels, one top: exclusive times.
        assert self_s["netsim"] == pytest.approx(0.008, rel=0.5)
        assert self_s["core"] == pytest.approx(0.004, rel=0.5)
        assert self_s["planner"] == pytest.approx(0.003, rel=0.5)
        assert self_s["other"] == pytest.approx(0.001, rel=0.9)
        assert sum(self_s.values()) == pytest.approx(record["wall_s"], rel=0.01)

    def test_wrappers_pass_through_outside_an_op(self):
        tracer = Tracer()
        traced = tracer.wrap("core", lambda x: x + 1, None)
        assert traced(1) == 2
        _, record = tracer.measure(lambda: traced(2))
        assert set(record["self_s"]) == {"core", "other"}

    def test_layer_metrics_cover_every_leaf(self):
        record = {"wall_s": 2.0, "self_s": {"netsim": 1.5, "other": 0.5},
                  "counts": {"netsim.packets": 30, "netsim.messages": 4,
                             "netsim.flows_coalesced": 1}}
        metrics = layer_metrics([record, record], [2.0, 2.0], [1.0, 3.0])
        assert metrics["netsim.self_s"] == 1.5
        assert metrics["netsim.packets_per_s"] == 20.0
        assert metrics["netsim.flow_coalesce_frac"] == 0.25
        assert metrics["trace.overhead_frac"] == 0.0
        assert metrics["winograd.self_s"] == 0.0
        assert {f"{layer}.self_s" for layer in LEAF_LAYERS} <= set(metrics)


# One small op per workload, calling repro the way the workload's op does:
# module attributes looked up at call time, so the tracer's rebinding applies.


def _tiny_report():
    return canonical([figures.table1_rows(), figures.fig12_rows(seed=1), figures.fig15_rows()])


def _tiny_faults():
    report = repro.faults.run_scenario(
        "dead-worker", seed=1, grids=[(16, 16)], include_iteration=False
    )
    return repro.faults.report_json(report)


def _tiny_model():
    sim = TrainingSimulator(MachineConfig())
    result = sim.simulate_iteration(table1_networks()[0], table4_configs()[0])
    return canonical([figures.fig15_rows(), planner_figures.planner_rows(),
                      result.iteration_s])


def _tiny_statcheck():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert statcheck_main(["src/repro/params.py", "--json"]) == 0
    return buffer.getvalue()


TINY_OPS = [
    Op("report", _tiny_report),
    Op("faults", _tiny_faults),
    Op("plan", lambda: plan_op("vgg16", "zero", False)),
    Op("model", _tiny_model),
    Op("statcheck", _tiny_statcheck),
]


class TestTransparency:
    @pytest.mark.parametrize("op", TINY_OPS, ids=[op.kind for op in TINY_OPS])
    def test_traced_output_equals_untraced(self, op):
        clear_sweep_caches()
        untraced, _ = op.call()
        clear_sweep_caches()
        traced, record = op.call_traced(Tracer())
        assert traced == untraced
        assert self_time_gap(record) < 0.01
        layers = {layer for layer, seconds in record["self_s"].items() if seconds > 0}
        assert layers - {"other"}, "no layer boundary was crossed"

    def test_uninstall_restores_every_binding(self):
        run_scenario = repro.faults.run_scenario
        forward = repro.nn.layers.winograd_forward
        tracer = Tracer()
        tracer.install()
        try:
            assert repro.faults.run_scenario is not run_scenario
            assert repro.nn.layers.winograd_forward is not forward
        finally:
            tracer.uninstall()
        assert repro.faults.run_scenario is run_scenario
        assert repro.nn.layers.winograd_forward is forward

    def test_every_boundary_resolves(self):
        names = [layer.name for layer in LAYERS]
        assert len(names) == len(set(names))
        tracer = Tracer()
        tracer.install()  # raises on a missing or memoized target
        tracer.uninstall()
