"""BENCHMARK.json, golden digests and the runner's failure accounting."""

import json
import re
from pathlib import Path

import pytest

from bench.run import END_TO_END_UNITS, end_to_end, failures, load_golden
from bench.trace import LAYERS, PER_LAYER_UNITS
from bench.workloads import DATA_SEEDS, WORKLOADS, build

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class TestSpec:
    def test_shape(self):
        assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert 2 <= len(SPEC["workloads"]) <= 8
        assert 1 <= len(SPEC["end_to_end"]) <= 16
        assert 1 <= len(SPEC["per_layer"]) <= 128
        assert 1 <= SPEC["run_seconds"] <= 60
        for path in SPEC["paths"]:
            assert (ROOT / path).is_dir()
        assert any(SPEC["command"][1].startswith(path + "/") for path in SPEC["paths"])

    def test_names(self):
        names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for entry in SPEC[key]]
        assert all(NAME.fullmatch(name) for name in names)
        assert len(names) == len(set(names))
        assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

    def test_end_to_end_matches_runner(self):
        metrics = {m["name"]: m for m in SPEC["end_to_end"]}
        assert {name: m["unit"] for name, m in metrics.items()} == END_TO_END_UNITS
        assert all(0 < m["bound"] <= 0.25 for m in metrics.values())
        assert metrics["setup_s"]["bound"] == max(m["bound"] for m in metrics.values())

    def test_per_layer_matches_tracer(self):
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS

    def test_every_layer_metric_names_what_it_moves(self):
        end_to_end_names = {m["name"] for m in SPEC["end_to_end"]}
        for layer in LAYERS:
            assert layer.moves, layer.name
            for metric, workload in layer.moves:
                assert metric in end_to_end_names
                assert workload in WORKLOADS


class TestGolden:
    def test_every_op_kind_is_pinned(self):
        golden = load_golden()
        kinds = {op.kind for workload in WORKLOADS for seed in range(DATA_SEEDS)
                 for op in build(workload, seed)}
        assert kinds == set(golden)


def _op(kind="plan/vgg16/zero/default", **extra):
    return {"event": "op", "kind": kind, "traced": False, "wall_s": 1.0,
            "digest": "a" * 64, **extra}


class TestFailures:
    golden = {"plan/vgg16/zero/default": "a" * 64}

    def test_clean_ops_pass(self):
        assert failures([_op(), _op()], self.golden) == []

    def test_perturbed_output_fails(self):
        failed = failures([_op(), _op(digest="b" * 64)], self.golden)
        assert len(failed) == 1 and "digest" in failed[0]

    def test_error_and_unknown_kind_fail(self):
        ops = [_op(error="ValueError: non-finite number NaN in output"), _op(kind="new")]
        assert len(failures(ops, self.golden)) == 2

    def test_trace_that_misses_the_wall_clock_fails(self):
        trace = {"wall_s": 1.0, "self_s": {"netsim": 0.5, "other": 0.4}, "counts": {}}
        assert len(failures([_op(trace=trace, traced=True)], self.golden)) == 1


def test_end_to_end_metrics():
    ops = [_op(wall_s=w) for w in (1.0, 3.0, 2.0)]
    metrics = end_to_end([0.5, 0.4, 0.6], ops, 2048)
    assert metrics == pytest.approx(
        {"setup_s": 0.5, "ops_per_s": 0.5, "op_p50_s": 2.0, "peak_rss_mb": 2.0}
    )
