"""`python -m repro plan`: byte-reproducible reports, golden stability,
netsim validation rows."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.planner import REPORT_SCHEMA, plan_report, report_json, preset
from repro.planner.validate import validate_plan_transitions
from repro.planner import plan_network
from repro.core.config import w_mp_plus_plus
from repro.workloads import wide_resnet_40_10

GOLDEN = Path(__file__).parent / "golden" / "plan_vgg16.json"


def run_plan(tmp_path, *extra):
    out = tmp_path / "plan.json"
    main(["plan", "--network", "vgg16", "-o", str(out), *extra])
    return out.read_bytes()


class TestByteReproducibility:
    def test_identical_digest_across_runs(self, tmp_path):
        digests = [
            hashlib.sha256(run_plan(tmp_path, "--transition", "rerouted")).hexdigest()
            for _ in range(2)
        ]
        assert digests[0] == digests[1]

    def test_report_json_is_canonical(self):
        report = plan_report("vgg16")
        text = report_json(report)
        assert text.endswith("\n")
        assert json.loads(text) == report
        assert text == report_json(json.loads(text))


class TestGolden:
    def test_default_plan_matches_checked_in_golden(self, tmp_path):
        # The CI smoke job runs this exact command and diffs the file;
        # regenerate with:
        #   python -m repro plan --network vgg16 -o tests/planner/golden/plan_vgg16.json
        payload = run_plan(tmp_path)
        assert payload == GOLDEN.read_bytes()


class TestReportShape:
    def test_schema_and_sections(self):
        report = plan_report(
            "vgg16", transition="rerouted", modes=("dp",), validate=True
        )
        assert report["schema"] == REPORT_SCHEMA
        assert report["network"] == "VGG-16"
        assert [plan["mode"] for plan in report["plans"]] == ["dp"]
        assert report["greedy"]["mode"] == "greedy"
        for plan in report["plans"]:
            assert plan["vs_greedy"]["greedy_total"] >= plan["total_cost"]
            assert len(plan["layers"]) == 13
        assert isinstance(report["validation"], list)

    def test_unknown_names_rejected(self):
        from repro.planner import PlannerError

        with pytest.raises(PlannerError):
            plan_report("alexnet")
        with pytest.raises(PlannerError):
            plan_report("vgg16", config="tpu")
        with pytest.raises(PlannerError):
            plan_report("vgg16", transition="teleport")

    def test_cli_rejects_removed_beam_mode(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_plan(tmp_path, "--modes", "beam")
        message = str(excinfo.value.code)
        assert "'beam'" in message
        assert "'dp'" in message and "'oracle'" in message


class TestValidation:
    def test_costed_transitions_replay_on_netsim(self):
        net = wide_resnet_40_10()
        plan = plan_network(
            net, w_mp_plus_plus(), 256, 256, transition=preset("rerouted")
        )
        rows = validate_plan_transitions(plan)
        assert len(rows) == plan.transitions > 0
        for row in rows:
            assert row["analytic_s"] > 0
            if row["messages"]:
                assert row["simulated_s"] > 0
                assert 0.1 < row["ratio"] < 10.0

    def test_zero_preset_has_nothing_to_validate(self):
        net = wide_resnet_40_10()
        plan = plan_network(net, w_mp_plus_plus(), 256, 256)
        assert validate_plan_transitions(plan) == []
