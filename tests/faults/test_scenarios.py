"""Scenario registry, byte-reproducible reports, and the golden
no-faults-imported identity check."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import fault_degradation_rows
from repro.cli import main
from repro.core.config import PAPER_GRIDS
from repro.faults import (
    REPORT_SCHEMA,
    SCENARIOS,
    report_json,
    resilience,
    run_scenario,
    run_scenario_on_grid,
    scenario_names,
    scenarios,
)
from repro.netsim import reconfiguration
from repro.netsim.reconfiguration import reconfigure
from repro.params import DEFAULT_PARAMS

# The timestamps a simulation must produce whether or not repro.faults
# was ever imported into the process (zero-cost-when-disabled).
_GOLDEN_SCRIPT = """
import sys
from repro.netsim import (
    NetworkSimulator, all_to_all, flattened_butterfly_2d, ring, ring_allreduce,
)
from repro.params import DEFAULT_PARAMS

sim = NetworkSimulator(ring(8), packet_bytes=DEFAULT_PARAMS.collective_packet_bytes)
ar = ring_allreduce(sim, list(range(8)), 40_000)
sim2 = NetworkSimulator(flattened_butterfly_2d(4, 4))
a2a = all_to_all(sim2, list(range(16)), 4_000)
assert "repro.faults" not in sys.modules, "faults must not be imported here"
print(repr((ar.finish_time_s, ar.messages, a2a.finish_time_s, a2a.messages)))
"""


class TestGoldenNoFaultIdentity:
    def test_timestamps_identical_with_and_without_faults_package(self):
        """Acceptance: allreduce + all-to-all completion timestamps are
        identical whether repro.faults is imported (as it is in this
        process) or never loaded at all (the subprocess)."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", _GOLDEN_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        from repro.netsim import (
            NetworkSimulator,
            all_to_all,
            flattened_butterfly_2d,
            ring,
            ring_allreduce,
        )
        from repro.params import DEFAULT_PARAMS

        assert "repro.faults" in sys.modules  # this process has it loaded
        sim = NetworkSimulator(
            ring(8), packet_bytes=DEFAULT_PARAMS.collective_packet_bytes
        )
        ar = ring_allreduce(sim, list(range(8)), 40_000)
        sim2 = NetworkSimulator(flattened_butterfly_2d(4, 4))
        a2a = all_to_all(sim2, list(range(16)), 4_000)
        here = repr((ar.finish_time_s, ar.messages, a2a.finish_time_s, a2a.messages))
        assert out.stdout.strip() == here


class TestScenarioRegistry:
    def test_expected_scenarios_registered(self):
        assert set(scenario_names()) == {
            "baseline",
            "single-link-down",
            "dead-worker",
            "straggler-1.5x",
            "straggler-4x",
            "lossy-inter-cluster",
        }

    def test_every_scenario_has_a_doc(self):
        for name in scenario_names():
            assert (SCENARIOS[name].__doc__ or "").strip(), name

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_scenario_on_grid("no-such-scenario", 16, 16)


class TestReports:
    def test_baseline_row_has_unit_slowdown(self):
        row = run_scenario_on_grid("baseline", 16, 16, message_bytes=16 * 1024)
        assert row["slowdown"] == 1.0
        assert row["completed"] and not row["recovered"]
        assert row["retransmits"] == 0
        assert row["dead_workers"] == []

    def test_dead_worker_row_reports_recovery(self):
        row = run_scenario_on_grid("dead-worker", 16, 16, message_bytes=16 * 1024)
        assert row["completed"] and row["recovered"]
        assert row["ring_size_after"] == 15
        assert row["reconfig_latency_s"] > 0
        assert row["slowdown"] > 1.0
        assert len(row["attempts"]) == 2

    def test_report_schema_and_byte_identity(self):
        kwargs = dict(
            seed=0, message_bytes=16 * 1024, grids=[(16, 16)],
            include_iteration=False,
        )
        a = report_json(run_scenario("dead-worker", **kwargs))
        b = report_json(run_scenario("dead-worker", **kwargs))
        assert a == b
        report = json.loads(a)
        assert report["schema"] == REPORT_SCHEMA
        assert report["scenario"] == "dead-worker"
        assert report["seed"] == 0
        assert [row["grid"] for row in report["grids"]] == ["16Ng-16Nc"]

    def test_straggler_scenario_iteration_slowdown(self):
        report = run_scenario(
            "straggler-1.5x", message_bytes=16 * 1024, grids=[(16, 16)],
        )
        it = report["iteration"]
        # Collective unaffected, iteration stretched by the straggler.
        assert report["grids"][0]["slowdown"] == 1.0
        assert 1.0 < it["slowdown"] <= 1.5 + 1e-9
        assert it["effective_batch"] == 256

    def test_dead_worker_iteration_reduces_batch(self):
        report = run_scenario(
            "dead-worker", message_bytes=16 * 1024, grids=[(16, 16)],
        )
        it = report["iteration"]
        assert it["effective_batch"] == 255
        assert it["grad_renorm"] > 1.0


class TestInvalidInput:
    @pytest.mark.parametrize("message_bytes", [0, -4096])
    def test_run_scenario_rejects_empty_messages(self, message_bytes):
        with pytest.raises(ValueError, match="message_bytes"):
            run_scenario("baseline", message_bytes=message_bytes,
                         grids=[(16, 16)], include_iteration=False)

    def test_run_scenario_rejects_no_grids(self):
        with pytest.raises(ValueError, match="grids"):
            run_scenario("baseline", grids=[])

    @pytest.mark.parametrize("grid", [(16, 5), (4, 16), (32, 8), (0, 16)])
    def test_run_scenario_rejects_grids_that_do_not_split_the_machine(self, grid):
        with pytest.raises(ValueError, match="does not split the 16x16 machine"):
            run_scenario("baseline", grids=[grid], include_iteration=False)

    @pytest.mark.parametrize("argv", [
        ["--message-bytes", "-1", "--grids", "16x16"],
        ["--message-bytes", "0", "--grids", "16x16"],
        ["--grids", "0x16"],
        ["--grids", "16x5"],
        ["--grids", "4x16"],
        ["--grids", "32x8"],
        ["--grids", "16"],
    ])
    def test_cli_exits_with_one_line_and_no_report(self, tmp_path, argv):
        out = tmp_path / "bad.json"
        with pytest.raises(SystemExit) as info:
            main(["faults", "--scenario", "baseline", "--no-iteration",
                  "-o", str(out), *argv])
        message = info.value.code
        assert isinstance(message, str) and message and "\n" not in message
        assert not out.exists()


def _clear_machine_caches():
    """Make the next scenario run cold: forget every grid's machine and
    every collective run on it."""
    for kernel in (
        reconfigure,
        scenarios._baseline_collective_cached,
        scenarios._resilient_collective_cached,
        scenarios._scenario_grid_row_cached,
    ):
        kernel.cache_clear()


class TestOneMachinePerGrid:
    """Each grid is one machine that every run shares and none changes."""

    def test_scenarios_leave_the_shared_machine_unchanged(self):
        assert reconfigure(16, 16, 16) is reconfigure(16, 16, 16)
        # The memo keys on the call as written; the scenario kernels
        # pass ``params`` positionally.
        machine = reconfigure(16, 16, 16, DEFAULT_PARAMS)
        topology = machine.topology
        links, routing_fn = list(topology.links), topology.routing_fn
        for name in scenario_names():
            # A message size no other test uses: the collective kernels
            # run here, on the warm machine.
            run_scenario(name, message_bytes=12_345, grids=[(16, 16)])
            assert reconfigure(16, 16, 16, DEFAULT_PARAMS) is machine, name
            assert machine.topology is topology, name
            assert len(topology.links) == len(links), name
            assert all(a is b for a, b in zip(topology.links, links)), name
            assert topology.routing_fn is routing_fn, name

    def test_dead_worker_recovers_on_a_bridged_copy(self, monkeypatch):
        machine = reconfigure(16, 16, 16, DEFAULT_PARAMS)
        seen = []
        attempt = resilience._attempt

        def recording(topology, *args):
            seen.append(topology)
            return attempt(topology, *args)

        monkeypatch.setattr(resilience, "_attempt", recording)
        plan = SCENARIOS["dead-worker"](machine, 0)
        result = resilience.resilient_ring_allreduce(machine, 0, 16 * 1024, plan)
        assert result.recovered and result.bridges_added == 1
        first, degraded = seen
        assert first is machine.topology
        assert degraded is not machine.topology
        assert [link.name for link in degraded.links].count("host-bridge") == 2
        assert all(link.name != "host-bridge" for link in machine.topology.links)

    def test_cold_scenario_builds_the_machine_once(self, monkeypatch):
        builds = []
        hybrid = reconfiguration.hybrid

        def counting(*args, **kwargs):
            builds.append(args)
            return hybrid(*args, **kwargs)

        monkeypatch.setattr(reconfiguration, "hybrid", counting)
        _clear_machine_caches()
        run_scenario("baseline", grids=[(16, 16)])
        assert len(builds) == 1


@pytest.mark.slow
def test_degradation_sweep_equals_cold_runs():
    """Every row of the one-process sweep (shared machines, the
    scenarios in order) equals that scenario run alone, cold."""
    _clear_machine_caches()
    swept = fault_degradation_rows()
    expected = []
    for name in scenario_names():
        for num_groups, num_clusters in PAPER_GRIDS:
            _clear_machine_caches()
            row = run_scenario_on_grid(name, num_groups, num_clusters)
            expected.append({
                "scenario": name,
                "grid": row["grid"],
                "ring_after": row["ring_size_after"],
                "baseline_us": row["baseline_s"] * 1e6,
                "faulted_us": row["faulted_s"] * 1e6,
                "slowdown": row["slowdown"],
                "retransmits": row["retransmits"],
                "dead": len(row["dead_workers"]),
                "reconfig_us": row["reconfig_latency_s"] * 1e6,
                "completed": row["completed"],
            })
    assert swept == expected
