"""Named fault scenarios and the deterministic scenario runner.

Each scenario is a recipe that, given a concrete reconfigured machine,
produces a :class:`FaultPlan` targeting that machine's first logical
ring (victims are picked deterministically from the ring order, so the
same scenario name and seed always build the same plan).  The runner
executes a scenario across the paper's three 256-worker grids —
``(16 N_g, 16 N_c)``, ``(4 N_g, 64 N_c)``, ``(1 N_g, 256 N_c)`` — and
emits a schema'd, byte-reproducible JSON report: collective slowdown
versus the fault-free baseline, retransmit counts, detection and
reconfiguration latency, and the training-iteration impact under
synchronous SGD.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from ..core.config import PAPER_GRIDS, MachineConfig, w_mp_plus_plus
from ..core.trainer import FaultImpact, TrainingSimulator
from ..netsim.reconfiguration import ReconfiguredMachine, reconfigure
from ..params import DEFAULT_PARAMS, HardwareParams
from ..perf import memoize_sweep
from ..workloads.networks import wide_resnet_40_10
from .plan import FaultPlan, LinkFault, PacketLoss, Straggler, WorkerFault
from .resilience import baseline_ring_allreduce, resilient_ring_allreduce

REPORT_SCHEMA = "repro.faults.report/v1"

#: A scenario builds a plan against a concrete machine's first ring.
ScenarioFn = Callable[[ReconfiguredMachine, int], FaultPlan]


def _baseline(machine: ReconfiguredMachine, seed: int) -> FaultPlan:
    """The perfect machine — the empty plan (sanity reference: zero
    slowdown, zero retransmits, single completed attempt)."""
    return FaultPlan(seed=seed)


def _single_link_down(machine: ReconfiguredMachine, seed: int) -> FaultPlan:
    """One unidirectional ring link dead from t = 0 (SerDes failure).

    Both endpoints survive, so recovery flips the ring orientation and
    the reverse-direction links carry the collective."""
    ring = machine.logical_rings[0]
    return FaultPlan(
        seed=seed,
        link_faults=(LinkFault(src=ring[0], dst=ring[1]),),
    )


def _dead_worker(machine: ReconfiguredMachine, seed: int) -> FaultPlan:
    """One worker dead from t = 0; recovery splices it out of the ring
    and the iteration proceeds at reduced effective batch."""
    ring = machine.logical_rings[0]
    return FaultPlan(
        seed=seed,
        worker_faults=(WorkerFault(worker=ring[len(ring) // 2]),),
    )


def _straggler(factor: float) -> ScenarioFn:
    def build(machine: ReconfiguredMachine, seed: int) -> FaultPlan:
        ring = machine.logical_rings[0]
        return FaultPlan(
            seed=seed,
            stragglers=(Straggler(worker=ring[1], slowdown=factor),),
        )

    build.__doc__ = (
        f"One worker computes {factor}x slower; synchronous SGD waits, "
        "so the whole iteration stretches (the network is unaffected)."
    )
    return build


def _lossy_inter_cluster(machine: ReconfiguredMachine, seed: int) -> FaultPlan:
    """0.5% packet loss on every inter-cluster ring link; the engine
    retransmits with exponential backoff and the collective completes,
    slower, on the first attempt."""
    return FaultPlan(
        seed=seed,
        losses=(PacketLoss(loss_prob=0.005, link_name_prefix="group"),),
    )


#: The scenario table proper — a tuple of pairs, *immutable by
#: construction*, so the memoized grid-row kernel below may read it
#: while staying statically pure (the effect analysis only treats
#: mutable-container globals as impure reads).
_SCENARIO_BASE: Tuple[Tuple[str, ScenarioFn], ...] = (
    ("baseline", _baseline),
    ("single-link-down", _single_link_down),
    ("dead-worker", _dead_worker),
    ("straggler-1.5x", _straggler(1.5)),
    ("straggler-4x", _straggler(4.0)),
    ("lossy-inter-cluster", _lossy_inter_cluster),
)

#: Mapping view of the table for name-based consumers (CLI listing,
#: docstring lookup).  Derived from ``_SCENARIO_BASE``; treat as
#: read-only.
SCENARIOS: Dict[str, ScenarioFn] = dict(_SCENARIO_BASE)


def _scenario_builder(name: str) -> ScenarioFn:
    """Pure lookup into the immutable scenario table."""
    for scenario_name, build in _SCENARIO_BASE:
        if scenario_name == name:
            return build
    raise KeyError(
        f"unknown scenario {name!r}; available: "
        + ", ".join(scenario_name for scenario_name, _ in _SCENARIO_BASE)
    )


def scenario_names() -> List[str]:
    return [name for name, _ in _SCENARIO_BASE]


def _grid_label(num_groups: int, num_clusters: int) -> str:
    return f"{num_groups}Ng-{num_clusters}Nc"


def run_scenario_on_grid(
    name: str,
    num_groups: int,
    num_clusters: int,
    seed: int = 0,
    message_bytes: int = 64 * 1024,
    params: HardwareParams = DEFAULT_PARAMS,
) -> dict:
    """One scenario on one paper grid; returns the per-grid report row.

    Memoized process-wide on the contents of every argument (the fault
    engine is deterministic given the plan seed, so the row is a pure
    function of this tuple); the returned row is shared across equal
    calls and must be treated as read-only.
    """
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}"
        )
    return _scenario_grid_row_cached(
        name, num_groups, num_clusters, seed, message_bytes, params
    )


@memoize_sweep
def _baseline_collective_cached(
    num_groups: int, message_bytes: int, params: HardwareParams
) -> "CollectiveResult":
    """Fault-free reference collective for one paper grid.

    Split out of the row kernel and memoized separately because every
    scenario row on a grid pays for the *same* baseline run — on the
    ``(1, 256)`` grid that run is a multi-second contended packet
    simulation, and the battery used to repeat it six times per cold
    round."""
    machine = reconfigure(16, 16, num_groups, params)
    return baseline_ring_allreduce(machine, 0, message_bytes, params)


@memoize_sweep
def _resilient_collective_cached(
    num_groups: int,
    message_bytes: int,
    network_plan: FaultPlan,
    params: HardwareParams,
) -> "ResilientAllreduceResult":
    """Resilient collective for one grid and one *network* plan.

    Keyed on the plan with stragglers stripped: stragglers only slow
    compute (the trainer's concern), never the network, so the baseline
    and both straggler scenarios share one cached run per grid."""
    machine = reconfigure(16, 16, num_groups, params)
    return resilient_ring_allreduce(machine, 0, message_bytes, network_plan, params)


@memoize_sweep
def _scenario_grid_row_cached(
    name: str,
    num_groups: int,
    num_clusters: int,
    seed: int,
    message_bytes: int,
    params: HardwareParams,
) -> dict:
    """The scenario-battery kernel: statically pure (EFF001), so safe to
    memoize.

    The machine is built per nested kernel — once for the fault-free
    baseline and once for the fault run — because recovery may splice
    the topology.  The expensive network runs are shared through the
    nested memoized kernels above; the results are cached and must be
    treated as read-only (this function only reads scalar fields).
    """
    build = _scenario_builder(name)

    baseline = _baseline_collective_cached(num_groups, message_bytes, params)

    plan = build(reconfigure(16, 16, num_groups, params), seed)
    result = _resilient_collective_cached(
        num_groups, message_bytes, replace(plan, stragglers=()), params
    )

    return {
        "grid": _grid_label(num_groups, num_clusters),
        "ring_size": result.ring_size_before,
        "ring_size_after": result.ring_size_after,
        "baseline_s": baseline.finish_time_s,
        "faulted_s": result.finish_time_s,
        "slowdown": (
            result.finish_time_s / baseline.finish_time_s
            if baseline.finish_time_s
            else 0.0
        ),
        "completed": result.completed,
        "recovered": result.recovered,
        "dead_workers": result.dead_workers,
        "detection_latency_s": result.detection_latency_s,
        "reconfig_latency_s": result.reconfig_latency_s,
        "bridges_added": result.bridges_added,
        "retransmits": result.retransmits,
        "packets_dropped": result.packets_dropped,
        "packets_failed": result.packets_failed,
        "grad_renorm": result.grad_renorm,
        "attempts": [
            {
                "ring_size": a.ring_size,
                "start_s": a.start_s,
                "finish_s": a.finish_s,
                "completed": a.completed,
                "messages": a.messages,
                "reversed_ring": a.reversed_ring,
            }
            for a in result.attempts
        ],
    }


def _iteration_impact(
    plan: FaultPlan,
    collective_overhead_s: float,
    params: HardwareParams,
) -> dict:
    """Training-iteration impact of the plan under synchronous SGD
    (paper workload: WRN-40-10 on the 256-worker w_mp++ machine)."""
    machine = MachineConfig(params=params)
    sim = TrainingSimulator(machine)
    net = wide_resnet_40_10()
    config = w_mp_plus_plus()
    clean = sim.simulate_iteration(net, config)
    impact = FaultImpact.from_plan(
        plan, machine.workers, collective_overhead_s=collective_overhead_s
    )
    faulted = sim.simulate_iteration(net, config, faults=impact)
    return {
        "network": net.name,
        "config": config.name,
        "workers": machine.workers,
        "baseline_s": clean.iteration_s,
        "faulted_s": faulted.iteration_s,
        "slowdown": (
            faulted.iteration_s / clean.iteration_s if clean.iteration_s else 0.0
        ),
        "effective_batch": faulted.effective_batch or faulted.batch,
        "grad_renorm": faulted.grad_renorm,
        "compute_slowdown": impact.compute_slowdown,
        "collective_scale": impact.collective_scale,
    }


def run_scenario(
    name: str,
    seed: int = 0,
    message_bytes: int = 64 * 1024,
    grids: Optional[List[Tuple[int, int]]] = None,
    params: HardwareParams = DEFAULT_PARAMS,
    include_iteration: bool = True,
) -> dict:
    """Run one named scenario across the paper grids.

    The report is pure data derived from the simulated clock — running
    the same (name, seed, message_bytes, grids) twice yields
    byte-identical JSON (see :func:`report_json`).
    """
    grid_list = list(grids) if grids is not None else list(PAPER_GRIDS)
    rows = [
        run_scenario_on_grid(
            name, ng, nc, seed=seed, message_bytes=message_bytes, params=params
        )
        for ng, nc in grid_list
    ]
    report = {
        "schema": REPORT_SCHEMA,
        "scenario": name,
        "doc": (SCENARIOS[name].__doc__ or "").strip(),
        "seed": seed,
        "message_bytes": message_bytes,
        "grids": rows,
    }
    if include_iteration:
        # Detection + reconfiguration overhead measured on the first
        # grid (the 16-ring the trainer's collective model uses).
        first_machine = reconfigure(16, 16, grid_list[0][0], params)
        plan = SCENARIOS[name](first_machine, seed)
        overhead = rows[0]["detection_latency_s"] + rows[0]["reconfig_latency_s"]
        report["iteration"] = _iteration_impact(plan, overhead, params)
    return report


def report_json(report: dict) -> str:
    """Canonical serialisation: sorted keys, fixed separators, trailing
    newline — two runs of the same scenario diff clean."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
