"""Timeout detection and degraded-ring recovery for ring collectives.

The recovery story mirrors what the paper's machine could actually do:
dynamic clustering (Section IV) already splices physical rings into
logical rings through host bridges, so when a worker dies the host can
run the *same* splice to cut it out of its gradient ring — surviving
workers form a shorter full-bandwidth ring and synchronous SGD proceeds
at a reduced effective batch (the trainer renormalises the gradient
mean, :class:`repro.core.trainer.FaultImpact`).

The sequence simulated by :func:`resilient_ring_allreduce`:

1. Run the pipelined ring all-reduce with a watchdog deadline
   (``watchdog_factor`` x the fault-free closed-form time).
2. If the watchdog fires, detect dead workers/links (what a heartbeat
   monitor would see at that simulated instant) and reconstruct the
   ring: dead workers are spliced out via
   :func:`repro.netsim.reconfiguration.splice_out`; a permanently dead
   forward-direction ring link with live reverse links flips the ring
   orientation instead (rings are physically bidirectional).
3. Charge host control-plane latency per bridge programmed, and re-run
   the collective on the degraded ring from the detection instant.

Everything runs on the simulated clock; given the plan seed the whole
sequence is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..netsim.collectives import CollectiveResult, ring_allreduce, ring_allreduce_time
from ..netsim.engine import NetworkSimulator
from ..netsim.reconfiguration import ReconfiguredMachine, splice_out
from ..netsim.topology import Topology
from ..params import DEFAULT_PARAMS, HardwareParams
from .injector import FaultInjector
from .plan import FaultPlan


@dataclass
class AttemptReport:
    """One collective attempt (original or degraded ring)."""

    ring_size: int
    start_s: float
    finish_s: float
    completed: bool
    messages: int
    bytes_on_wire: float
    reversed_ring: bool = False


@dataclass
class ResilientAllreduceResult:
    """Outcome of a fault-tolerant ring all-reduce.

    ``grad_renorm`` is the factor the trainer must scale the reduced
    gradient sum by so the mean stays unbiased over the surviving
    workers' shards (``original ring size / surviving ring size``).
    """

    finish_time_s: float
    completed: bool
    ring_size_before: int
    ring_size_after: int
    dead_workers: List[int] = field(default_factory=list)
    detection_latency_s: float = 0.0
    reconfig_latency_s: float = 0.0
    bridges_added: int = 0
    retransmits: int = 0
    packets_dropped: int = 0
    packets_failed: int = 0
    attempts: List[AttemptReport] = field(default_factory=list)

    @property
    def grad_renorm(self) -> float:
        return self.ring_size_before / self.ring_size_after

    @property
    def recovered(self) -> bool:
        """Completed, but only after a degraded-ring reconstruction."""
        return self.completed and len(self.attempts) > 1


def _watchdog(
    ring_size: int,
    message_bytes: int,
    plan: FaultPlan,
    params: HardwareParams,
) -> float:
    """Watchdog timeout for one attempt (relative seconds)."""
    expected = ring_allreduce_time(
        message_bytes, ring_size, params.full_link_bytes_per_s, params=params
    )
    return max(plan.resilience.watchdog_factor * expected,
               plan.resilience.watchdog_floor_s)


def _attempt(
    topology: Topology,
    ring: List[int],
    message_bytes: int,
    injector: FaultInjector,
    params: HardwareParams,
    start_s: float,
    deadline_s: float,
) -> CollectiveResult:
    """One collective attempt on a fresh simulator (stranded packets of
    a previous attempt are abandoned with their simulator)."""
    sim = NetworkSimulator(
        topology,
        params,
        packet_bytes=params.collective_packet_bytes,
        faults=injector,
    )
    return ring_allreduce(
        sim, ring, message_bytes, start_time=start_s, deadline_s=deadline_s
    )


def resilient_ring_allreduce(
    machine: ReconfiguredMachine,
    ring_index: int,
    message_bytes: int,
    plan: FaultPlan,
    params: HardwareParams = DEFAULT_PARAMS,
    start_time: float = 0.0,
) -> ResilientAllreduceResult:
    """Fault-tolerant pipelined ring all-reduce on one logical ring.

    ``machine`` is never changed: a recovery that splices the ring runs
    its degraded attempt on a bridged copy of the topology.
    """
    ring = list(machine.logical_rings[ring_index])
    injector = FaultInjector(plan)
    resilience = plan.resilience

    deadline = start_time + _watchdog(len(ring), message_bytes, plan, params)
    first = _attempt(
        machine.topology, ring, message_bytes, injector, params, start_time, deadline
    )
    result = ResilientAllreduceResult(
        finish_time_s=first.finish_time_s,
        completed=first.completed,
        ring_size_before=len(ring),
        ring_size_after=len(ring),
        attempts=[
            AttemptReport(
                ring_size=len(ring),
                start_s=start_time,
                finish_s=first.finish_time_s,
                completed=first.completed,
                messages=first.messages,
                bytes_on_wire=first.total_bytes_on_wire,
            )
        ],
    )
    if first.completed:
        _stamp_counters(result, injector)
        return result

    # ---- watchdog fired: detect and reconstruct --------------------------
    detect_s = deadline
    result.detection_latency_s = detect_s - start_time
    members = frozenset(ring)
    dead = [w for w in plan.dead_workers_at(detect_s) if w in members]
    result.dead_workers = dead

    topology, new_ring, bridges = machine.topology, ring, 0
    if dead:
        topology, new_ring, bridges = splice_out(topology, ring, dead, params)

    # A permanently dead forward link between surviving neighbours (a
    # unidirectional SerDes failure) is routed around by flipping the
    # ring orientation: the physical rings are bidirectional, so the
    # reverse-direction links carry the collective instead.
    reversed_ring = False
    if len(new_ring) > 1:
        dead_links = frozenset(plan.permanent_dead_links_at(detect_s))
        forward = zip(new_ring, new_ring[1:] + new_ring[:1])
        if any(pair in dead_links for pair in forward):
            new_ring = list(reversed(new_ring))
            reversed_ring = True

    reconfigured = bool(dead) or reversed_ring
    result.reconfig_latency_s = (
        resilience.bridge_setup_s * max(bridges, 1) if reconfigured else 0.0
    )
    result.bridges_added = bridges
    result.ring_size_after = len(new_ring)

    restart_s = detect_s + result.reconfig_latency_s
    deadline2 = restart_s + _watchdog(len(new_ring), message_bytes, plan, params)
    second = _attempt(
        topology, new_ring, message_bytes, injector, params, restart_s, deadline2
    )
    result.attempts.append(
        AttemptReport(
            ring_size=len(new_ring),
            start_s=restart_s,
            finish_s=second.finish_time_s,
            completed=second.completed,
            messages=second.messages,
            bytes_on_wire=second.total_bytes_on_wire,
            reversed_ring=reversed_ring,
        )
    )
    result.completed = second.completed
    result.finish_time_s = second.finish_time_s if second.completed else deadline2
    _stamp_counters(result, injector)
    return result


def _stamp_counters(
    result: ResilientAllreduceResult, injector: FaultInjector
) -> None:
    result.retransmits = injector.retransmits
    result.packets_dropped = injector.packets_dropped
    result.packets_failed = injector.packets_failed


def baseline_ring_allreduce(
    machine: ReconfiguredMachine,
    ring_index: int,
    message_bytes: int,
    params: HardwareParams = DEFAULT_PARAMS,
    start_time: float = 0.0,
) -> CollectiveResult:
    """The fault-free reference run (no injector attached at all), for
    slowdown reporting."""
    sim = NetworkSimulator(
        machine.topology, params, packet_bytes=params.collective_packet_bytes
    )
    return ring_allreduce(
        sim, list(machine.logical_rings[ring_index]), message_bytes,
        start_time=start_time,
    )
