"""Host-bridged topology reconfiguration (paper Section IV).

Dynamic clustering does not rewire the physical network: the machine is
always 16 physical group rings x 16 clusters, and the *host* provides the
extra connectivity that splices several physical rings into one longer
logical ring.  The paper's three configurations for 256 workers:

* ``(16 N_g, 16 N_c)`` — no routing through the host.
* ``(4 N_g, 64 N_c)`` — gr0<->gr3, gr4<->gr7, gr8<->gr11, gr12<->gr15:
  four logical rings of 64 workers each.
* ``(1 N_g, 256 N_c)`` — gr0<->gr15, gr3<->gr4, gr7<->gr8, gr11<->gr12:
  one logical ring of 256 workers.

This module builds those spliced logical rings over the physical
:func:`repro.netsim.topology.hybrid` machine (adding the host-bridge
links) and returns the ring-ordered member list per logical group, which
the collective layer consumes directly.  A built machine is never
changed: :func:`reconfigure` is memoized, so every caller on one grid
shares one machine, and :func:`splice_out` bridges a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..params import DEFAULT_PARAMS, HardwareParams
from ..perf import memoize_sweep
from .topology import GridLayout, Topology, hybrid


@dataclass(frozen=True)
class ReconfiguredMachine:
    """A physical machine viewed under one dynamic-clustering setting.

    Shared by every caller of :func:`reconfigure` on the same grid:
    treat its topology and lists as read-only."""

    topology: Topology
    layout: GridLayout
    #: Physical group indices merged into each logical group.
    merged_groups: List[List[int]]
    #: Ring-ordered worker lists, one per logical group.
    logical_rings: List[List[int]]

    @property
    def logical_group_count(self) -> int:
        return len(self.logical_rings)


def _splice_plan(physical_groups: int, logical_groups: int) -> List[List[int]]:
    """Partition the physical groups into contiguous merge sets."""
    if physical_groups % logical_groups:
        raise ValueError(
            f"{physical_groups} physical groups cannot form "
            f"{logical_groups} equal logical groups"
        )
    per = physical_groups // logical_groups
    return [
        list(range(i * per, (i + 1) * per)) for i in range(logical_groups)
    ]


def bridge_ring(
    topology: Topology,
    ring_order: List[int],
    params: HardwareParams = DEFAULT_PARAMS,
) -> int:
    """Close a worker sequence into a full-bandwidth cycle on a topology
    under construction.

    Every consecutive pair (including the wrap-around) that lacks a
    full-width link gets a host bridge, exactly as dynamic clustering's
    splice points do.  Returns the number of bridged pairs — the
    quantity the resilience layer charges reconfiguration latency for.
    A ring of one worker needs no links at all.
    """
    if len(ring_order) < 2:
        return 0
    latency = params.serdes_latency_s + params.router_latency_cycles / params.clock_hz
    added = 0
    for a, b in zip(ring_order, ring_order[1:] + ring_order[:1]):
        existing = topology.neighbors(a).get(b)
        if existing is None or existing.bytes_per_s < params.full_link_bytes_per_s:
            topology.add_bidirectional(
                a, b, params.full_link_bytes_per_s, latency,
                name="host-bridge",
            )
            added += 1
    return added


def splice_out(
    topology: Topology,
    ring_order: List[int],
    dead: Iterable[int],
    params: HardwareParams = DEFAULT_PARAMS,
) -> Tuple[Topology, List[int], int]:
    """Cut ``dead`` workers out of a logical ring via host bridges.

    This is the degraded-ring reconstruction of :mod:`repro.faults`: the
    host bridges each gap a removed worker leaves (the same splicing
    mechanism dynamic clustering uses, Section IV), so the surviving
    members form a full-bandwidth ring again.  Adjacent dead workers
    collapse into one gap; splicing down to a single survivor yields a
    one-worker ring (no links needed).

    ``topology`` is left as it is.  Returns a copy with the bridges, the
    surviving ring order and the number of bridges added.  The copy
    routes around the dead: the hybrid machine's dimension-order router
    can relay same-cluster traffic through an intermediate group-peer,
    and packets would strand there although the ring never addresses
    it, so a path through a dead worker falls back to the direct link
    when one exists (splicing guarantees one between ring neighbours)
    and otherwise to shortest-path routing.
    """
    dead_set = frozenset(dead)
    survivors = [w for w in ring_order if w not in dead_set]
    if not survivors:
        raise ValueError("cannot splice every worker out of the ring")
    inner = topology.routing_fn

    def avoid_dead(src: int, dst: int) -> Optional[List[int]]:
        path = inner(src, dst)
        if path is not None and not dead_set.isdisjoint(path[1:-1]):
            return [src, dst] if dst in spliced.neighbors(src) else None
        return path

    spliced = topology.copy(avoid_dead if inner is not None and dead_set else inner)
    bridges = bridge_ring(spliced, survivors, params)
    return spliced, survivors, bridges


@memoize_sweep
def reconfigure(
    physical_groups: int,
    clusters: int,
    logical_groups: int,
    params: HardwareParams = DEFAULT_PARAMS,
) -> ReconfiguredMachine:
    """Build the machine and splice its rings for ``logical_groups``.

    The logical ring for a merge set [g0, g1, ...] traverses g0's members
    forward, crosses a host bridge to g1, traverses g1's members backward,
    and so on (a boustrophedon), so consecutive ring neighbours are
    physically adjacent except at the bridge points — matching the
    paper's observation that reconfiguration only re-routes traffic.

    Memoized on its arguments: every call on one grid returns the same
    machine, which nothing changes after this function builds it.
    """
    if logical_groups < 1 or logical_groups > physical_groups:
        raise ValueError(
            f"logical_groups must be in [1, {physical_groups}], got {logical_groups}"
        )
    topology, layout = hybrid(physical_groups, clusters, params)
    merge_sets = _splice_plan(physical_groups, logical_groups)

    logical_rings: List[List[int]] = []
    for merge in merge_sets:
        ring_order: List[int] = []
        for index, group in enumerate(merge):
            members = layout.group_members(group)
            if index % 2:
                members = list(reversed(members))
            ring_order.extend(members)
        # Host bridges: close the splice points so the logical ring is a
        # full-bandwidth cycle.  A narrow cluster-FBFLY link between the
        # endpoints does not suffice for collective traffic; the host
        # provides a full-width path (the paper assumes reconfiguration
        # costs no bandwidth).
        bridge_ring(topology, ring_order, params)
        logical_rings.append(ring_order)
    return ReconfiguredMachine(
        topology=topology,
        layout=layout,
        merged_groups=merge_sets,
        logical_rings=logical_rings,
    )


def paper_configurations(
    params: HardwareParams = DEFAULT_PARAMS,
) -> List[Tuple[str, ReconfiguredMachine]]:
    """The paper's three 256-worker settings (Section IV)."""
    return [
        ("16Ng-16Nc", reconfigure(16, 16, 16, params)),
        ("4Ng-64Nc", reconfigure(16, 16, 4, params)),
        ("1Ng-256Nc", reconfigure(16, 16, 1, params)),
    ]
