"""Exact fast paths over the packet engine — bit-identical by
construction.

This module extends the uncontended-batch precedent of the link server
(``engine._LinkServer._serve_next``) three levels up:

* **Flow-level coalescing** (:func:`store_and_forward_times` + the
  engine's ``_try_coalesce``): a whole message traversing a quiescent
  simulator collapses into one bulk completion event.
* **Ring all-reduce shortcut** (:func:`ring_allreduce_shortcut`): the
  whole collective on an idle simulator is priced by a per-link FIFO
  replay, without creating a packet — multi-hop ring pairs included,
  such as the splice pairs of the host-bridged 256-worker ring.
* **All-to-all shortcut** (:func:`all_to_all_shortcut`): a
  fully-connected all-to-all, where every message owns its link.

Both collective shortcuts commit per-link wire bytes that match the
COST004 closed forms (``2*(N-1)*MB`` ring wire bytes, ``N*(N-1)*BPP``
all-to-all wire bytes).

The equivalence contract — the reason these are *fast paths* and not
*approximations* — is that every produced timestamp is the bit-exact
IEEE-754 value the per-packet event loop would compute.  A link
serialising packet ``i`` computes ``done = fl(max(free, arrival_i) +
wire_i/rate)`` and delivers at ``fl(done + latency)``; the link
server's batching boundaries never change the accumulated value.  The
kernels below replay exactly that fold — they never algebraically
simplify ``k`` additions of ``s/r`` into ``k*s/r``, which would differ
in the last ulp.  A replay is only exact where the engine's
round-robin arbitration cannot reorder work: a flow alone on its links,
or (the ring replay) one-packet flows that reach each link in strictly
increasing order, for which round-robin is FIFO.

Fallback is always safe and always total: every precondition failure
returns ``None``/``False`` and the caller runs the reference per-packet
path.  The preconditions are:

* the fast path is enabled (``REPRO_NETSIM_REFERENCE=1`` disables it);
* the simulator is quiescent (no pending events, no busy or queued
  link server) so nothing outside the priced work can contend with it;
* each shortcut's arbitration rules hold (see its docstring);
* any attached fault injector classifies every involved link as
  ``"clean"`` over the whole fault-free horizon (the ring shortcut also
  accepts ``"dead"`` links — stranding is deterministic); an injector
  that does not implement :meth:`FaultHooks.link_state`, or any finite
  fault window or packet-loss rule touching the horizon, disables the
  fast path (``"dirty"``);
* a ``run(until=...)`` / collective deadline would not truncate the
  priced work mid-flight.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from ..perf import counter_add, effect_free

#: Tolerance the engine's ``schedule`` applies to "in the past" checks;
#: start times earlier than ``now`` by more than this are engine errors
#: and must take the reference path (which raises).
_PAST_SLACK = 1e-15


# Vouched effect-free: the environment flag selects *how* results are
# computed, never *what* they are (the bit-identity contract above), so
# memoized kernels that construct simulators stay statically pure
# (EFF001) — the same argument as the profiler's phase/counter vouch.
@effect_free
def fastpath_enabled() -> bool:
    """Whether the netsim fast paths are on (the default).

    ``REPRO_NETSIM_REFERENCE=1`` forces the reference per-packet engine
    everywhere — the switch CI uses to assert digest parity.
    """
    return os.environ.get("REPRO_NETSIM_REFERENCE", "").strip().lower() not in (
        "1",
        "true",
        "yes",
    )


def packet_split(size_bytes: int, payload_bytes: int, header_bytes: int) -> List[int]:
    """Wire sizes of a message's packets: full packets plus an optional
    tail, each carrying the fixed header (the engine's ``send`` split)."""
    full_packets, tail = divmod(size_bytes, payload_bytes)
    sizes = [payload_bytes + header_bytes] * full_packets
    if tail:
        sizes.append(tail + header_bytes)
    return sizes


def store_and_forward_times(
    start: float,
    sizes: Sequence[int],
    hops: Sequence[Tuple[float, float]],
) -> List[float]:
    """Per-packet delivery times at the final hop of ``hops``.

    Replays the engine's store-and-forward fold for one uncontended
    flow whose packets are all queued at ``start``: on each hop
    ``(rate, latency)``, packet ``i`` starts at ``max(done, arrival_i)``,
    finishes serialising at ``fl(start_i + wire_i/rate)`` and arrives
    downstream at ``fl(done_i + latency)``.  The returned list is
    nondecreasing, so its last element is the flow completion time.
    """
    times = [start] * len(sizes)
    for rate, latency in hops:
        done = float("-inf")
        out = []
        for arrival, wire in zip(times, sizes):
            begin = arrival if arrival > done else done
            done = begin + wire / rate
            out.append(done + latency)
        times = out
    return times


def _hooks_link_state(faults, link, t0: float, t1: float) -> str:
    """Classify ``link`` over ``[t0, t1]`` via the injector's
    capability hook; injectors without one are conservatively dirty."""
    state_fn = getattr(faults, "link_state", None)
    if state_fn is None:
        return "dirty"
    return state_fn(link, t0, t1)


def _serialise_step(start: float, sizes: Sequence[int], rate: float) -> float:
    """Serialisation-finish time of a back-to-back packet run that
    begins at ``start`` on an idle link (the engine's per-batch fold)."""
    done = start
    for wire in sizes:
        done = done + wire / rate
    return done


def ring_allreduce_shortcut(
    sim,
    nodes: Sequence[int],
    slice_sizes: Sequence[int],
    start_time: float,
    deadline_s: Optional[float],
) -> Optional[Dict[str, object]]:
    """Exact schedule of a pipelined ring all-reduce, or ``None``.

    The ring all-reduce runs one chain per non-empty slice: chain ``i``
    forwards its slice ``2*(n-1)`` times, over ring pair ``(i+k) mod n``
    at step ``k``, hop by hop along that pair's route.  Every pair is
    used by exactly one chain per step, so when no link lies on two
    pairs' routes each link serves its users one step after another.
    If they also *arrive* in strictly increasing step order (checked
    during the replay — a float tie would leave the order to event
    sequence numbers), round-robin arbitration among one-packet flows
    is FIFO, and a per-link FIFO replay in step order is exactly the
    engine's schedule: per hop ``begin = max(arrival, free)``,
    ``done = begin + wire/rate``, ``arrival = done + latency``.

    Queued multi-packet flows interleave packet by packet instead, so a
    ring with any multi-packet slice needs one-hop routes and no chain
    may reach a link before its previous user is done.  Equal slices on
    uniform one-hop links share one trajectory, folded in O(steps).

    Faults: every used link is classified over the fault-free horizon.
    ``"dead"`` links strand each chain at its first dead hop (earlier
    hops still carry bytes, as queued packets would); any other
    non-clean link falls back to the reference engine.

    Returns ``None`` to fall back, else a dict with the
    :class:`~repro.netsim.collectives.CollectiveResult` fields; the
    simulator state (clock, per-link wire bytes, delivery counters) is
    committed before returning.
    """
    if not sim.fastpath or not sim.is_quiescent():
        return None
    n = len(nodes)
    if n < 2 or len(set(nodes)) != n:
        return None
    if start_time < sim.now - _PAST_SLACK:
        return None  # reference path raises the "past" error
    return _ring_shortcut_locked(sim, nodes, slice_sizes, start_time, deadline_s)


@dataclass(frozen=True)
class _RingSchedule:
    """What a priced ring all-reduce commits to the simulator."""

    #: Time of the last engine event: the simulator clock after the run.
    latest: float
    #: The collective's finish: last delivery of a chain that completed
    #: every step (``start_time`` when none did).
    finish: float
    messages: int
    payload_bytes: int
    #: Packet-hops served (the ``netsim.packets_served`` delta).
    packets: int
    #: Wire bytes per link, in route order.
    carried: List[int]
    completed: bool


def _ring_shortcut_locked(
    sim, nodes, slice_sizes, start_time, deadline_s
) -> Optional[Dict[str, object]]:
    n = len(nodes)
    try:
        routes = [sim.topology.route(nodes[i], nodes[(i + 1) % n]) for i in range(n)]
    except (KeyError, ValueError, RuntimeError):
        return None  # unreachable pair: the reference path raises it
    links = [link for route in routes for link in route]
    if len({(link.src, link.dst) for link in links}) != len(links):
        return None  # a link on two pairs' routes: steps do not order its users
    payload = sim.packet_bytes
    header = sim.params.packet_header_bytes
    splits = {b: packet_split(b, payload, header) for b in sorted(set(slice_sizes)) if b}
    if not splits:
        return None  # all-zero slices: reference path is already trivial
    one_packet = all(len(sizes) == 1 for sizes in splits.values())
    single_hop = len(links) == n
    if not (one_packet or single_hop):
        return None  # multi-packet messages pipeline across hops and interleave
    steps = 2 * (n - 1)
    if (
        single_hop
        and len(set(slice_sizes)) == 1
        and len({(link.bytes_per_s, link.latency_s) for link in links}) == 1
    ):
        # Every chain follows one trajectory on disjoint links.
        sizes = splits[slice_sizes[0]]
        t = start_time
        for _ in range(steps):
            t = _serialise_step(t, sizes, links[0].bytes_per_s) + links[0].latency_s
        count = n * steps
        schedule = _RingSchedule(
            t, t, count, count * slice_sizes[0], count * len(sizes),
            [steps * sum(sizes)] * n, True,
        )
    else:
        schedule = _fifo_replay(routes, splits, slice_sizes, start_time, one_packet)
        if schedule is None:
            return None

    faults = sim.faults
    if faults is not None:
        dead = set()
        for index, link in enumerate(links):
            state = _hooks_link_state(faults, link, start_time, schedule.latest)
            if state == "dead":
                dead.add(index)
            elif state != "clean":
                return None
        if dead:
            # Stranding only removes users, so no event moves later and
            # the fault-free horizon still covers the run.
            schedule = _fifo_replay(
                routes, splits, slice_sizes, start_time, one_packet, dead
            )
            if schedule is None:
                return None
    if deadline_s is not None and schedule.latest > deadline_s:
        return None  # would be cut off mid-flight: reference semantics

    for link, wire in zip(links, schedule.carried):
        link.bytes_carried += wire
    if schedule.latest > sim.now:
        sim.now = schedule.latest
    sim.messages_delivered += schedule.messages
    sim.bytes_delivered += schedule.payload_bytes
    counter_add("netsim.packets_served", schedule.packets)
    counter_add("netsim.collectives_coalesced", 1)
    return {
        "finish": schedule.finish,
        "messages": schedule.messages,
        "bytes": float(schedule.payload_bytes),
        "completed": schedule.completed,
    }


def _fifo_replay(
    routes: Sequence[Sequence],
    splits: Dict[int, List[int]],
    slice_sizes: Sequence[int],
    start_time: float,
    queue_ok: bool,
    dead: AbstractSet[int] = frozenset(),
) -> Optional[_RingSchedule]:
    """Per-link FIFO replay of a ring all-reduce, or ``None``.

    Walks steps in order, then each step's chains, then each hop of the
    chain's route, applying the engine's float expressions per hop.
    Links are indexed by their position in the concatenated ``routes``
    (each appears once); a chain strands at its first link in ``dead``.
    Declines when a link's users do not arrive in strictly increasing
    step order, or when a chain would queue and ``queue_ok`` is False.
    """
    n = len(routes)
    hops = []
    index = 0
    for route in routes:
        hops.append([(index + h, link.bytes_per_s, link.latency_s)
                     for h, link in enumerate(route)])
        index += len(route)
    free = [float("-inf")] * index
    last = [float("-inf")] * index
    carried = [0] * index
    times = [start_time] * n
    active = [i for i in range(n) if slice_sizes[i]]
    chains = len(active)
    latest = start_time
    messages = payload = packets = 0
    for k in range(2 * (n - 1)):
        survivors = []
        for i in active:
            sizes = splits[slice_sizes[i]]
            arrival = times[i]
            for li, rate, latency in hops[(i + k) % n]:
                if li in dead:
                    break
                if arrival <= last[li]:
                    return None  # tie or overtake: not FIFO in step order
                last[li] = arrival
                begin = free[li]
                if arrival >= begin:
                    begin = arrival
                elif not queue_ok:
                    return None  # a queued multi-packet flow interleaves
                done = _serialise_step(begin, sizes, rate)
                free[li] = done
                arrival = done + latency
                if arrival > latest:
                    latest = arrival
                carried[li] += sum(sizes)
                packets += len(sizes)
            else:
                times[i] = arrival
                messages += 1
                payload += slice_sizes[i]
                survivors.append(i)
        active = survivors
    finish = max([start_time] + [times[i] for i in active])
    return _RingSchedule(
        latest, finish, messages, payload, packets, carried, len(active) == chains
    )


def all_to_all_shortcut(
    sim,
    nodes: Sequence[int],
    pair_bytes: int,
    start_time: float,
    deadline_s: Optional[float],
) -> Optional[Dict[str, object]]:
    """Closed-form schedule of a fully-connected all-to-all, or ``None``.

    Applies when every ordered pair of ``nodes`` is one (uniform) hop
    apart: each of the ``n*(n-1)`` messages then owns its link outright,
    so all of them serialise in parallel and finish at the same fold —
    the paper's "four fully connected workers constitute a cluster"
    case.  Multi-hop FBFLY grids (where dimension-order routes share
    links) fall back to the reference engine.
    """
    if not sim.fastpath or not sim.is_quiescent():
        return None
    n = len(nodes)
    if n < 2 or len(set(nodes)) != n or pair_bytes <= 0:
        return None
    if start_time < sim.now - _PAST_SLACK:
        return None
    try:
        links = []
        for src in nodes:
            for dst in nodes:
                if src == dst:
                    continue
                route = sim.topology.route(src, dst)
                if len(route) != 1:
                    return None
                links.append(route[0])
    except (KeyError, ValueError, RuntimeError):
        return None  # unreachable pair: the reference path raises it
    if len(set(link.bytes_per_s for link in links)) != 1:
        return None
    if len(set(link.latency_s for link in links)) != 1:
        return None
    rate = links[0].bytes_per_s
    lat = links[0].latency_s
    sizes = packet_split(
        pair_bytes, sim.packet_bytes, sim.params.packet_header_bytes
    )
    finish = _serialise_step(start_time, sizes, rate) + lat
    if deadline_s is not None and finish > deadline_s:
        return None
    faults = sim.faults
    if faults is not None:
        for link in links:
            if _hooks_link_state(faults, link, start_time, finish) != "clean":
                return None
    wire = sum(sizes)
    for link in links:
        link.bytes_carried += wire
    count = n * (n - 1)
    if finish > sim.now:
        sim.now = finish
    sim.messages_delivered += count
    sim.bytes_delivered += count * pair_bytes
    counter_add("netsim.packets_served", count * len(sizes))
    counter_add("netsim.collectives_coalesced", 1)
    return {
        "finish": finish,
        "messages": count,
        "bytes": float(count * pair_bytes),
        "completed": True,
    }
