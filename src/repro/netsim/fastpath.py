"""Exact fast paths over the packet engine — bit-identical by
construction.

This module extends the uncontended-batch precedent of the link server
(``engine._LinkServer._serve_next``) from packets to whole collectives:

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
returns ``None``, counts ``netsim.<collective>_declined.<reason>``
(``ring`` or ``all_to_all``), and the caller runs the reference
per-packet path.  The preconditions are:

* the fast path is enabled (``REPRO_NETSIM_REFERENCE=1`` disables it);
* the simulator is quiescent (no pending events, no busy or queued
  link server) so nothing outside the priced work can contend with it;
* each shortcut's arbitration rules hold (see its docstring);
* any attached fault injector classifies every involved link as
  ``"clean"`` over the whole fault-free horizon (the ring shortcut also
  accepts ``"dead"`` links — stranding is deterministic); an injector
  that keeps the default :meth:`FaultHooks.link_state`, or any finite
  fault window or packet-loss rule touching the horizon, disables the
  fast path (``"dirty"``);
* the collective's deadline would not truncate the priced work
  mid-flight.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence

import numpy as np

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


def _declined(collective: str, reason: str) -> None:
    """Count why a collective shortcut fell back (a no-op unless
    profiling is on) and return the fallback ``None``."""
    counter_add(f"netsim.{collective}_declined.{reason}")
    return None


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
    if not sim.fastpath:
        return _declined("ring", "disabled")
    if not sim.is_quiescent():
        return _declined("ring", "not_quiescent")
    n = len(nodes)
    if n < 2 or len(set(nodes)) != n:
        return _declined("ring", "not_a_ring")
    if start_time < sim.now - _PAST_SLACK:
        return _declined("ring", "past_start")  # reference path raises the "past" error
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
        return _declined("ring", "unreachable")  # the reference path raises it
    links = [link for route in routes for link in route]
    if len({(link.src, link.dst) for link in links}) != len(links):
        return _declined("ring", "shared_link")  # steps do not order its users
    payload = sim.packet_bytes
    header = sim.params.packet_header_bytes
    splits = {b: packet_split(b, payload, header) for b in sorted(set(slice_sizes)) if b}
    if not splits:
        return _declined("ring", "empty")  # all-zero slices: the engine is trivial
    one_packet = all(len(sizes) == 1 for sizes in splits.values())
    single_hop = len(links) == n
    if not (one_packet or single_hop):
        # Multi-packet messages pipeline across hops and interleave.
        return _declined("ring", "multi_packet_multi_hop")
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
            state = faults.link_state(link, start_time, schedule.latest)
            if state == "dead":
                dead.add(index)
            elif state != "clean":
                return _declined("ring", "dirty_link")
        if dead:
            # Stranding only removes users, so no event moves later and
            # the fault-free horizon still covers the run.
            schedule = _fifo_replay(
                routes, splits, slice_sizes, start_time, one_packet, dead
            )
            if schedule is None:
                return None
    if deadline_s is not None and schedule.latest > deadline_s:
        return _declined("ring", "deadline")  # cut off mid-flight: reference semantics

    for link, wire in zip(links, schedule.carried):
        sim.carry(link, wire)
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

    Walks the steps in order and moves every chain of a step at once,
    hop by hop, applying the engine's float expressions elementwise:
    no link lies on two pairs' routes, so a step's chains use disjoint
    links and are independent.  Links are indexed by their position in
    the concatenated ``routes`` (each appears once); a chain strands at
    its first link in ``dead``.  Each hop's serialisation is a left
    fold over packet index, never ``k*wire/rate``.  Declines when a
    link's users do not arrive in strictly increasing step order, or
    when a chain would queue and ``queue_ok`` is False.
    """
    n = len(routes)
    max_hops = max(len(route) for route in routes)
    # Link index of pair p's hop h at [h, p] and again at [h, p + n], so
    # chain i finds pair (i + k) mod n at i + k mod n; -1 past the route.
    link_of = np.full((max_hops, 2 * n), -1, dtype=np.intp)
    links = []
    for pair, route in enumerate(routes):
        for hop, link in enumerate(route):
            link_of[hop, pair] = link_of[hop, pair + n] = len(links)
            links.append(link)
    rate = np.array([link.bytes_per_s for link in links], dtype=np.float64)
    latency = np.array([link.latency_s for link in links], dtype=np.float64)
    is_dead = np.zeros(len(links), dtype=bool)
    is_dead[sorted(dead)] = True
    free = np.full(len(links), -np.inf)
    last = np.full(len(links), -np.inf)
    carried = np.zeros(len(links), dtype=np.int64)

    # One row per chain (non-empty slice), with its packets' wire sizes
    # left-aligned and zero-padded.
    chain = np.flatnonzero(slice_sizes)
    sizes = [splits[slice_sizes[i]] for i in chain]
    wire = np.zeros((len(chain), max(map(len, sizes))), dtype=np.float64)
    for row, wires in enumerate(sizes):
        wire[row, : len(wires)] = wires

    steps = 2 * (n - 1)
    #: Steps each chain completed: all of them unless it strands.
    reached = np.full(len(chain), steps, dtype=np.int64)
    # The chains still moving: row, first pair, packet counts, wire
    # columns and totals, and arrival time at the next link.
    rows, first = np.arange(len(chain)), chain
    counts = np.array([len(wires) for wires in sizes], dtype=np.int64)
    totals = np.array([sum(wires) for wires in sizes], dtype=np.int64)
    columns = list(wire.T.copy())
    times = np.full(len(chain), start_time, dtype=np.float64)
    everyone = rows
    packets = 0
    for k in range(steps):
        base = first + k % n
        moving = np.ones(len(rows), dtype=bool)
        for hop in range(max_hops):
            li = link_of[hop][base]
            if hop:
                at = np.flatnonzero(moving & (li >= 0))
                li = li[at]
            else:
                at = everyone
            if dead:
                stranded = is_dead[li]
                moving[at[stranded]] = False
                at, li = at[~stranded], li[~stranded]
            if not at.size:
                break
            arrive = times[at]
            if (arrive <= last[li]).any():
                return _declined("ring", "arrival_tie")  # not FIFO in step order
            last[li] = arrive
            begin = free[li]
            if not queue_ok and (arrive < begin).any():
                # A queued multi-packet flow interleaves.
                return _declined("ring", "queued_multi_packet")
            done = np.maximum(arrive, begin)
            hop_rate = rate[li]
            for column in columns:
                # A padding zero adds exactly 0.0, which keeps any time
                # but -0.0 (and no sum after a real packet is -0.0), so
                # a chain with fewer packets keeps its finish.
                done = done + column[at] / hop_rate
            free[li] = done
            times[at] = done + latency[li]
            carried[li] += totals[at]
            packets += int(counts[at].sum())
        if dead and not moving.all():
            reached[rows[~moving]] = k
            rows, first = rows[moving], first[moving]
            counts, totals = counts[moving], totals[moving]
            columns = [column[moving] for column in columns]
            times = times[moving]
            everyone = np.arange(len(rows))

    # A link's finish times never decrease, so its last user's arrival
    # downstream is the latest of its events.
    peak = float((free + latency).max())
    payload = np.asarray(slice_sizes, dtype=np.int64)[chain]
    return _RingSchedule(
        peak if peak > start_time else start_time,
        max([start_time] + times.tolist()),
        int(reached.sum()),
        int((payload * reached).sum()),
        packets,
        carried.tolist(),
        len(rows) == len(chain),
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
    if not sim.fastpath:
        return _declined("all_to_all", "disabled")
    if not sim.is_quiescent():
        return _declined("all_to_all", "not_quiescent")
    n = len(nodes)
    if n < 2 or len(set(nodes)) != n:
        return _declined("all_to_all", "degenerate")
    if pair_bytes <= 0:
        return _declined("all_to_all", "empty")
    if start_time < sim.now - _PAST_SLACK:
        return _declined("all_to_all", "past_start")
    try:
        routes = [
            sim.topology.route(src, dst) for src in nodes for dst in nodes if src != dst
        ]
    except (KeyError, ValueError, RuntimeError):
        # The reference path raises it.
        return _declined("all_to_all", "unreachable")
    if any(len(route) != 1 for route in routes):
        return _declined("all_to_all", "multi_hop")
    links = [route[0] for route in routes]
    if len({(link.bytes_per_s, link.latency_s) for link in links}) != 1:
        return _declined("all_to_all", "mixed_links")
    rate = links[0].bytes_per_s
    lat = links[0].latency_s
    sizes = packet_split(
        pair_bytes, sim.packet_bytes, sim.params.packet_header_bytes
    )
    finish = _serialise_step(start_time, sizes, rate) + lat
    if deadline_s is not None and finish > deadline_s:
        return _declined("all_to_all", "deadline")
    faults = sim.faults
    if faults is not None:
        for link in links:
            if faults.link_state(link, start_time, finish) != "clean":
                return _declined("all_to_all", "dirty_link")
    wire = sum(sizes)
    for link in links:
        sim.carry(link, wire)
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
