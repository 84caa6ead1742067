"""Collective operations on the simulated network (paper Sections IV, VI-C).

Implements the pipelined ring reduce+broadcast the NDP collective engine
performs for weight gradients: the message is split into per-node slices;
a reduce-scatter pass (``n - 1`` steps) accumulates each slice around the
ring, and an all-gather pass (``n - 1`` steps) broadcasts the reduced
slices.  Slices are further split into collective packets (256 B chunks)
that flow concurrently — the "pipelined transfer" with multiple Reduce
blocks of Section VI-C — so ring start-up cost is amortised.

Also provides the cluster all-to-all used for tile gather/scatter, and an
analytic model of both for cross-checking (tests assert the simulated
times land near the closed forms the performance model uses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..contracts import cost, shaped
from ..params import DEFAULT_PARAMS, HardwareParams
from .engine import Message, NetworkSimulator
from .fastpath import all_to_all_shortcut, ring_allreduce_shortcut


@shaped("MB, N -> _")
@cost(ret_len="N", ret_sum="MB")
def ring_slice_sizes(message_bytes: int, n: int) -> list:
    """Ragged per-node slice sizes of a ring all-reduce message.

    Slice ``i`` covers ``[bounds[i], bounds[i+1])``, so the ``n`` slices
    always sum back to ``message_bytes`` even when ``n`` does not divide
    it (a floor division here would silently drop the remainder from the
    reduction — exactly what SHAPE006 polices)."""
    bounds = [round(i * message_bytes / n) for i in range(n + 1)]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


@shaped("MB, N -> WB")
@cost(ret="2*(N-1)*MB")
def ring_wire_bytes(message_bytes: int, n: int) -> int:
    """Total wire bytes of a pipelined ring all-reduce: every slice makes
    ``2*(n-1)`` hops (reduce-scatter + all-gather) and the slices sum to
    the full message, ragged or not."""
    return 2 * (n - 1) * message_bytes


@shaped("N, BPP -> WB")
@cost(ret="N*(N-1)*BPP")
def all_to_all_wire_bytes(n: int, bytes_per_pair: int) -> int:
    """Total wire bytes of an all-to-all: ``n*(n-1)`` ordered pairs each
    move ``bytes_per_pair``."""
    return n * (n - 1) * bytes_per_pair


@dataclass
class CollectiveResult:
    """Timing of one collective run.

    ``completed`` is False when the run was cut off by ``deadline_s`` or
    stranded by a fault (the event queue drained with transfers still
    pending) — the timeout-detection signal the resilience layer
    (:mod:`repro.faults`) acts on.
    """

    finish_time_s: float
    total_bytes_on_wire: float
    messages: int
    completed: bool = True


def _check_start_time(start_time: float) -> None:
    if not math.isfinite(start_time):
        raise ValueError(f"start_time must be finite, got {start_time!r}")


class _Collector:
    """Per-run delivery accumulator shared by every completion callback.

    A slotted instance instead of a captured ``dict`` so the per-message
    callback does attribute bumps, not string-keyed dictionary mutation —
    these callbacks fire once per delivered message on the netsim hot
    path.
    """

    __slots__ = ("messages", "bytes", "finish")

    def __init__(self, start_time: float) -> None:
        self.messages = 0
        self.bytes = 0.0
        self.finish = start_time

    def delivered(self, msg: Message, time: float) -> None:
        self.messages += 1
        self.bytes += msg.size_bytes
        if time > self.finish:
            self.finish = time

    def result(self) -> CollectiveResult:
        return CollectiveResult(
            finish_time_s=self.finish,
            total_bytes_on_wire=self.bytes,
            messages=self.messages,
        )


@shaped("_, _, MB, ST, _ -> _")
def ring_allreduce(
    sim: NetworkSimulator,
    nodes: Sequence[int],
    message_bytes: int,
    start_time: float = 0.0,
    deadline_s: Optional[float] = None,
) -> CollectiveResult:
    """Pipelined ring all-reduce (reduce-scatter + all-gather) of
    ``message_bytes`` per node over ``nodes`` in ring order.

    Dependencies are explicit: a node forwards a slice at step ``k`` only
    once it has received that slice's step ``k - 1`` message, exactly like
    the update-counter dependency check in the NDP control unit.

    ``deadline_s`` is a watchdog: the simulation stops there and the
    result reports ``completed=False`` if any slice chain is still in
    flight (or stranded on a failed link) at that point.

    Raises ``ValueError`` for an empty ring, a negative or non-finite
    ``message_bytes`` or a non-finite ``start_time``, whichever engine
    would run.
    """
    n = len(nodes)
    if not n:
        raise ValueError("ring_allreduce needs at least one node")
    if not (message_bytes >= 0 and math.isfinite(message_bytes)):
        raise ValueError(
            f"message_bytes must be finite and >= 0, got {message_bytes!r}"
        )
    _check_start_time(start_time)
    if n == 1:
        return CollectiveResult(finish_time_s=start_time, total_bytes_on_wire=0.0, messages=0)
    slice_sizes = ring_slice_sizes(message_bytes, n)
    # Bit-identical closed-form schedule when the ring is symmetric and
    # fault-clean (or deterministically stranded on dead links); any
    # precondition failure falls through to the per-packet engine.  The
    # ``getattr`` gate keeps this callable against simulator test doubles
    # that predate the fast-path surface (they simply never shortcut).
    shortcut = (
        ring_allreduce_shortcut(sim, nodes, slice_sizes, start_time, deadline_s)
        if getattr(sim, "fastpath", False)
        else None
    )
    if shortcut is not None:
        return CollectiveResult(
            finish_time_s=shortcut["finish"],
            total_bytes_on_wire=shortcut["bytes"],
            messages=shortcut["messages"],
            completed=shortcut["completed"],
        )
    return _RingRun(sim, nodes, slice_sizes).run(start_time, deadline_s)


class _RingMessage(Message):
    """One step of a ring all-reduce chain: the ring position it leaves,
    its slice and its step ride on the message."""

    __slots__ = ("position", "slice_id", "step")


class _RingRun:
    """The reference engine's ring all-reduce.

    Every chain's messages share one completion callback,
    :meth:`hop_done`, which forwards the slice one ring position on; a
    slotted instance, like :class:`_Collector`, so the callback does
    attribute bumps.  ``finish`` is the latest chain end.
    """

    __slots__ = (
        "sim", "nodes", "n", "slice_sizes", "tags", "total_steps", "messages",
        "bytes", "finish", "chains_done", "chains_expected", "on_delivered",
    )

    def __init__(
        self, sim: NetworkSimulator, nodes: Sequence[int], slice_sizes: Sequence[int]
    ) -> None:
        n = len(nodes)
        self.sim = sim
        self.nodes = nodes
        self.n = n
        self.slice_sizes = slice_sizes
        self.tags = [f"ar-s{slice_id}" for slice_id in range(n)]
        self.total_steps = 2 * (n - 1)
        self.messages = 0
        self.bytes = 0.0
        self.chains_done = 0
        self.chains_expected = 0
        #: The shared completion callback, bound once.
        self.on_delivered = self.hop_done

    def run(self, start_time: float, deadline_s: Optional[float]) -> CollectiveResult:
        self.finish = start_time
        # Slice i starts at the node at ring position i (standard ring AR).
        # Zero-byte slices (message smaller than the ring) have nothing to
        # reduce or broadcast, so their chains never start.
        for slice_id, size in enumerate(self.slice_sizes):
            if size:
                self.chains_expected += 1
                self.send_step(slice_id, slice_id, 0, start_time)
        self.sim.run(until=deadline_s)
        return CollectiveResult(
            finish_time_s=self.finish,
            total_bytes_on_wire=self.bytes,
            messages=self.messages,
            completed=self.chains_done == self.chains_expected,
        )

    def send_step(self, position: int, slice_id: int, step: int, when: float) -> None:
        """Node at ring ``position`` forwards ``slice_id`` for ``step``."""
        if step >= self.total_steps:
            self.chains_done += 1
            if when > self.finish:
                self.finish = when
            return
        nodes = self.nodes
        message = _RingMessage(
            nodes[position],
            nodes[(position + 1) % self.n],
            self.slice_sizes[slice_id],
            self.tags[slice_id],
            self.on_delivered,
        )
        message.position = position
        message.slice_id = slice_id
        message.step = step
        self.sim.send(message, start_time=when)

    def hop_done(self, msg: _RingMessage, time: float) -> None:
        self.messages += 1
        self.bytes += msg.size_bytes
        self.send_step(
            (msg.position + 1) % self.n, msg.slice_id, msg.step + 1, time
        )


@shaped("_, _, BPP, ST, _ -> _")
def all_to_all(
    sim: NetworkSimulator,
    nodes: Sequence[int],
    bytes_per_pair: int,
    start_time: float = 0.0,
    deadline_s: Optional[float] = None,
) -> CollectiveResult:
    """Every node sends ``bytes_per_pair`` to every other node (tile
    gather/scatter traffic within a cluster).

    ``deadline_s``: watchdog cut-off, as in :func:`ring_allreduce`.
    """
    _check_start_time(start_time)
    # Bit-identical closed form when every ordered pair is one uniform
    # hop apart (fully-connected cluster) and the links are fault-clean;
    # gated as in :func:`ring_allreduce` for fast-path-less test doubles.
    shortcut = (
        all_to_all_shortcut(sim, nodes, bytes_per_pair, start_time, deadline_s)
        if getattr(sim, "fastpath", False)
        else None
    )
    if shortcut is not None:
        return CollectiveResult(
            finish_time_s=shortcut["finish"],
            total_bytes_on_wire=shortcut["bytes"],
            messages=shortcut["messages"],
            completed=shortcut["completed"],
        )
    # One bound method shared by every pair — no per-message closure.
    collector = _Collector(start_time)
    delivered = collector.delivered
    expected = 0
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            expected += 1
            sim.send(
                Message(src=src, dst=dst, size_bytes=bytes_per_pair,
                        tag="a2a", on_complete=delivered),
                start_time=start_time,
            )
    sim.run(until=deadline_s)
    result = collector.result()
    result.completed = collector.messages == expected
    return result


# ---- analytic cross-checks ---------------------------------------------------


@shaped("MB, N, BW, RINGS, _, _ -> SEC")
def ring_allreduce_time(
    message_bytes: int,
    n: int,
    link_bytes_per_s: float,
    rings: int = 1,
    params: HardwareParams = DEFAULT_PARAMS,
    hop_latency_s: Optional[float] = None,
) -> float:
    """Closed-form pipelined ring all-reduce time.

    ``2 (n-1)/n * bytes / (rings * bw)`` de-rated by the packet header
    efficiency, plus the pipeline fill latency of ``2 (n-1)`` hops.
    """
    if n <= 1:
        return 0.0
    if hop_latency_s is None:
        hop_latency_s = (
            params.serdes_latency_s + params.router_latency_cycles / params.clock_hz
        )
    efficiency = params.packet_efficiency(params.collective_packet_bytes)
    bandwidth_term = ring_wire_bytes(message_bytes, n) / (
        n * rings * link_bytes_per_s * efficiency
    )
    latency_term = 2.0 * (n - 1) * hop_latency_s
    return bandwidth_term + latency_term


@shaped("S -> R, C")
def fbfly_shape(cluster_size: int) -> tuple[int, int]:
    """``rows x cols`` arrangement of a cluster FBFLY.

    Small clusters (<= 4 workers) are fully connected — a 1D flattened
    butterfly — matching the paper's ``(4, 64)`` configuration where
    "four fully connected workers constitute a cluster" with single-hop
    transfers; larger clusters use the squarest 2D factorisation (4 x 4
    at 16 workers, Fig. 9).
    """
    if cluster_size <= 4:
        return 1, cluster_size
    rows = 1
    for cand in range(int(cluster_size**0.5), 0, -1):
        if cluster_size % cand == 0:
            rows = cand
            break
    return rows, cluster_size // rows


@shaped("S -> H")
def fbfly_avg_hops(cluster_size: int) -> float:
    """Mean hop count of uniform all-to-all on the cluster FBFLY under
    dimension-order routing (1 hop same row/column, 2 otherwise)."""
    if cluster_size <= 1:
        return 0.0
    rows, cols = fbfly_shape(cluster_size)
    direct = (rows - 1) + (cols - 1)
    total = cluster_size - 1
    return (direct + 2 * (total - direct)) / total


@shaped("BPP, N, INJ, _, _, _ -> SEC")
def all_to_all_time(
    bytes_per_pair: int,
    n: int,
    injection_bytes_per_s: float,
    params: HardwareParams = DEFAULT_PARAMS,
    avg_hops: Optional[float] = None,
    hop_latency_s: Optional[float] = None,
) -> float:
    """Closed-form all-to-all time for an FBFLY cluster.

    Each node injects ``(n - 1) * bytes_per_pair``; under dimension-order
    routing every link of the FBFLY carries the same load for uniform
    all-to-all, so the finish time is the per-link load: total injected
    bytes times the average hop count spread over the node's links,
    de-rated by packet headers.
    """
    if n <= 1:
        return 0.0
    if avg_hops is None:
        avg_hops = fbfly_avg_hops(n)
    if hop_latency_s is None:
        hop_latency_s = (
            params.serdes_latency_s + params.router_latency_cycles / params.clock_hz
        )
    efficiency = params.packet_efficiency(params.data_packet_bytes)
    total_injected = all_to_all_wire_bytes(n, bytes_per_pair) // n
    bandwidth_term = total_injected * avg_hops / (injection_bytes_per_s * efficiency)
    return bandwidth_term + avg_hops * hop_latency_s


@shaped("S, _ -> INJ")
def fbfly_injection_rate(
    cluster_size: int, params: HardwareParams = DEFAULT_PARAMS
) -> float:
    """Aggregate narrow-link injection bandwidth of one FBFLY node.

    A ``rows x cols`` FBFLY node owns ``(rows - 1) + (cols - 1)`` narrow
    links per direction.
    """
    if cluster_size <= 1:
        return float("inf")
    rows, cols = fbfly_shape(cluster_size)
    link_count = (rows - 1) + (cols - 1)
    return link_count * params.narrow_link_bytes_per_s
