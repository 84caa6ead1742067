"""Flit-level wormhole network simulation with credit-based flow control.

The packet-granularity engine (:mod:`repro.netsim.engine`) models
serialisation bandwidth and fair arbitration, which the performance model
needs; this module adds the micro-level fidelity tier of the paper's
Booksim methodology: packets become flit worms that cut through routers,
hold virtual channels, and advance only when the downstream buffer has
credits.  It is used for small-configuration validation — the tests check
that the packet engine and the wormhole engine agree on steady-state
bandwidth, justifying the faster engine for the big sweeps (DESIGN.md).

Model summary
-------------
* Fixed-size flits (`flit_bytes`); a packet of B bytes becomes
  ``ceil(B/flit_bytes)`` body flits behind one head flit (the head
  carries routing state; its payload share is the header overhead).
* Each unidirectional link moves at most one flit per *link cycle*
  (derived from the link's byte rate), plus a constant hop latency.
* Each input port has one virtual channel per traversing flow with a
  ``buffer_flits``-deep FIFO; a VC sends a flit downstream only if the
  downstream FIFO has a free slot (credit), giving genuine backpressure.
* Output ports arbitrate round-robin among VCs with ready flits
  (wormhole: once a worm's head wins an output it keeps it until the
  tail passes, as in classic wormhole switching).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..params import DEFAULT_PARAMS, HardwareParams
from .topology import Link, Topology


@dataclass
class WormPacket:
    """One packet traversing the network as a worm of flits."""

    packet_id: int
    src: int
    dst: int
    flits: int
    route: List[Link]
    on_delivered: Optional[Callable[[float], None]] = None
    delivered_flits: int = 0


@dataclass
class _VirtualChannel:
    """Per-flow input FIFO at one link's receiving side."""

    packet: WormPacket
    hop_index: int
    occupancy: int = 0  # flits buffered here
    sent: int = 0  # flits forwarded downstream
    received: int = 0  # flits that arrived here
    #: This worm's VC at the next hop (created lazily on first use).
    next_vc: Optional["_VirtualChannel"] = None


class WormholeSimulator:
    """Flit-level simulation over a :class:`Topology`.

    One event per flit per hop: Python-slow, so keep configurations small
    (tests use <= 16 nodes and <= a few thousand flits).
    """

    def __init__(
        self,
        topology: Topology,
        params: HardwareParams = DEFAULT_PARAMS,
        flit_bytes: int = 16,
        buffer_flits: int = 8,
        vc_interleave: bool = False,
    ) -> None:
        """``vc_interleave=False`` models classic wormhole switching (an
        output is held from head to tail — worms suffer head-of-line
        blocking); ``True`` models a virtual-channel router that
        arbitrates per flit, which is what the packet-granularity engine
        approximates."""
        if flit_bytes < 1 or buffer_flits < 1:
            raise ValueError("flit_bytes and buffer_flits must be >= 1")
        self.vc_interleave = vc_interleave
        self.topology = topology
        self.params = params
        self.flit_bytes = flit_bytes
        self.buffer_flits = buffer_flits
        self.now = 0.0
        self._events: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._packet_ids = itertools.count()
        #: Per-link: the worm currently holding the output, and queued VCs.
        self._link_owner: Dict[Tuple[int, int], Optional[_VirtualChannel]] = {}
        self._link_queue: Dict[Tuple[int, int], Deque[_VirtualChannel]] = {}
        self._link_busy_until: Dict[Tuple[int, int], float] = {}
        #: Wire bytes each link has moved in this simulator.
        self._wire_bytes: Dict[Tuple[int, int], float] = defaultdict(float)
        self.flits_delivered = 0

    # ---- events ----------------------------------------------------------
    def _schedule(self, time: float, action: Callable[[], None]) -> None:
        heapq.heappush(self._events, (time, next(self._seq), action))

    def run(self) -> float:
        while self._events:
            time, _, action = heapq.heappop(self._events)
            self.now = time
            action()
        return self.now

    # ---- API ---------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        size_bytes: int,
        on_delivered: Optional[Callable[[float], None]] = None,
    ) -> WormPacket:
        """Inject one packet at t = 0 (or the current time)."""
        if size_bytes < 1:
            raise ValueError(f"size_bytes must be >= 1, got {size_bytes}")
        route = self.topology.route(src, dst)
        flits = 1 + math.ceil(size_bytes / self.flit_bytes)  # head + body
        packet = WormPacket(
            packet_id=next(self._packet_ids),
            src=src,
            dst=dst,
            flits=flits,
            route=route,
            on_delivered=on_delivered,
        )
        # Source VC: the injection queue holds the whole packet.
        vc = _VirtualChannel(packet=packet, hop_index=0, occupancy=flits,
                             received=flits)
        self._enqueue_vc(route[0], vc)
        return packet

    # ---- switching ------------------------------------------------------------
    def bytes_carried(self, link: Link) -> float:
        """Wire bytes ``link`` has moved in this simulator."""
        return self._wire_bytes.get(self._key(link), 0.0)

    def _key(self, link: Link) -> Tuple[int, int]:
        return (link.src, link.dst)

    def _enqueue_vc(self, link: Link, vc: _VirtualChannel) -> None:
        key = self._key(link)
        self._link_queue.setdefault(key, deque()).append(vc)
        self._link_owner.setdefault(key, None)
        self._schedule(self.now, lambda: self._try_send(link))

    def _flit_time(self, link: Link) -> float:
        return self.flit_bytes / link.bytes_per_s

    def _downstream_vc(
        self, vc: _VirtualChannel
    ) -> Optional[_VirtualChannel]:
        """The VC this worm occupies at the next hop (created lazily)."""
        next_hop = vc.hop_index + 1
        if next_hop >= len(vc.packet.route):
            return None
        if vc.next_vc is None:
            vc.next_vc = _VirtualChannel(packet=vc.packet, hop_index=next_hop)
            self._enqueue_vc(vc.packet.route[next_hop], vc.next_vc)
        return vc.next_vc

    def _try_send(self, link: Link) -> None:
        key = self._key(link)
        if self._link_busy_until.get(key, 0.0) > self.now + 1e-18:
            return  # a completion event will retry
        if self.vc_interleave:
            vc = self._pick_ready_vc(key)
            if vc is None:
                return
        else:
            owner = self._link_owner.get(key)
            if owner is None:
                owner = self._pick_vc(key)
                if owner is None:
                    return
                self._link_owner[key] = owner
            vc = owner
        if vc.occupancy == 0:
            return  # nothing buffered yet; arrival event will retry
        downstream = self._downstream_vc(vc)
        if downstream is not None and downstream.occupancy >= self.buffer_flits:
            return  # no credit; downstream drain will retry
        # Transmit one flit.
        ft = self._flit_time(link)
        self._link_busy_until[key] = self.now + ft
        vc.occupancy -= 1
        vc.sent += 1
        self._wire_bytes[key] += self.flit_bytes
        arrival = self.now + ft + link.latency_s
        is_tail = vc.sent == vc.packet.flits

        def on_arrive() -> None:
            if downstream is None:
                vc.packet.delivered_flits += 1
                self.flits_delivered += 1
                if vc.packet.delivered_flits == vc.packet.flits:
                    if vc.packet.on_delivered:
                        vc.packet.on_delivered(self.now)
            else:
                downstream.occupancy += 1
                downstream.received += 1
                self._try_send(vc.packet.route[downstream.hop_index])

        self._schedule(arrival, on_arrive)

        def on_link_free() -> None:
            if is_tail or self.vc_interleave:
                # Wormhole releases the output after the tail; a VC
                # router re-arbitrates every flit.
                self._link_owner[key] = None
            self._try_send(link)

        self._schedule(self.now + ft, on_link_free)
        # Upstream may now have a credit available.
        if vc.hop_index > 0:
            self._schedule(
                self.now + ft, lambda: self._try_send(vc.packet.route[vc.hop_index - 1])
            )

    def _pick_vc(self, key: Tuple[int, int]) -> Optional[_VirtualChannel]:
        """Round-robin among queued worms with buffered flits."""
        queue = self._link_queue.get(key)
        if not queue:
            return None
        for _ in range(len(queue)):
            vc = queue[0]
            if vc.sent >= vc.packet.flits:
                queue.popleft()  # done worm
                continue
            if vc.occupancy > 0:
                queue.rotate(-1)
                return vc
            queue.rotate(-1)
        return None

    def _pick_ready_vc(self, key: Tuple[int, int]) -> Optional[_VirtualChannel]:
        """VC-router arbitration: round-robin among worms that have a
        buffered flit *and* a downstream credit."""
        queue = self._link_queue.get(key)
        if not queue:
            return None
        for _ in range(len(queue)):
            vc = queue[0]
            if vc.sent >= vc.packet.flits:
                queue.popleft()
                continue
            queue.rotate(-1)
            if vc.occupancy > 0:
                downstream = self._downstream_vc(vc)
                if downstream is None or downstream.occupancy < self.buffer_flits:
                    return vc
        return None
