"""Property tests: conservation and sanity of the packet engine under
random traffic (hypothesis-driven failure hunting)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Message, NetworkSimulator, flattened_butterfly_2d, ring
from repro.params import DEFAULT_PARAMS


@st.composite
def traffic(draw):
    nodes = draw(st.integers(min_value=2, max_value=8))
    count = draw(st.integers(min_value=1, max_value=12))
    messages = []
    for _ in range(count):
        src = draw(st.integers(min_value=0, max_value=nodes - 1))
        dst = draw(st.integers(min_value=0, max_value=nodes - 1))
        size = draw(st.integers(min_value=1, max_value=5000))
        messages.append((src, dst, size))
    return nodes, messages


class TestRandomTraffic:
    @given(traffic())
    @settings(max_examples=40, deadline=None)
    def test_all_messages_delivered_exactly_once(self, case):
        nodes, messages = case
        sim = NetworkSimulator(ring(nodes))
        delivered = []
        for src, dst, size in messages:
            sim.send(Message(src=src, dst=dst, size_bytes=size,
                             on_complete=lambda m, t: delivered.append(m)))
        sim.run()
        assert len(delivered) == len(messages)
        assert sim.bytes_delivered == sum(s for _, _, s in messages)

    @given(traffic())
    @settings(max_examples=30, deadline=None)
    def test_completion_not_before_physical_minimum(self, case):
        """No message can beat its unloaded serialisation + latency."""
        nodes, messages = case
        topo = ring(nodes)
        sim = NetworkSimulator(topo)
        records = []

        def capture(msg, time):
            records.append((msg, time))

        for src, dst, size in messages:
            sim.send(Message(src=src, dst=dst, size_bytes=size,
                             on_complete=capture))
        sim.run()
        for msg, time in records:
            if msg.src == msg.dst:
                continue
            route = topo.route(msg.src, msg.dst)
            header = DEFAULT_PARAMS.packet_header_bytes
            packets = -(-msg.size_bytes // sim.packet_bytes)
            wire = msg.size_bytes + packets * header
            # Lower bound: full serialisation on the first link plus the
            # route's cumulative hop latency.
            minimum = wire / route[0].bytes_per_s + sum(
                link.latency_s for link in route
            )
            assert time >= minimum * (1 - 1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_link_bytes_accounted(self, seed):
        rng = np.random.default_rng(seed)
        topo = flattened_butterfly_2d(2, 2)
        sim = NetworkSimulator(topo)
        total_sent = 0
        for _ in range(6):
            src, dst = rng.choice(4, size=2, replace=False)
            size = int(rng.integers(1, 2000))
            total_sent += size
            sim.send(Message(src=int(src), dst=int(dst), size_bytes=size))
        sim.run()
        carried = sum(sim.bytes_carried(link) for link in topo.links)
        # Carried >= sent (headers, multi-hop); and bounded by a small
        # multiple (max 2 hops + headers).
        assert carried >= total_sent
        assert carried <= 3.0 * total_sent + 6 * 2 * DEFAULT_PARAMS.packet_header_bytes * 40
