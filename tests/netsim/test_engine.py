"""Tests for the event-driven simulation kernel."""

import pytest

from repro.netsim import Message, NetworkSimulator, ring
from repro.params import DEFAULT_PARAMS


def make_sim(nodes=4, packet_bytes=64):
    return NetworkSimulator(ring(nodes), DEFAULT_PARAMS, packet_bytes=packet_bytes)


class TestSingleMessage:
    def test_latency_matches_analytic(self):
        """One packet over one hop: serialisation + link latency."""
        sim = make_sim()
        msg = Message(src=0, dst=1, size_bytes=56)  # single packet
        sim.send(msg)
        sim.run()
        link = sim.topology.link(0, 1)
        expected = (56 + DEFAULT_PARAMS.packet_header_bytes) / link.bytes_per_s
        expected += link.latency_s
        assert msg.completed_at == pytest.approx(expected, rel=1e-9)

    def test_multi_hop_adds_latency(self):
        sim = make_sim(8)
        msg = Message(src=0, dst=2, size_bytes=56)
        sim.send(msg)
        sim.run()
        link = sim.topology.link(0, 1)
        per_hop = (56 + 8) / link.bytes_per_s + link.latency_s
        assert msg.completed_at == pytest.approx(2 * per_hop, rel=1e-9)

    def test_message_split_into_packets(self):
        sim = make_sim()
        msg = Message(src=0, dst=1, size_bytes=1000)
        sim.send(msg)
        sim.run()
        link = sim.topology.link(0, 1)
        # ceil(1000/64) = 16 packets, each with an 8-byte header.
        assert sim.bytes_carried(link) == 1000 + 16 * 8

    def test_local_message_immediate(self):
        sim = make_sim()
        msg = Message(src=2, dst=2, size_bytes=100)
        sim.send(msg)
        sim.run()
        assert msg.completed_at == 0.0

    def test_zero_size_rejected(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.send(Message(src=0, dst=1, size_bytes=0))


class TestContention:
    def test_two_flows_share_link_fairly(self):
        """Two equal messages over the same link must finish at about the
        same time, at twice the single-flow duration (round-robin)."""
        sim = make_sim()
        m1 = Message(src=0, dst=1, size_bytes=64_000, tag="a")
        m2 = Message(src=0, dst=1, size_bytes=64_000, tag="b")
        sim.send(m1)
        sim.send(m2)
        sim.run()
        assert m1.completed_at == pytest.approx(m2.completed_at, rel=0.02)
        solo = make_sim()
        m_solo = Message(src=0, dst=1, size_bytes=64_000)
        solo.send(m_solo)
        solo.run()
        assert m1.completed_at == pytest.approx(2 * m_solo.completed_at, rel=0.05)

    def test_disjoint_links_do_not_interfere(self):
        sim = make_sim(8)
        m1 = Message(src=0, dst=1, size_bytes=64_000)
        m2 = Message(src=4, dst=5, size_bytes=64_000)
        sim.send(m1)
        sim.send(m2)
        sim.run()
        assert m1.completed_at == pytest.approx(m2.completed_at, rel=1e-9)

    def test_bytes_conserved(self):
        sim = make_sim(8)
        sizes = [1000, 5000, 77, 64]
        for i, size in enumerate(sizes):
            sim.send(Message(src=i, dst=(i + 3) % 8, size_bytes=size))
        sim.run()
        assert sim.messages_delivered == len(sizes)
        assert sim.bytes_delivered == sum(sizes)


class TestEventKernel:
    def test_cannot_schedule_in_past(self):
        sim = make_sim()
        sim.now = 1.0
        with pytest.raises(ValueError):
            sim.schedule(0.5, lambda: None)

    def test_run_until_pauses(self):
        sim = make_sim()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(3.0, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_completion_callback_invoked(self):
        sim = make_sim()
        seen = []
        msg = Message(
            src=0, dst=1, size_bytes=64,
            on_complete=lambda m, t: seen.append((m.tag, t)),
        )
        sim.send(msg)
        sim.run()
        assert len(seen) == 1


class TestEqualTimeEventOrdering:
    """The heap tie-break: equal-time events must fire in schedule order
    (the seq counter), never by comparing the action callables."""

    def test_equal_time_events_fire_in_schedule_order(self):
        sim = make_sim()
        fired = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_fifo_within_each_timestamp(self):
        sim = make_sim()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b1"))
        sim.schedule(1.0, lambda: fired.append("a1"))
        sim.schedule(2.0, lambda: fired.append("b2"))
        sim.schedule(1.0, lambda: fired.append("a2"))
        sim.run()
        assert fired == ["a1", "a2", "b1", "b2"]

    def test_events_scheduled_during_run_keep_order(self):
        sim = make_sim()
        fired = []

        def spawn():
            # Two children at the same (current) time: FIFO again.
            sim.schedule(sim.now, lambda: fired.append("child1"))
            sim.schedule(sim.now, lambda: fired.append("child2"))

        sim.schedule(1.0, spawn)
        sim.schedule(1.0, lambda: fired.append("sibling"))
        sim.run()
        assert fired == ["sibling", "child1", "child2"]

    def test_fresh_simulators_on_one_topology_replay_identically(self):
        """Run state lives in the simulator, so two simulators over one
        shared topology replay a workload with identical event ordering
        and each counts only its own wire bytes."""
        topo = ring(4)

        def run_once():
            sim = NetworkSimulator(topo)
            messages = [
                Message(src=0, dst=1, size_bytes=1_000),
                Message(src=1, dst=2, size_bytes=1_000),
                Message(src=0, dst=2, size_bytes=500),
            ]
            for message in messages:
                sim.send(message)
            sim.run()
            return (
                [m.completed_at for m in messages],
                sim.events_processed,
                next(sim._seq),
                [sim.bytes_carried(link) for link in topo.links],
            )

        first = run_once()
        assert first == run_once()
        assert sum(first[3]) > 0
