"""Edge-case pins for the wormhole simulator's flit arithmetic.

These tests fix the *exact* event-level behaviour of the flit engine —
minimal packets, back-to-back worms on one virtual channel, single-body
flits, extreme backpressure — against :func:`_fold_single_worm`, a
closed-form fold of the same left-to-right float operations.  Every
equality here is ``==`` on floats, not approx: any change to the event
loop's arithmetic or ordering shows up as a bit difference.
"""

import pytest

from repro.netsim import ring
from repro.netsim.wormhole import WormholeSimulator


def _fold_single_worm(route, flits, flit_bytes):
    """Reference fold of one uncontended worm: per-hop serialisation of
    ``flits`` flits with cut-through, replicating the engine's exact
    left-to-right float operations (``max`` via the busy/arrival race,
    arrival = ``(dep + ft) + lat``)."""
    arr = [0.0] * flits
    dep = arr
    for link in route:
        ft = flit_bytes / link.bytes_per_s
        dep = [arr[0]]
        for i in range(1, flits):
            free = dep[-1] + ft
            dep.append(arr[i] if free <= arr[i] + 1e-18 else free)
        arr = [(d + ft) + link.latency_s for d in dep]
    return arr[-1]  # tail flit's arrival at the destination


class TestMinimalPackets:
    def test_zero_and_negative_size_rejected(self):
        sim = WormholeSimulator(ring(4))
        with pytest.raises(ValueError):
            sim.send(0, 1, 0)
        with pytest.raises(ValueError):
            sim.send(0, 1, -16)

    def test_one_byte_packet_is_head_plus_one_body(self):
        topo = ring(4)
        sim = WormholeSimulator(topo, flit_bytes=16)
        done = {}
        packet = sim.send(0, 1, 1, on_delivered=lambda t: done.setdefault("t", t))
        assert packet.flits == 2
        sim.run()
        link = topo.link(0, 1)
        ft = 16 / link.bytes_per_s
        # Two flits serialise back-to-back: tail departs at ft, arrives
        # one flit time plus the hop latency later.  Exact float match.
        assert done["t"] == (ft + ft) + link.latency_s
        assert sim.flits_delivered == 2

    def test_exact_multiple_of_flit_size(self):
        """A payload of exactly one flit still yields head + one body."""
        sim = WormholeSimulator(ring(4), flit_bytes=16)
        packet = sim.send(0, 1, 16, on_delivered=None)
        assert packet.flits == 2
        sim.run()
        assert packet.delivered_flits == 2

    def test_flit_rounding_is_ceil(self):
        sim = WormholeSimulator(ring(4), flit_bytes=16)
        assert sim.send(0, 1, 17).flits == 1 + 2
        assert sim.send(1, 2, 15).flits == 1 + 1
        assert sim.send(2, 3, 32).flits == 1 + 2

    def test_single_hop_exact_times_any_size(self):
        """One hop is the provably-exact regime: no downstream VC means
        no credits and no cross-hop retry events, so every departure is
        a pure ``+= flit_time`` accumulation.  Pin it for sizes up to
        the 64 KB bandwidth-validation stream."""
        topo = ring(4)
        for size in (1, 16, 1000, 64_000):
            sim = WormholeSimulator(topo, flit_bytes=16)
            done = {}
            packet = sim.send(0, 1, size,
                              on_delivered=lambda t: done.setdefault("t", t))
            finish = sim.run()
            expected = _fold_single_worm(packet.route, packet.flits, 16)
            assert done["t"] == expected
            assert finish == expected
            assert sim.flits_delivered == packet.flits

    def test_single_worm_multi_hop_exact_times_small(self):
        """Small multi-hop worms with deep buffers follow the fold too.

        Only small: the engine's busy check tolerates ``1e-18`` of
        skew, and on longer worms a cross-hop retry event — whose
        timestamp accumulated through a *different* sequence of adds —
        can land 1 ulp below the link-free time and transmit "early".
        Multi-hop timing is therefore a property of the whole event
        soup, not of a per-hop closed form."""
        topo = ring(8)
        for size in (1, 16, 100):
            sim = WormholeSimulator(topo, flit_bytes=16, buffer_flits=128)
            done = {}
            packet = sim.send(0, 3, size,
                              on_delivered=lambda t: done.setdefault("t", t))
            finish = sim.run()
            expected = _fold_single_worm(packet.route, packet.flits, 16)
            assert done["t"] == expected
            assert finish == expected


class TestBackToBackSameChannel:
    def test_second_worm_waits_for_tail(self):
        """Two worms on the same link: the second's head departs exactly
        when the first's tail frees the output (wormhole semantics)."""
        topo = ring(4)
        sim = WormholeSimulator(topo, flit_bytes=16)
        times = []
        first = sim.send(0, 1, 160, on_delivered=times.append)
        second = sim.send(0, 1, 160, on_delivered=times.append)
        sim.run()
        link = topo.link(0, 1)
        ft = 16 / link.bytes_per_s
        assert first.flits == second.flits == 11
        # Worm 1 tail departs after 11 sequential flit times; worm 2 then
        # serialises its 11 flits starting from that instant.
        t = 0.0
        for _ in range(first.flits):
            t += ft
        first_tail_free = t
        assert times[0] == (first_tail_free - ft + ft) + link.latency_s
        for _ in range(second.flits):
            t += ft
        assert times[1] == (t - ft + ft) + link.latency_s

    def test_back_to_back_conserves_flits_and_bytes(self):
        topo = ring(4)
        link = topo.link(0, 1)
        sim = WormholeSimulator(topo, flit_bytes=16)
        assert sim.bytes_carried(link) == 0.0
        a = sim.send(0, 1, 64)
        b = sim.send(0, 1, 64)
        sim.run()
        assert sim.flits_delivered == a.flits + b.flits
        assert sim.bytes_carried(link) == 16 * (a.flits + b.flits)

    def test_three_worms_fifo_order(self):
        """Same-source worms to one destination deliver in send order."""
        sim = WormholeSimulator(ring(4), flit_bytes=16)
        order = []
        for tag in ("a", "b", "c"):
            sim.send(0, 1, 48, on_delivered=lambda t, tag=tag: order.append(tag))
        sim.run()
        assert order == ["a", "b", "c"]


class TestExtremeBackpressure:
    @pytest.mark.parametrize("buffer_flits", [1, 2])
    def test_tiny_buffer_still_completes(self, buffer_flits):
        topo = ring(8)
        sim = WormholeSimulator(topo, flit_bytes=16, buffer_flits=buffer_flits)
        done = {}
        packet = sim.send(0, 3, 320, on_delivered=lambda t: done.setdefault("t", t))
        sim.run()
        assert packet.delivered_flits == packet.flits
        assert sim.flits_delivered == packet.flits
        assert done["t"] > 0.0

    def test_shallow_buffer_never_beats_deep(self):
        """Credit backpressure can only delay a worm, never speed it up.
        (With uniform link rates the downstream drains as fast as flits
        arrive, so a 1-flit buffer may tie the deep buffer — but it must
        not win.)"""
        topo = ring(8)
        deep = WormholeSimulator(topo, flit_bytes=16, buffer_flits=64)
        shallow = WormholeSimulator(topo, flit_bytes=16, buffer_flits=1)
        done = {}
        deep.send(0, 3, 1600, on_delivered=lambda t: done.setdefault("deep", t))
        deep.run()
        shallow.send(0, 3, 1600, on_delivered=lambda t: done.setdefault("shallow", t))
        shallow.run()
        assert done["shallow"] >= done["deep"]


class TestInterleaveEquivalence:
    @pytest.mark.parametrize("vc_interleave", [False, True])
    def test_interleave_mode_identical_for_single_worm(self, vc_interleave):
        """Owner-held versus per-flit arbitration cannot differ when one
        worm is the only traffic."""
        topo = ring(8)
        sim = WormholeSimulator(topo, flit_bytes=16, buffer_flits=64,
                                vc_interleave=vc_interleave)
        done = {}
        packet = sim.send(0, 2, 100, on_delivered=lambda t: done.setdefault("t", t))
        sim.run()
        expected = _fold_single_worm(packet.route, packet.flits, 16)
        assert done["t"] == expected
