"""Event batching versus the strict one-event-per-packet engine.

The link server coalesces back-to-back packets of an uncontended flow
into one scheduling batch (up to ``max_batch_packets``); with
``max_batch_packets=1`` it degenerates to the strict one-event-per-
packet engine.  For a flow that stays alone on its links, and for the
collective patterns below, delivered timestamps are *identical* (not
just close) across batch limits.  Batching is not a pure event-count
optimisation in general, though: a flow that reaches a link while
another flow's batch is being serialised waits for the whole batch
instead of interleaving round-robin after the current packet.
:class:`TestKnownDeviation` records that case as a strict xfail.
"""

import pytest

from repro.netsim import (
    Message,
    NetworkSimulator,
    all_to_all,
    flattened_butterfly_2d,
    ring,
    ring_allreduce,
)
from repro.params import DEFAULT_PARAMS


def _sim(batch, nodes=8):
    # fastpath=False: these tests exercise the *batching* tier, which
    # the collective shortcuts would otherwise bypass entirely.
    return NetworkSimulator(
        ring(nodes),
        DEFAULT_PARAMS,
        packet_bytes=DEFAULT_PARAMS.collective_packet_bytes,
        max_batch_packets=batch,
        fastpath=False,
    )


class TestBatchLimitInvariance:
    def test_invalid_batch_limit_rejected(self):
        with pytest.raises(ValueError):
            _sim(0)

    @pytest.mark.parametrize("batch", [1, 2, 16, 1000])
    def test_single_flow_timestamps_identical(self, batch):
        strict = _sim(1)
        msg_strict = Message(src=0, dst=2, size_bytes=10_000)
        strict.send(msg_strict)
        strict.run()

        batched = _sim(batch)
        msg = Message(src=0, dst=2, size_bytes=10_000)
        batched.send(msg)
        batched.run()
        # Bit-identical, not approx: batching only coalesces scheduling,
        # the per-packet serialisation arithmetic is unchanged.
        assert msg.completed_at == msg_strict.completed_at

    @pytest.mark.parametrize("batch", [2, 16])
    def test_contended_link_timestamps_identical(self, batch):
        def run(limit):
            sim = _sim(limit)
            msgs = [
                Message(src=0, dst=1, size_bytes=5_000),
                Message(src=7, dst=1, size_bytes=5_000),  # rides 7->0->1
                Message(src=0, dst=1, size_bytes=3_000),
            ]
            for m in msgs:
                sim.send(m)
            sim.run()
            return [m.completed_at for m in msgs]

        assert run(batch) == run(1)

    def test_ring_allreduce_identical(self):
        def finish(limit):
            sim = NetworkSimulator(
                ring(8),
                DEFAULT_PARAMS,
                packet_bytes=DEFAULT_PARAMS.collective_packet_bytes,
                max_batch_packets=limit,
                fastpath=False,
            )
            return ring_allreduce(sim, list(range(8)), 100_000).finish_time_s

        assert finish(16) == finish(1)

    def test_all_to_all_identical(self):
        def finish(limit):
            sim = NetworkSimulator(
                flattened_butterfly_2d(4, 4),
                DEFAULT_PARAMS,
                max_batch_packets=limit,
                fastpath=False,
            )
            return all_to_all(sim, list(range(16)), 2_000).finish_time_s

        assert finish(16) == finish(1)

    def test_batching_reduces_events(self):
        """The optimisation actually fires: fewer engine events with a
        higher batch limit on an uncontended bulk flow."""
        counts = {}
        for limit in (1, 16):
            sim = _sim(limit)
            sim.send(Message(src=0, dst=1, size_bytes=100_000))
            sim.run()
            counts[limit] = sim.events_processed
        assert counts[16] < counts[1]


class TestKnownDeviation:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "batching is not round-robin fair to a flow that arrives "
            "mid-batch: on ring(8), 100 kB 0->1 plus 5 kB 7->1 at t=0, the "
            "7->1 message completes at 3.736e-07 s with max_batch_packets=1 "
            "and at 5.056e-07 s with 16; fixing it changes pinned digests"
        ),
    )
    def test_late_flow_interleaves_with_batched_flow(self):
        def late_completion(limit):
            sim = _sim(limit)
            bulk = Message(src=0, dst=1, size_bytes=100_000)
            late = Message(src=7, dst=1, size_bytes=5_000)  # rides 7->0->1
            sim.send(bulk)
            sim.send(late)
            sim.run()
            return late.completed_at

        assert late_completion(16) == late_completion(1)
