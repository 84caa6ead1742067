"""The reference packet engine, pinned event for event.

Every scenario runs on the per-packet engine (``fastpath=False``) and
compares what it observes with literals recorded from the engine at
commit 480c413: the finish time and ``sim.now``, ``events_processed``,
``messages_delivered``, ``bytes_delivered``, every link's
``bytes_carried``, the ``netsim.packets_served`` counter, each
message's ``completed_at`` and, with a fault injector, its
``retransmits``, ``packets_dropped`` and ``packets_failed``.  Floats are
compared through ``float.hex``; the per-link and per-message lists are
compared through a digest of their hex strings.  An event added,
dropped or reordered moves at least one of these, at a scale the bench
digests only reach with full-size runs.

The literals come from a checkout of that commit::

    git archive 480c413 | tar -x -C "$OLD"
    PYTHONPATH="$OLD/src" python tests/netsim/test_engine_pinned.py

which prints the ``PINNED`` table below.  Regenerate it only for an
engine change that is meant to move events.
"""

import hashlib
import math
from types import SimpleNamespace

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkFault,
    PacketLoss,
    ResilienceConfig,
    WorkerFault,
)
from repro.faults.injector import _unit_hash
from repro.netsim import (
    Message,
    NetworkSimulator,
    all_to_all,
    flattened_butterfly_2d,
    hybrid,
    reconfigure,
    ring,
    ring_allreduce,
    splice_out,
)
from repro.params import DEFAULT_PARAMS
from repro.perf import (
    profiling_disabled,
    profiling_enabled,
    reset_profile,
    snapshot_profile,
)

COLLECTIVE_BYTES = DEFAULT_PARAMS.collective_packet_bytes


class _Recorder(NetworkSimulator):
    """A reference simulator that keeps every message sent to it."""

    def __init__(self, topology, **kwargs):
        super().__init__(topology, fastpath=False, **kwargs)
        self.sent = []

    def send(self, message, start_time=None):
        self.sent.append(message)
        super().send(message, start_time)


def _digest(items):
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def _observe(sim, finish, faults=None):
    links = [sim.bytes_carried(link) for link in sim.topology.links]
    done = [m.completed_at for m in sim.sent]
    seen = {
        "finish": float.hex(finish),
        "now": float.hex(sim.now),
        "events": sim.events_processed,
        "delivered": sim.messages_delivered,
        "bytes_delivered": sim.bytes_delivered,
        "packets_served": snapshot_profile()["counters"].get(
            "netsim.packets_served", 0
        ),
        "sent": len(done),
        "link_bytes": float.hex(math.fsum(links)),
        "links": _digest([f"{link.src}>{link.dst}:{float.hex(b)}"
                          for link, b in zip(sim.topology.links, links)]),
        "completed_at": _digest(
            ["-" if t is None else float.hex(t) for t in done]
        ),
    }
    if faults is not None:
        seen["retransmits"] = faults.retransmits
        seen["packets_dropped"] = faults.packets_dropped
        seen["packets_failed"] = faults.packets_failed
    return seen


def _fbfly_all_to_all():
    """(a) plan's contended 1-2-hop FBFLY replay: all-to-all among
    ``hybrid(16, 16)``'s cluster-0 members, 64 B packets."""
    topology, layout = hybrid(16, 16)
    sim = _Recorder(topology)
    result = all_to_all(sim, layout.cluster_members(0), 1_000)
    return _observe(sim, result.finish_time_s)


def _spliced_ring():
    """(b) the dead-worker retry's shape: a spliced ring with two-hop
    FBFLY pairs and ragged one- and two-packet slices that queue."""
    machine = reconfigure(16, 2, 1)
    ring_order = machine.logical_rings[0]
    topology, survivors, _ = splice_out(
        machine.topology, ring_order, [ring_order[len(ring_order) // 2]]
    )
    sim = _Recorder(topology, packet_bytes=COLLECTIVE_BYTES)
    result = ring_allreduce(sim, survivors, len(survivors) * 256 + 16)
    return _observe(sim, result.finish_time_s)


def _lossy_ring():
    """(c) loss rules by prefix, by endpoints and by time window; drops,
    backoff and at least one exhausted retry budget."""
    plan = FaultPlan(
        seed=7,
        losses=(
            PacketLoss(loss_prob=0.0, link_name_prefix="ring"),
            PacketLoss(loss_prob=0.15, link_name_prefix="ring"),
            PacketLoss(loss_prob=0.6, src=2, dst=3, start_s=1e-6, end_s=4e-6),
            PacketLoss(loss_prob=0.9, link_name_prefix="fbfly"),
        ),
        resilience=ResilienceConfig(max_retransmits=2, backoff_factor=3.0),
    )
    faults = FaultInjector(plan)
    sim = _Recorder(ring(8), packet_bytes=COLLECTIVE_BYTES, faults=faults)
    result = ring_allreduce(sim, list(range(8)), 40_000)
    return _observe(sim, result.finish_time_s, faults)


def _outages():
    """(d) a finite link outage, a worker whose links die for good and
    strand their packets, local messages, and a ``run(until=...)``
    cut-off before the rest drains."""
    plan = FaultPlan(
        link_faults=(LinkFault(src=0, dst=1, fail_s=0.2e-6, repair_s=2.5e-6),),
        worker_faults=(WorkerFault(worker=5, fail_s=1e-6),),
    )
    faults = FaultInjector(plan)
    sim = _Recorder(flattened_butterfly_2d(3, 3), faults=faults)
    for index in range(24):
        src, dst = index % 9, (index * 4 + 1) % 9
        sim.send(Message(src, dst, 300 + 97 * index), start_time=index * 1e-7)
    sim.send(Message(4, 4, 512), start_time=0.5e-6)
    cut = sim.run(until=1.2e-6)
    first = _observe(sim, cut, faults)
    sim.send(Message(6, 6, 64))
    return {"cut": first, "drained": _observe(sim, sim.run(), faults)}


def _contended(batch):
    """(e) flows converging on shared ring links, with local messages,
    under one batch limit."""
    sim = _Recorder(ring(8), packet_bytes=COLLECTIVE_BYTES, max_batch_packets=batch)
    for index in range(12):
        src = (index * 3) % 8
        dst = (src + 1 + index % 3) % 8
        sim.send(Message(src, dst, 2_000 + 731 * index), start_time=index * 3e-8)
    sim.send(Message(2, 2, 4_096))
    sim.send(Message(3, 3, 100), start_time=1e-7)
    return _observe(sim, sim.run())


SCENARIOS = {
    "fbfly_all_to_all": _fbfly_all_to_all,
    "spliced_ring": _spliced_ring,
    "lossy_ring": _lossy_ring,
    "outages": _outages,
    "contended_batch1": lambda: _contended(1),
    "contended_batch16": lambda: _contended(16),
}


def run_scenario(name):
    """Observe one scenario with the profiler counters on and reset."""
    profiling_enabled()
    reset_profile()
    try:
        return SCENARIOS[name]()
    finally:
        profiling_disabled()
        reset_profile()


PINNED = {'contended_batch1': {'finish': '0x1.23755133694c0p-20',
                               'now': '0x1.23755133694c0p-20',
                               'events': 1214,
                               'delivered': 14,
                               'bytes_delivered': 76442,
                               'packets_served': 600,
                               'sent': 14,
                               'link_bytes': '0x1.2f02000000000p+17',
                               'links': '951afd98340bfdc7',
                               'completed_at': 'f8f2134823938437'},
          'contended_batch16': {'finish': '0x1.23755133694c0p-20',
                                'now': '0x1.23755133694c0p-20',
                                'events': 1018,
                                'delivered': 14,
                                'bytes_delivered': 76442,
                                'packets_served': 600,
                                'sent': 14,
                                'link_bytes': '0x1.2f02000000000p+17',
                                'links': '951afd98340bfdc7',
                                'completed_at': '3af31137a06f06b2'},
          'fbfly_all_to_all': {'finish': '0x1.066c2913b7a7ap-21',
                               'now': '0x1.066c2913b7a7ap-21',
                               'events': 11856,
                               'delivered': 240,
                               'bytes_delivered': 240000,
                               'packets_served': 6144,
                               'sent': 240,
                               'link_bytes': '0x1.a700000000000p+18',
                               'links': '114f422181c785c7',
                               'completed_at': '8b3b0976a151c3e0'},
          'lossy_ring': {'finish': '0x1.3451791601ce0p-15',
                         'now': '0x1.3451791601ce0p-15',
                         'events': 2293,
                         'delivered': 66,
                         'bytes_delivered': 330000,
                         'packets_served': 1710,
                         'sent': 71,
                         'link_bytes': '0x1.aeaa000000000p+18',
                         'links': '1d1e2b8952768653',
                         'completed_at': '542ca26068022357',
                         'retransmits': 290,
                         'packets_dropped': 296,
                         'packets_failed': 6},
          'outages': {'cut': {'finish': '0x1.421f5f40d8376p-20',
                              'now': '0x1.421f5f40d8376p-20',
                              'events': 237,
                              'delivered': 10,
                              'bytes_delivered': 6704,
                              'packets_served': 173,
                              'sent': 25,
                              'link_bytes': '0x1.78f0000000000p+13',
                              'links': '928238f5bad88b9f',
                              'completed_at': '18d10dd03388214a',
                              'retransmits': 0,
                              'packets_dropped': 0,
                              'packets_failed': 0},
                      'drained': {'finish': '0x1.814c803d25710p-19',
                                  'now': '0x1.814c803d25710p-19',
                                  'events': 650,
                                  'delivered': 20,
                                  'bytes_delivered': 22951,
                                  'packets_served': 474,
                                  'sent': 26,
                                  'link_bytes': '0x1.05b0000000000p+15',
                                  'links': 'a1eb5c047fedd13c',
                                  'completed_at': '1679f2483fac7bef',
                                  'retransmits': 0,
                                  'packets_dropped': 0,
                                  'packets_failed': 0}},
          'spliced_ring': {'finish': '0x1.e2fef459871a4p-20',
                           'now': '0x1.e2fef459871a4p-20',
                           'events': 7827,
                           'delivered': 1860,
                           'bytes_delivered': 477120,
                           'packets_served': 3002,
                           'sent': 1860,
                           'link_bytes': '0x1.03b9c00000000p+19',
                           'links': '236ac184a116f068',
                           'completed_at': '9d31e2426c3c2b8d'}}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_pinned_engine(name):
    assert run_scenario(name) == PINNED[name]


def test_scenarios_reach_their_cases():
    """The pinned runs exercise what they are named for."""
    a2a = PINNED["fbfly_all_to_all"]
    assert a2a["events"] == 11_856
    assert a2a["finish"] == "0x1.066c2913b7a7ap-21"
    lossy = PINNED["lossy_ring"]
    assert lossy["packets_dropped"] > lossy["retransmits"] > 0
    assert lossy["packets_failed"] >= 1
    outages = PINNED["outages"]
    assert outages["cut"]["now"] == float.hex(1.2e-6)
    assert outages["cut"]["delivered"] < outages["drained"]["delivered"]
    assert outages["drained"]["delivered"] < outages["drained"]["sent"]
    assert (
        PINNED["contended_batch1"]["events"] > PINNED["contended_batch16"]["events"]
    )


def _draw_decides(link, key, threshold):
    """Whether the injector drops the transmission ``key`` on ``link``
    under one loss rule of probability ``threshold``."""
    flow_id, seq, attempt, hop_index = key
    injector = FaultInjector(
        FaultPlan(seed=11, losses=(PacketLoss(loss_prob=threshold),))
    )
    packet = SimpleNamespace(
        flow_id=flow_id, seq=seq, attempt=attempt, hop_index=hop_index
    )
    return injector.drop_packet(link, packet, 0.0)


def test_drop_draw_is_the_unit_hash():
    """A transmission is dropped exactly when ``_unit_hash(seed, src,
    dst, flow_id, seq, attempt, hop_index)`` is below the loss
    probability: the draw is neither below itself nor at or above the
    next float up."""
    links = ring(8).links
    for index in range(40):
        link = links[(index * 5) % len(links)]
        key = (index * 7919 % 3001, index % 5, index % 3, index % 2)
        draw = _unit_hash(11, link.src, link.dst, *key)
        assert not _draw_decides(link, key, draw)
        assert _draw_decides(link, key, math.nextafter(draw, 1.0))


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: run_scenario(name) for name in sorted(SCENARIOS)},
                  sort_dicts=False, width=78)
