"""Golden bit-identity tests for the netsim fast paths.

The tentpole contract: with fast paths on (the default), every
timestamp, byte count and completion flag is the bit-exact value the
reference per-packet engine computes (``fastpath=False``, or process
wide ``REPRO_NETSIM_REFERENCE=1``).  These tests run each workload
twice — fast and reference — on freshly built topologies and compare
*everything observable*: the collective result dataclass, the final
simulated time, per-link wire bytes, delivery counts and fault
counters.  Equality is ``==`` on floats throughout; ``approx`` would
hide exactly the class of bug this contract exists to exclude.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import SCENARIOS
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    LinkFault,
    PacketLoss,
    WorkerFault,
)
from repro.faults.resilience import _watchdog, resilient_ring_allreduce
from repro.netsim import (
    CollectiveResult,
    Message,
    NetworkSimulator,
    Topology,
    all_to_all,
    flattened_butterfly_2d,
    hybrid,
    ring,
    ring_allreduce,
)
from repro.netsim.collectives import ring_slice_sizes
from repro.netsim.reconfiguration import reconfigure
from repro.params import DEFAULT_PARAMS
from repro.perf import (
    profiling_disabled,
    profiling_enabled,
    reset_profile,
    snapshot_profile,
)

#: The paper's machine grids (num_groups x num_clusters); (1, 256) is
#: one 256-node hybrid ring and takes whole seconds on the reference
#: engine, so it rides in the nightly `-m slow` lane.
PAPER_GRIDS = [(16, 16), (4, 64)]
PAPER_GRIDS_SLOW = [(1, 256)]

#: (all-reduce bytes per worker, all-to-all bytes per pair) run on each
#: paper grid: a small case, and 64 KiB / 10 kB, where every ring slice
#: and every pair message spans several packets.
GRID_MESSAGE_BYTES = [(8192, 512), (64 * 1024, 10_000)]


def _topo_snapshot(sim):
    return sorted(
        (link.src, link.dst, link.name, sim.bytes_carried(link))
        for link in sim.topology.links
    )


def _run_collective(fastpath, build, plan=None):
    """Build a fresh topology, run ``build`` on it, observe everything."""
    injector = FaultInjector(plan) if plan is not None else None
    observation = build(fastpath, injector)
    if injector is not None:
        observation["faults"] = (
            injector.packets_dropped,
            injector.retransmits,
            injector.packets_failed,
        )
    return observation


def _assert_identical(build, plan=None):
    fast = _run_collective(True, build, plan)
    ref = _run_collective(False, build, plan)
    assert fast == ref
    return fast


def _assert_identical_events(build, plan=None):
    """:func:`_assert_identical` for observations that also carry the
    engine event count (``"events"``), which differs by design; returns
    the fast observation and the fast side's event count."""
    fast = _run_collective(True, build, plan)
    ref = _run_collective(False, build, plan)
    fast_events, ref_events = fast.pop("events"), ref.pop("events")
    assert fast == ref
    assert ref_events > 0
    return fast, fast_events


class TestRingAllreduceIdentity:
    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    @pytest.mark.parametrize("message_bytes", [1, 999, 64 * 1024])
    def test_symmetric_ring(self, n, message_bytes):
        def build(fastpath, injector):
            topo = ring(n)
            sim = NetworkSimulator(topo, faults=injector, fastpath=fastpath)
            result = ring_allreduce(sim, list(range(n)), message_bytes)
            return {
                "result": result,
                "now": sim.now,
                "delivered": sim.messages_delivered,
                "bytes": sim.bytes_delivered,
                "links": _topo_snapshot(sim),
            }

        fast = _assert_identical(build)
        assert fast["result"].completed

    def test_subset_ring_nodes(self):
        """A collective over a node subset (ring order 0-2-4-6) rides
        multi-hop routes — the shortcut declines, results still match."""

        def build(fastpath, injector):
            topo = ring(8)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            result = ring_allreduce(sim, [0, 2, 4, 6], 4096)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(sim)}

        _assert_identical(build)

    def test_pairs_sharing_a_link(self):
        """Ring order 0-2-1-3-5-4 on ``ring(6)``: pairs 0->2 and 1->3
        both route over link 1->2, so the replay declines."""

        def build(fastpath, injector):
            topo = ring(6)
            sim = NetworkSimulator(
                topo, packet_bytes=DEFAULT_PARAMS.collective_packet_bytes,
                fastpath=fastpath,
            )
            result = ring_allreduce(sim, [0, 2, 1, 3, 5, 4], 600)
            return {"result": result, "now": sim.now,
                    "events": sim.events_processed,
                    "links": _topo_snapshot(sim)}

        _fast, events = _assert_identical_events(build)
        assert events > 0

    @pytest.mark.parametrize("message_bytes,replayed", [
        (8 * 256, True),       # one-packet slices queue FIFO
        (8 * 768 + 1, False),  # 3- and 4-packet slices interleave
        (8 * 1024, False),
    ])
    def test_chains_queue_behind_a_slow_link(self, message_bytes, replayed):
        """An 8-ring whose link 0->1 runs at a third of the rate: chains
        catch up and queue there.  Queued one-packet flows are FIFO, so
        the replay prices them; queued multi-packet flows interleave
        round-robin, so the engine must run."""

        def build(fastpath, injector):
            topo = Topology(num_nodes=8)
            rate = DEFAULT_PARAMS.full_link_bytes_per_s
            for i in range(8):
                topo.add_link(i, (i + 1) % 8, rate / 3 if i == 0 else rate,
                              8e-9, name="ring")
            sim = NetworkSimulator(
                topo, packet_bytes=DEFAULT_PARAMS.collective_packet_bytes,
                fastpath=fastpath,
            )
            result = ring_allreduce(sim, list(range(8)), message_bytes)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(sim),
                    "events": sim.events_processed}

        _fast, events = _assert_identical_events(build)
        assert (events == 0) == replayed

    def test_ragged_one_hop_ring_is_replayed(self):
        """``ring(4)`` with 1,026 B: slices of 256 and 257 B are one and
        two collective packets, so the replay folds a zero-padded packet
        column, and must still equal the engine."""
        assert ring_slice_sizes(1026, 4) == [256, 257, 257, 256]

        def build(fastpath):
            topo = ring(4)
            sim = NetworkSimulator(
                topo, packet_bytes=DEFAULT_PARAMS.collective_packet_bytes,
                fastpath=fastpath,
            )
            profiling_enabled()
            reset_profile()
            try:
                result = ring_allreduce(sim, list(range(4)), 1026)
                counters = snapshot_profile()["counters"]
            finally:
                profiling_disabled()
                reset_profile()
            observed = {"result": result, "now": sim.now,
                        "delivered": (sim.messages_delivered, sim.bytes_delivered),
                        "links": _topo_snapshot(sim)}
            coalesced = counters.get("netsim.collectives_coalesced", 0)
            return observed, coalesced, sim.events_processed

        fast, fast_coalesced, fast_events = build(True)
        ref, _, ref_events = build(False)
        assert fast == ref
        assert fast_coalesced == 1 and fast_events == 0 and ref_events > 0


class TestAllToAllIdentity:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("bytes_per_pair", [1, 4096])
    def test_fully_connected(self, n, bytes_per_pair):
        def build(fastpath, injector):
            topo = flattened_butterfly_2d(1, n)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            result = all_to_all(sim, list(range(n)), bytes_per_pair)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(sim)}

        fast = _assert_identical(build)
        assert fast["result"].completed

    def test_two_hop_fbfly(self):
        """Diagonal pairs need two hops: the closed form declines and
        the packet engine must still match the reference."""

        def build(fastpath, injector):
            topo = flattened_butterfly_2d(2, 2)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            result = all_to_all(sim, [0, 1, 2, 3], 2048)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(sim)}

        _assert_identical(build)


class TestPaperGridIdentity:
    @staticmethod
    def _build_grid(num_groups, num_clusters, ar_bytes, a2a_bytes):
        def build(fastpath, injector):
            topo, layout = hybrid(num_groups, num_clusters)
            sim = NetworkSimulator(topo, faults=injector, fastpath=fastpath)
            ar = ring_allreduce(sim, layout.group_members(0), ar_bytes)
            observation = {"ar": ar, "now_ar": sim.now}
            if num_groups >= 2:
                sim2 = NetworkSimulator(topo, fastpath=fastpath)
                a2a = all_to_all(sim2, layout.cluster_members(0), a2a_bytes)
                observation["a2a"] = a2a
                observation["now_a2a"] = sim2.now
                observation["links_a2a"] = _topo_snapshot(sim2)
            observation["links"] = _topo_snapshot(sim)
            return observation

        return build

    @pytest.mark.parametrize("num_groups,num_clusters", PAPER_GRIDS)
    def test_grid_collectives(self, num_groups, num_clusters):
        for ar_bytes, a2a_bytes in GRID_MESSAGE_BYTES:
            _assert_identical(
                self._build_grid(num_groups, num_clusters, ar_bytes, a2a_bytes)
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("num_groups,num_clusters", PAPER_GRIDS_SLOW)
    def test_grid_collectives_slow(self, num_groups, num_clusters):
        _assert_identical(self._build_grid(num_groups, num_clusters, 8192, 512))


def _spliced_ring_build(groups, clusters, message_bytes, deadline_s=None,
                        start_time=0.0):
    """Build ``reconfigure(groups, clusters, 1)`` and run the all-reduce
    on its host-bridged logical ring with collective packets (as the
    resilience layer does), observing the ``netsim.packets_served``
    counter and the engine event count as well."""

    def build(fastpath, injector):
        machine = reconfigure(groups, clusters, 1)
        sim = NetworkSimulator(
            machine.topology,
            packet_bytes=DEFAULT_PARAMS.collective_packet_bytes,
            faults=injector,
            fastpath=fastpath,
        )
        profiling_enabled()
        reset_profile()
        try:
            result = ring_allreduce(sim, machine.logical_rings[0], message_bytes,
                                    start_time=start_time, deadline_s=deadline_s)
            counters = snapshot_profile()["counters"]
        finally:
            profiling_disabled()
            reset_profile()
        return {
            "result": result,
            "now": sim.now,
            "delivered": (sim.messages_delivered, sim.bytes_delivered),
            "links": _topo_snapshot(sim),
            "packets_served": counters.get("netsim.packets_served", 0),
            "events": sim.events_processed,
        }

    return build


def _splice_hop(machine):
    """The last hop of the first ring pair that routes over two hops
    (a narrow cluster-FBFLY link at a splice point)."""
    ring_order = machine.logical_rings[0]
    for a, b in zip(ring_order, ring_order[1:] + ring_order[:1]):
        route = machine.topology.route(a, b)
        if len(route) > 1:
            return route[-1]
    raise AssertionError("no multi-hop ring pair")


class TestSplicedRingIdentity:
    """The host-bridged logical ring of ``reconfigure(16, 4, 1)``: its
    four splice pairs in cluster 0 route over two narrow FBFLY hops, so
    the ring shortcut prices it with the per-link FIFO replay."""

    GRID = (16, 4)
    #: 256 B slices over 64 workers: one collective packet each.
    ONE_PACKET = 16 * 1024

    def test_splice_pairs_take_two_hops(self):
        machine = reconfigure(*self.GRID, 1)
        ring_order = machine.logical_rings[0]
        hops = [len(machine.topology.route(a, b))
                for a, b in zip(ring_order, ring_order[1:] + ring_order[:1])]
        assert hops.count(2) == 4 and hops.count(1) == len(hops) - 4

    def test_clean(self):
        fast, events = _assert_identical_events(
            _spliced_ring_build(*self.GRID, self.ONE_PACKET)
        )
        assert events == 0
        assert fast["result"].completed and fast["packets_served"] > 0

    def test_dead_splice_link(self):
        """Killing the second hop of a splice pair strands its chains
        after their first hop, whose bytes and arrival still count."""
        hop = _splice_hop(reconfigure(*self.GRID, 1))
        fast, events = _assert_identical_events(
            _spliced_ring_build(*self.GRID, self.ONE_PACKET, deadline_s=1.0),
            FaultPlan(link_faults=(LinkFault(src=hop.src, dst=hop.dst),)),
        )
        assert events == 0
        assert not fast["result"].completed

    def test_dead_worker_with_deadline(self):
        ring_order = reconfigure(*self.GRID, 1).logical_rings[0]
        plan = FaultPlan(
            worker_faults=(WorkerFault(worker=ring_order[len(ring_order) // 2]),)
        )
        deadline = _watchdog(len(ring_order), self.ONE_PACKET, plan,
                             DEFAULT_PARAMS)
        fast, events = _assert_identical_events(
            _spliced_ring_build(*self.GRID, self.ONE_PACKET, deadline_s=deadline),
            plan,
        )
        assert events == 0
        assert not fast["result"].completed

    def test_multi_packet_slices_decline(self):
        """1 KB slices are four packets on the two-hop splice pairs:
        queued multi-packet flows interleave, so the engine runs."""
        _fast, events = _assert_identical_events(
            _spliced_ring_build(*self.GRID, 64 * 1024)
        )
        assert events > 0

    def test_float_ties_decline(self):
        """At a start time of 2**40 s every hop's duration is absorbed
        by rounding, so successive users reach a link at the same float
        time and the engine's order would rest on sequence numbers."""
        _fast, events = _assert_identical_events(
            _spliced_ring_build(*self.GRID, self.ONE_PACKET, start_time=2.0 ** 40)
        )
        assert events > 0

    @settings(max_examples=20, deadline=None)
    @given(
        groups=st.sampled_from([4, 8, 16]),
        clusters=st.sampled_from([2, 4]),
        slice_bytes=st.integers(min_value=0, max_value=600),
        remainder=st.integers(min_value=0, max_value=63),
        fault=st.sampled_from(["clean", "dead-link", "dead-worker"]),
        victim=st.integers(min_value=0, max_value=63),
    )
    def test_random_spliced_rings(self, groups, clusters, slice_bytes,
                                  remainder, fault, victim):
        machine = reconfigure(groups, clusters, 1)
        ring_order = machine.logical_rings[0]
        n = len(ring_order)
        message_bytes = slice_bytes * n + remainder % n
        if message_bytes == 0:
            return
        plan, deadline = None, None
        if fault == "dead-link":
            a = ring_order[victim % n]
            b = ring_order[(victim + 1) % n]
            hop = machine.topology.route(a, b)[-1]
            plan = FaultPlan(link_faults=(LinkFault(src=hop.src, dst=hop.dst),))
            deadline = 1.0
        elif fault == "dead-worker":
            plan = FaultPlan(
                worker_faults=(WorkerFault(worker=ring_order[victim % n]),)
            )
            deadline = 1.0
        _assert_identical_events(
            _spliced_ring_build(groups, clusters, message_bytes, deadline), plan
        )

    @pytest.mark.slow
    def test_paper_256_ring(self):
        fast, events = _assert_identical_events(
            _spliced_ring_build(16, 16, 64 * 1024)
        )
        assert events == 0 and fast["result"].completed

    @pytest.mark.slow
    def test_paper_256_ring_dead_worker_first_attempt(self):
        ring_order = reconfigure(16, 16, 1).logical_rings[0]
        plan = FaultPlan(
            worker_faults=(WorkerFault(worker=ring_order[len(ring_order) // 2]),)
        )
        deadline = _watchdog(len(ring_order), 64 * 1024, plan, DEFAULT_PARAMS)
        fast, events = _assert_identical_events(
            _spliced_ring_build(16, 16, 64 * 1024, deadline_s=deadline), plan
        )
        assert events == 0 and not fast["result"].completed


class TestPaperRingReplayPin:
    """The ring shortcut alone on ``reconfigure(16, 16, 1)``'s
    host-bridged 256-ring (64 KiB, collective packets), pinned to the
    values the reference engine computes for it (the ``-m slow``
    identity tests above compare the two engines directly)."""

    MESSAGE = 64 * 1024
    #: Wire bytes of one full collective packet.
    PACKET_WIRE = (DEFAULT_PARAMS.collective_packet_bytes
                   + DEFAULT_PARAMS.packet_header_bytes)
    #: Packets each ring link carries under the dead-worker plan, in
    #: route order, as runs ``(first, length)`` of consecutive counts.
    DEAD_WORKER_RUNS = [(65, 64), (128, 65), (0, 1), (0, 63), (0, 1),
                        (0, 65), (64, 1)]

    def _run(self, plan=None, deadline_s=None):
        machine = reconfigure(16, 16, 1)
        ring_order = machine.logical_rings[0]
        ring_links = [
            link
            for a, b in zip(ring_order, ring_order[1:] + ring_order[:1])
            for link in machine.topology.route(a, b)
        ]
        sim = NetworkSimulator(
            machine.topology,
            packet_bytes=DEFAULT_PARAMS.collective_packet_bytes,
            faults=FaultInjector(plan) if plan is not None else None,
            fastpath=True,
        )
        profiling_enabled()
        reset_profile()
        try:
            result = ring_allreduce(sim, ring_order, self.MESSAGE,
                                    deadline_s=deadline_s)
            served = snapshot_profile()["counters"].get("netsim.packets_served")
        finally:
            profiling_disabled()
            reset_profile()
        assert sim.events_processed == 0
        assert len(ring_links) == 260
        # Python scalars only: no numpy value reaches a result or a report.
        assert type(result.finish_time_s) is float and type(sim.now) is float
        assert type(result.messages) is int
        ring_bytes = [sim.bytes_carried(link) for link in ring_links]
        assert all(type(wire) is float for wire in ring_bytes)
        on_ring = {id(link) for link in ring_links}
        off_ring = [sim.bytes_carried(link) for link in machine.topology.links
                    if id(link) not in on_ring]
        assert not any(off_ring)
        return result, sim, served, ring_bytes

    def test_clean(self):
        result, sim, served, ring_bytes = self._run()
        finish = float.fromhex("0x1.c53317b2e3c11p-17")
        assert result == CollectiveResult(finish, 33_423_360.0, 130_560, True)
        assert sim.now == finish
        assert (sim.messages_delivered, sim.bytes_delivered) == (130_560, 33_423_360)
        assert served == 132_600
        assert ring_bytes == [510 * self.PACKET_WIRE] * 260

    def test_dead_worker_first_attempt(self):
        ring_order = reconfigure(16, 16, 1).logical_rings[0]
        plan = FaultPlan(
            worker_faults=(WorkerFault(worker=ring_order[len(ring_order) // 2]),)
        )
        deadline = _watchdog(len(ring_order), self.MESSAGE, plan, DEFAULT_PARAMS)
        result, sim, served, ring_bytes = self._run(plan, deadline)
        assert result == CollectiveResult(0.0, 20_289 * 256.0, 20_289, False)
        assert sim.now == float.fromhex("0x1.54b2c2870f031p-18")
        assert sim.messages_delivered == 20_289
        assert served == 20_673
        packets = [first + i for first, length in self.DEAD_WORKER_RUNS
                   for i in range(length)]
        assert sum(packets) == served
        assert ring_bytes == [count * self.PACKET_WIRE for count in packets]


def _profiled_counters(call):
    """Profiler counters ``call()`` bumps."""
    profiling_enabled()
    reset_profile()
    try:
        call()
        return snapshot_profile()["counters"]
    finally:
        profiling_disabled()
        reset_profile()


def _with_prefix(counters, prefix):
    return {name[len(prefix):]: count for name, count in counters.items()
            if name.startswith(prefix)}


class TestDeclineReasons:
    """The collective shortcuts count why they fell back, one profiler
    counter per reason: the ring shortcut on the fault battery's two
    remaining engine runs, the all-to-all shortcut on the group-leader
    replays of ``planner.validate_plan_transitions``."""

    @pytest.fixture(autouse=True)
    def _fast_paths_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_NETSIM_REFERENCE", raising=False)

    @staticmethod
    def _declines(scenario, groups):
        machine = reconfigure(16, 16, groups)
        plan = SCENARIOS[scenario](machine, 0)
        counters = _profiled_counters(lambda: resilient_ring_allreduce(
            machine, 0, 64 * 1024, plan, DEFAULT_PARAMS))
        return _with_prefix(counters, "netsim.ring_declined.")

    def test_dead_worker_retry_on_the_255_ring(self):
        """The first attempt is replayed; the retry's ragged 256/257 B
        slices are two packets on two-hop splice pairs."""
        assert self._declines("dead-worker", 1) == {"multi_packet_multi_hop": 1}

    def test_lossy_inter_cluster(self):
        assert self._declines("lossy-inter-cluster", 16) == {"dirty_link": 1}

    @staticmethod
    def _group_leader_all_to_all(groups, clusters):
        """Route lengths and counters of the all-to-all among cluster
        0's members (one leader per group) that the transition replay
        runs when a plan enters a ``groups x clusters`` grid."""
        topology, layout = hybrid(groups, clusters, DEFAULT_PARAMS)
        sim = NetworkSimulator(topology, DEFAULT_PARAMS)
        leaders = layout.cluster_members(0)
        counters = _profiled_counters(lambda: all_to_all(sim, leaders, 4096))
        hops = {len(topology.route(src, dst))
                for src in leaders for dst in leaders if src != dst}
        return hops, counters

    def test_16x16_group_leaders_are_multi_hop(self):
        hops, counters = self._group_leader_all_to_all(16, 16)
        assert hops == {1, 2}
        assert _with_prefix(counters, "netsim.all_to_all_declined.") == {
            "multi_hop": 1}
        assert "netsim.collectives_coalesced" not in counters

    def test_4x64_group_leaders_coalesce(self):
        hops, counters = self._group_leader_all_to_all(4, 64)
        assert hops == {1}
        assert counters["netsim.collectives_coalesced"] == 1
        assert not _with_prefix(counters, "netsim.all_to_all_declined.")
        assert not _with_prefix(counters, "netsim.ring_declined.")


class TestInvalidInput:
    """Bad collective input raises the same ``ValueError`` whichever
    engine would run."""

    @staticmethod
    def _errors(call):
        errors = []
        for fastpath in (True, False):
            sim = NetworkSimulator(ring(4), fastpath=fastpath)
            with pytest.raises(ValueError) as info:
                call(sim)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("nodes,message_bytes,start_time", [
        ([0, 1, 2, 3], -5, 0.0),
        ([0, 1, 2, 3], float("nan"), 0.0),
        ([0, 1, 2, 3], float("inf"), 0.0),
        ([], 4096, 0.0),
        ([0, 1, 2, 3], 4096, float("nan")),
        ([0, 1, 2, 3], 4096, float("inf")),
    ])
    def test_ring_allreduce(self, nodes, message_bytes, start_time):
        self._errors(lambda sim: ring_allreduce(
            sim, nodes, message_bytes, start_time=start_time))

    @pytest.mark.parametrize("start_time", [float("nan"), float("-inf")])
    def test_all_to_all_start_time(self, start_time):
        self._errors(lambda sim: all_to_all(
            sim, [0, 1, 2, 3], 512, start_time=start_time))


class TestRouteErrors:
    """The shortcuts only swallow the errors ``Topology.route`` raises
    for an unreachable pair; the reference path then raises the same."""

    @staticmethod
    def _two_components():
        topo = Topology(num_nodes=4)
        rate = DEFAULT_PARAMS.full_link_bytes_per_s
        topo.add_bidirectional(0, 1, rate, 1e-9)
        topo.add_bidirectional(2, 3, rate, 1e-9)
        return topo

    @pytest.mark.parametrize("collective", [ring_allreduce, all_to_all])
    def test_disconnected_nodes_raise_the_same_error(self, collective):
        errors = []
        for fastpath in (True, False):
            sim = NetworkSimulator(self._two_components(), fastpath=fastpath)
            with pytest.raises(ValueError) as info:
                collective(sim, [0, 1, 2, 3], 4096)
            errors.append(str(info.value))
        assert errors[0] == errors[1] and "no route" in errors[0]


class TestFaultScenarioIdentity:
    """Every fault class from the scenario battery, fast vs reference.

    The fast paths must either prove the horizon fault-clean (or
    deterministically dead) or decline; in both cases results and fault
    counters are bit-identical.
    """

    @staticmethod
    def _build_faulted_ring(plan_placeholder=None, deadline_s=None,
                            message_bytes=16 * 1024):
        def build(fastpath, injector):
            topo = ring(8)
            sim = NetworkSimulator(topo, faults=injector, fastpath=fastpath)
            result = ring_allreduce(sim, list(range(8)), message_bytes,
                                    deadline_s=deadline_s)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(sim)}

        return build

    def test_baseline_clean_plan(self):
        _assert_identical(self._build_faulted_ring(), FaultPlan())

    def test_dead_link_strands_identically(self):
        fast = _assert_identical(
            self._build_faulted_ring(deadline_s=1.0),
            FaultPlan(link_faults=(LinkFault(src=2, dst=3),)),
        )
        assert not fast["result"].completed

    def test_finite_fault_window(self):
        """A repairable outage is 'dirty': both modes take the
        reference path and agree trivially — the point is the fast
        path *declines* rather than mispricing the stall."""
        _assert_identical(
            self._build_faulted_ring(),
            FaultPlan(link_faults=(
                LinkFault(src=1, dst=2, fail_s=0.0, repair_s=5e-5),
            )),
        )

    def test_dead_worker(self):
        fast = _assert_identical(
            self._build_faulted_ring(deadline_s=1.0),
            FaultPlan(worker_faults=(WorkerFault(worker=5),)),
        )
        assert not fast["result"].completed

    def test_packet_loss_with_retransmits(self):
        fast = _assert_identical(
            self._build_faulted_ring(),
            FaultPlan(seed=7, losses=(PacketLoss(loss_prob=0.05),)),
        )
        dropped, retransmits, _failed = fast["faults"]
        assert dropped > 0 and retransmits > 0

    def test_deadline_mid_collective(self):
        """A deadline that truncates the collective mid-flight: the
        shortcut must not commit past it."""

        def build(fastpath, injector):
            topo = ring(8)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            full = ring_allreduce(sim, list(range(8)), 64 * 1024)
            # Rebuild and cut at 40% of the clean finish time.
            topo2 = ring(8)
            sim2 = NetworkSimulator(topo2, fastpath=fastpath)
            cut = ring_allreduce(sim2, list(range(8)), 64 * 1024,
                                 deadline_s=full.finish_time_s * 0.4)
            return {"full": full, "cut": cut, "now": sim2.now,
                    "links": _topo_snapshot(sim2)}

        fast = _assert_identical(build)
        assert fast["full"].completed and not fast["cut"].completed


class TestRawMessageIdentity:
    def test_staggered_flows(self):
        def build_flows(n, flows):
            def build(fastpath, injector):
                topo = ring(n)
                sim = NetworkSimulator(topo, fastpath=fastpath)
                times = []
                for i, (src, dst, size, start) in enumerate(flows):
                    sim.send(
                        Message(src=src, dst=dst, size_bytes=size,
                                on_complete=lambda m, t, i=i: times.append((i, t))),
                        start_time=start,
                    )
                sim.run()
                return {"times": sorted(times), "now": sim.now,
                        "links": _topo_snapshot(sim)}

            return build

        _assert_identical(build_flows(6, [
            (0, 1, 9_000, 0.0),
            (1, 2, 5_000, 1e-6),
            (0, 1, 2_000, 2e-6),
            (3, 4, 64_000, 0.0),
        ]))
        # A five-hop 200 kB flow, a disjoint four-hop flow and a late
        # one-hop flow onto the five-hop path: the fast engine must
        # still match packet for packet.
        _assert_identical(build_flows(16, [
            (0, 5, 200_000, 0.0),
            (8, 12, 50_000, 0.0),
            (3, 4, 1_000, 5e-6),
        ]))


class TestEnvironmentToggle:
    def test_reference_env_var_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NETSIM_REFERENCE", "1")
        assert NetworkSimulator(ring(4)).fastpath is False
        monkeypatch.setenv("REPRO_NETSIM_REFERENCE", "0")
        assert NetworkSimulator(ring(4)).fastpath is True
        monkeypatch.delenv("REPRO_NETSIM_REFERENCE")
        assert NetworkSimulator(ring(4)).fastpath is True

    def test_ctor_flag_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_NETSIM_REFERENCE", "1")
        assert NetworkSimulator(ring(4), fastpath=True).fastpath is True


class TestPropertyIdentity:
    """Randomised equivalence: any ring collective and any bag of flows
    must agree between the fast and reference engines."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=10),
        message_bytes=st.integers(min_value=1, max_value=100_000),
    )
    def test_random_ring_allreduce(self, n, message_bytes):
        def build(fastpath, injector):
            topo = ring(n)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            result = ring_allreduce(sim, list(range(n)), message_bytes)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(sim)}

        _assert_identical(build)

    @settings(max_examples=25, deadline=None)
    @given(
        flows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=1, max_value=50_000),
                st.floats(min_value=0.0, max_value=1e-5,
                          allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_random_flow_bags(self, flows):
        flows = [(s, d, b, t) for s, d, b, t in flows if s != d]
        if not flows:
            return

        def build(fastpath, injector):
            topo = ring(6)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            times = []
            for i, (src, dst, size, start) in enumerate(flows):
                sim.send(
                    Message(src=src, dst=dst, size_bytes=size,
                            on_complete=lambda m, t, i=i: times.append((i, t))),
                    start_time=start,
                )
            sim.run()
            return {"times": sorted(times), "now": sim.now,
                    "links": _topo_snapshot(sim)}

        _assert_identical(build)

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=8),
        message_bytes=st.integers(min_value=1, max_value=50_000),
        seed=st.integers(min_value=0, max_value=3),
        loss=st.floats(min_value=0.0, max_value=0.2,
                       allow_nan=False, allow_infinity=False),
    )
    def test_random_lossy_ring(self, n, message_bytes, seed, loss):
        plan = FaultPlan(seed=seed, losses=(PacketLoss(loss_prob=loss),))

        def build(fastpath, injector):
            topo = ring(n)
            sim = NetworkSimulator(topo, faults=injector, fastpath=fastpath)
            result = ring_allreduce(sim, list(range(n)), message_bytes,
                                    deadline_s=1.0)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(sim)}

        _assert_identical(build, plan)


def test_finish_times_are_finite_sanity():
    """Guard against silent inf/nan from closed forms."""
    sim = NetworkSimulator(ring(8))
    result = ring_allreduce(sim, list(range(8)), 64 * 1024)
    assert math.isfinite(result.finish_time_s) and result.finish_time_s > 0
