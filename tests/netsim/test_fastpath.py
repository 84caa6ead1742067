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

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    LinkFault,
    PacketLoss,
    WorkerFault,
)
from repro.faults.resilience import _watchdog
from repro.netsim import (
    Message,
    NetworkSimulator,
    Topology,
    all_to_all,
    flattened_butterfly_2d,
    hybrid,
    ring,
    ring_allreduce,
)
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


def _topo_snapshot(topology):
    return sorted(
        (link.src, link.dst, link.name, link.bytes_carried)
        for link in topology.links
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
                "links": _topo_snapshot(topo),
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
                    "links": _topo_snapshot(topo)}

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
                    "links": _topo_snapshot(topo)}

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
                    "links": _topo_snapshot(topo),
                    "events": sim.events_processed}

        _fast, events = _assert_identical_events(build)
        assert (events == 0) == replayed


class TestAllToAllIdentity:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("bytes_per_pair", [1, 4096])
    def test_fully_connected(self, n, bytes_per_pair):
        def build(fastpath, injector):
            topo = flattened_butterfly_2d(1, n)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            result = all_to_all(sim, list(range(n)), bytes_per_pair)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(topo)}

        fast = _assert_identical(build)
        assert fast["result"].completed

    def test_two_hop_fbfly(self):
        """Diagonal pairs need two hops: the closed form declines and
        the engine (with coalescing) must still match the reference."""

        def build(fastpath, injector):
            topo = flattened_butterfly_2d(2, 2)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            result = all_to_all(sim, [0, 1, 2, 3], 2048)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(topo)}

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
            observation["links"] = _topo_snapshot(topo)
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
            "links": _topo_snapshot(machine.topology),
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
                    "links": _topo_snapshot(topo)}

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
                    "links": _topo_snapshot(topo2)}

        fast = _assert_identical(build)
        assert fast["full"].completed and not fast["cut"].completed


class TestRawMessageIdentity:
    def test_single_message_coalesces_identically(self):
        def build(fastpath, injector):
            topo = ring(4)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            done = {}
            sim.send(Message(src=0, dst=1, size_bytes=50_000,
                             on_complete=lambda m, t: done.setdefault("t", t)))
            sim.run()
            return {"done": done, "now": sim.now,
                    "links": _topo_snapshot(topo)}

        _assert_identical(build)

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
                        "links": _topo_snapshot(topo)}

            return build

        _assert_identical(build_flows(6, [
            (0, 1, 9_000, 0.0),
            (1, 2, 5_000, 1e-6),
            (0, 1, 2_000, 2e-6),
            (3, 4, 64_000, 0.0),
        ]))
        # A five-hop 200 kB flow, a disjoint four-hop flow and a late
        # one-hop flow onto the five-hop path.  No flow starts alone in
        # the simulator, so none is coalesced: the fast engine must
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
                    "links": _topo_snapshot(topo)}

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
                    "links": _topo_snapshot(topo)}

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
                    "links": _topo_snapshot(topo)}

        _assert_identical(build, plan)


def test_finish_times_are_finite_sanity():
    """Guard against silent inf/nan from closed forms."""
    sim = NetworkSimulator(ring(8))
    result = ring_allreduce(sim, list(range(8)), 64 * 1024)
    assert math.isfinite(result.finish_time_s) and result.finish_time_s > 0
