"""Tests for network topologies and routing."""

import pytest

from repro.netsim import (
    GridLayout,
    Topology,
    flattened_butterfly_2d,
    hybrid,
    ring,
)


class TestRing:
    def test_link_count(self):
        topo = ring(8)
        assert len(topo.links) == 16  # 8 bidirectional

    def test_route_is_minimal(self):
        topo = ring(8)
        assert len(topo.route(0, 1)) == 1
        assert len(topo.route(0, 4)) == 4
        assert len(topo.route(0, 7)) == 1  # wrap-around

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ring(1)

    def test_full_vs_narrow_rate(self):
        full = ring(4, full=True)
        narrow = ring(4, full=False)
        assert full.links[0].bytes_per_s > narrow.links[0].bytes_per_s


class TestFlattenedButterfly:
    def test_link_count_4x4(self):
        topo = flattened_butterfly_2d(4, 4)
        # Each node: 3 row + 3 col bidirectional links; each counted once
        # per direction: 16 nodes * 6 = 96 directed links.
        assert len(topo.links) == 96

    def test_max_two_hops(self):
        topo = flattened_butterfly_2d(4, 4)
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    assert len(topo.route(src, dst)) <= 2

    def test_dimension_order_routing(self):
        topo = flattened_butterfly_2d(4, 4)
        # 0 -> 15: row first (0 -> 3), then column (3 -> 15).
        path = topo.route(0, 15)
        assert [link.dst for link in path] == [3, 15]

    def test_same_row_single_hop(self):
        topo = flattened_butterfly_2d(4, 4)
        assert len(topo.route(4, 7)) == 1

    def test_uniform_traffic_balances_links(self):
        """Dimension-order routing must spread uniform all-to-all evenly:
        every link carries the same number of flows."""
        topo = flattened_butterfly_2d(4, 4)
        load = {}
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                for link in topo.route(src, dst):
                    load[(link.src, link.dst)] = load.get((link.src, link.dst), 0) + 1
        counts = set(load.values())
        assert counts == {4}


class TestHybrid:
    def test_grid_layout_numbering(self):
        layout = GridLayout(num_groups=4, num_clusters=4)
        assert layout.node(0, 0) == 0
        assert layout.node(1, 0) == 4
        assert layout.group_members(0) == [0, 1, 2, 3]
        assert layout.cluster_members(0) == [0, 4, 8, 12]

    def test_structure_16x16(self):
        topo, layout = hybrid(16, 16)
        assert topo.num_nodes == 256
        # Group ring routes stay within the group.
        members = layout.group_members(3)
        path = topo.route(members[0], members[1])
        assert len(path) == 1

    def test_cluster_routes_use_cluster_links(self):
        topo, layout = hybrid(16, 4)
        cluster = layout.cluster_members(2)
        path = topo.route(cluster[0], cluster[5])
        assert all("cluster2" in link.name or link.src % 4 == 2 for link in path)

    def test_small_cluster_fully_connected(self):
        """Four-worker clusters are fully connected (single hop), as in
        the paper's (4, 64) configuration."""
        topo, layout = hybrid(4, 4)
        cluster = layout.cluster_members(0)
        for a in cluster:
            for b in cluster:
                if a != b:
                    assert len(topo.route(a, b)) == 1


class TestTopologyBasics:
    def test_duplicate_link_keeps_faster(self):
        topo = Topology(num_nodes=2)
        topo.add_link(0, 1, 10.0, 1e-9)
        link = topo.add_link(0, 1, 20.0, 1e-9)
        assert len(topo.links) == 1
        assert link.bytes_per_s == 20.0

    def test_missing_route_raises(self):
        topo = Topology(num_nodes=3)
        topo.add_link(0, 1, 1.0, 0.0)
        with pytest.raises(ValueError):
            topo.route(0, 2)

    def test_missing_link_raises(self):
        topo = Topology(num_nodes=2)
        with pytest.raises(KeyError):
            topo.link(0, 1)

    @pytest.mark.parametrize("rate,latency", [
        (0.0, 1e-9), (-1.0, 1e-9), (float("nan"), 1e-9), (float("inf"), 1e-9),
        (1e9, -1e-9), (1e9, float("nan")), (1e9, float("inf")),
    ])
    def test_invalid_link_rejected(self, rate, latency):
        """Every engine divides by the rate: a zero rate would raise
        ``ZeroDivisionError`` mid-run in the packet engine and give an
        infinite finish in the ring replay."""
        topo = Topology(num_nodes=2)
        with pytest.raises(ValueError, match="0->1"):
            topo.add_link(0, 1, rate, latency)
        assert topo.links == []
