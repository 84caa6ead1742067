"""Memory-centric network topologies (paper Section IV, Fig. 9).

Topologies are directed multigraphs of unidirectional links.  The paper's
system organises 256 workers as 16 groups x 16 clusters with

* a **ring** of full-width links inside each group (weight collectives),
* a **2D flattened butterfly** of narrow links inside each cluster
  (tile gather/scatter), and
* **host bridges** that splice group rings together for dynamic
  clustering (Section IV's three configurations).

Routing is minimal and deterministic (dimension-order within the FBFLY;
around the ring in its orientation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..params import DEFAULT_PARAMS, HardwareParams


@dataclass(frozen=True, eq=False)
class Link:
    """A unidirectional channel between two nodes.

    Immutable, and compared by identity: one ``Link`` is one channel of
    one built machine.  What a run puts on the wire is the simulator's
    state (``NetworkSimulator.bytes_carried``), never the link's.
    """

    src: int
    dst: int
    bytes_per_s: float
    latency_s: float
    name: str = ""


@dataclass
class Topology:
    """A set of nodes and unidirectional links with precomputed routes.

    A topology is only grown while it is built: once the function that
    builds it (``ring``, ``hybrid``, ``reconfigure``, ``splice_out``, ...)
    returns, nothing adds a link or swaps ``routing_fn``, so memoized
    routes stay valid and one built machine can be shared by every run.
    ``routing_fn``, when set, overrides shortest-path routing: it maps
    ``(src, dst)`` to the full node path (used for load-balanced
    dimension-order routing on the flattened butterfly).
    """

    num_nodes: int
    links: List[Link] = field(default_factory=list)
    routing_fn: Optional[Callable[[int, int], List[int]]] = None
    _adjacency: Dict[int, Dict[int, Link]] = field(default_factory=dict)
    #: Lazily built next-hop columns, one per queried destination (the
    #: all-pairs table is never needed: most routes are answered by the
    #: direct-link fast path, and a 256-node battery only ever asks for
    #: a handful of multi-hop destinations).
    _next_hop_cols: Dict[int, List[int]] = field(default_factory=dict)
    #: Memoized ``route()`` results (shared lists — treat as read-only).
    _route_cache: Dict[Tuple[int, int], List[Link]] = field(default_factory=dict)

    def copy(
        self, routing_fn: Optional[Callable[[int, int], List[int]]]
    ) -> "Topology":
        """A new topology over this one's links (shared: links are
        immutable) with its own adjacency, route cache and ``routing_fn``,
        ready for more links; this topology is left as it is."""
        return Topology(
            num_nodes=self.num_nodes,
            links=list(self.links),
            routing_fn=routing_fn,
            _adjacency={src: dict(out) for src, out in self._adjacency.items()},
        )

    def add_link(
        self,
        src: int,
        dst: int,
        bytes_per_s: float,
        latency_s: float,
        name: str = "",
    ) -> Link:
        """Add one unidirectional link; on a duplicate pair the faster
        link takes the slower one's place.  The rate must be finite and
        positive and the latency finite and non-negative: every engine
        divides by the rate."""
        if not 0 < bytes_per_s < math.inf:
            raise ValueError(
                f"link {src}->{dst}: bytes_per_s must be finite and > 0, "
                f"got {bytes_per_s!r}"
            )
        if not 0 <= latency_s < math.inf:
            raise ValueError(
                f"link {src}->{dst}: latency_s must be finite and >= 0, "
                f"got {latency_s!r}"
            )
        existing = self._adjacency.setdefault(src, {}).get(dst)
        if existing is not None and bytes_per_s <= existing.bytes_per_s:
            return existing
        link = Link(src, dst, bytes_per_s, latency_s, name)
        if existing is None:
            self.links.append(link)
        else:
            self.links[self.links.index(existing)] = link
        self._adjacency[src][dst] = link
        self._next_hop_cols.clear()
        self._route_cache.clear()
        return link

    def add_bidirectional(
        self,
        a: int,
        b: int,
        bytes_per_s: float,
        latency_s: float,
        name: str = "",
    ) -> None:
        self.add_link(a, b, bytes_per_s, latency_s, name)
        self.add_link(b, a, bytes_per_s, latency_s, name)

    def neighbors(self, node: int) -> Dict[int, Link]:
        return self._adjacency.get(node, {})

    def link(self, src: int, dst: int) -> Link:
        try:
            return self._adjacency[src][dst]
        except KeyError:
            raise KeyError(f"no link {src} -> {dst}") from None

    # ---- routing ---------------------------------------------------------
    def _next_hop_col(self, dst: int) -> List[int]:
        """Next-hop column toward ``dst`` via reverse Dijkstra weighted
        by hop count, with latency as tie-break (minimal routing).  One
        column per destination, built on first demand."""
        import heapq

        col = self._next_hop_cols.get(dst)
        if col is not None:
            return col
        inf = math.inf
        # Reverse Dijkstra over incoming links.
        incoming: Dict[int, List[Link]] = {}
        for link in self.links:
            incoming.setdefault(link.dst, []).append(link)
        dist = [inf] * self.num_nodes
        dist[dst] = 0.0
        first_hop: List[int] = [-1] * self.num_nodes
        heap: List[Tuple[float, int]] = [(0.0, dst)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for link in incoming.get(node, []):
                # hop-count dominant cost, small latency tie-break
                cost = d + 1.0 + link.latency_s * 1e-3
                if cost < dist[link.src]:
                    dist[link.src] = cost
                    first_hop[link.src] = node
                    heapq.heappush(heap, (cost, link.src))
        self._next_hop_cols[dst] = first_hop
        return first_hop

    def route(self, src: int, dst: int) -> List[Link]:
        """Minimal route as a list of links.

        The returned list is memoized and shared between callers — the
        engine and the fast paths treat routes as read-only."""
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        path = self._route_uncached(src, dst)
        self._route_cache[(src, dst)] = path
        return path

    def _route_uncached(self, src: int, dst: int) -> List[Link]:
        if self.routing_fn is not None and src != dst:
            nodes = self.routing_fn(src, dst)
            if nodes is not None:
                path = []
                for a, b in zip(nodes, nodes[1:]):
                    path.append(self.link(a, b))
                return path
        # Direct link: under the hop-dominant cost (1 per hop, latency a
        # ~1e-10 tie-break) a one-hop path always beats any multi-hop
        # alternative, so this is exactly what the Dijkstra column would
        # answer — without ever building it.
        direct = self._adjacency.get(src, {}).get(dst)
        if direct is not None and src != dst:
            return [direct]
        col = self._next_hop_col(dst)
        path: List[Link] = []
        node = src
        visited = 0
        while node != dst:
            nxt = col[node]
            if nxt < 0:
                raise ValueError(f"no route from {src} to {dst}")
            path.append(self.link(node, nxt))
            node = nxt
            visited += 1
            if visited > self.num_nodes + 2:
                raise RuntimeError("routing loop detected")
        return path


def _link_latency(params: HardwareParams) -> float:
    return params.serdes_latency_s + params.router_latency_cycles / params.clock_hz


def ring(n: int, params: HardwareParams = DEFAULT_PARAMS, full: bool = True) -> Topology:
    """A bidirectional ring of ``n`` nodes."""
    if n < 2:
        raise ValueError(f"ring needs >= 2 nodes, got {n}")
    topo = Topology(num_nodes=n)
    rate = params.full_link_bytes_per_s if full else params.narrow_link_bytes_per_s
    lat = _link_latency(params)
    for i in range(n):
        topo.add_bidirectional(i, (i + 1) % n, rate, lat, name="ring")
    return topo


def flattened_butterfly_2d(
    rows: int, cols: int, params: HardwareParams = DEFAULT_PARAMS, full: bool = False
) -> Topology:
    """2D flattened butterfly: every node links to all nodes sharing its
    row and all sharing its column (max 2 hops, Section IV)."""
    n = rows * cols
    topo = Topology(num_nodes=n)
    rate = params.full_link_bytes_per_s if full else params.narrow_link_bytes_per_s
    lat = _link_latency(params)
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            for c2 in range(c + 1, cols):
                topo.add_bidirectional(node, r * cols + c2, rate, lat, name="fbfly-row")
            for r2 in range(r + 1, rows):
                topo.add_bidirectional(node, r2 * cols + c, rate, lat, name="fbfly-col")
    topo.routing_fn = _dimension_order(rows, cols, lambda node: node)
    return topo


def _dimension_order(
    rows: int, cols: int, to_node: Callable[[int], int]
) -> Callable[[int, int], Optional[List[int]]]:
    """Row-first dimension-order routing for an FBFLY laid out row-major
    over logical indices 0..rows*cols-1; ``to_node`` maps logical index to
    topology node id.  Balanced for uniform all-to-all traffic."""
    node_to_logical = {to_node(i): i for i in range(rows * cols)}

    def route(src: int, dst: int) -> Optional[List[int]]:
        ls = node_to_logical.get(src)
        ld = node_to_logical.get(dst)
        if ls is None or ld is None:
            return None
        sr, sc = divmod(ls, cols)
        dr, dc = divmod(ld, cols)
        path = [src]
        if sc != dc:
            path.append(to_node(sr * cols + dc))
        if sr != dr:
            path.append(to_node(dr * cols + dc))
        return path

    return route


@dataclass(frozen=True)
class GridLayout:
    """Worker numbering of the paper's 2D organisation.

    Worker ``(g, c)`` — group ``g``, cluster ``c`` — is node
    ``g * num_clusters + c``.
    """

    num_groups: int
    num_clusters: int

    @property
    def num_workers(self) -> int:
        return self.num_groups * self.num_clusters

    def node(self, group: int, cluster: int) -> int:
        return group * self.num_clusters + cluster

    def group_members(self, group: int) -> List[int]:
        return [self.node(group, c) for c in range(self.num_clusters)]

    def cluster_members(self, cluster: int) -> List[int]:
        return [self.node(g, cluster) for g in range(self.num_groups)]


def hybrid(
    num_groups: int,
    num_clusters: int,
    params: HardwareParams = DEFAULT_PARAMS,
    fbfly_rows: Optional[int] = None,
) -> Tuple[Topology, GridLayout]:
    """The paper's hybrid topology: a full-width ring per group plus a
    narrow 2D flattened butterfly per cluster.

    Clusters of ``num_groups`` workers get an FBFLY of shape
    ``fbfly_rows x (num_groups / fbfly_rows)`` (default: the squarest
    factorisation, 4x4 for 16 workers as in Fig. 9).
    """
    layout = GridLayout(num_groups, num_clusters)
    topo = Topology(num_nodes=layout.num_workers)
    lat = _link_latency(params)

    # Group rings (weight collectives).
    for g in range(num_groups):
        members = layout.group_members(g)
        if len(members) >= 2:
            for i, node in enumerate(members):
                topo.add_bidirectional(
                    node,
                    members[(i + 1) % len(members)],
                    params.full_link_bytes_per_s,
                    lat,
                    name=f"group{g}-ring",
                )

    # Cluster FBFLYs (tile transfer).
    if num_groups >= 2:
        if fbfly_rows is None:
            from .collectives import fbfly_shape

            fbfly_rows, _ = fbfly_shape(num_groups)
        fbfly_cols = num_groups // fbfly_rows
        for c in range(num_clusters):
            members = layout.cluster_members(c)
            for r in range(fbfly_rows):
                for col in range(fbfly_cols):
                    node = members[r * fbfly_cols + col]
                    for col2 in range(col + 1, fbfly_cols):
                        topo.add_bidirectional(
                            node,
                            members[r * fbfly_cols + col2],
                            params.narrow_link_bytes_per_s,
                            lat,
                            name=f"cluster{c}-fbfly",
                        )
                    for r2 in range(r + 1, fbfly_rows):
                        topo.add_bidirectional(
                            node,
                            members[r2 * fbfly_cols + col],
                            params.narrow_link_bytes_per_s,
                            lat,
                            name=f"cluster{c}-fbfly",
                        )
        # Balanced dimension-order routing inside each cluster.
        cluster_routers = []
        for c in range(num_clusters):
            members = layout.cluster_members(c)
            cluster_routers.append(
                _dimension_order(fbfly_rows, fbfly_cols, members.__getitem__)
            )

        def hybrid_route(src: int, dst: int) -> Optional[List[int]]:
            if src % num_clusters == dst % num_clusters:
                return cluster_routers[src % num_clusters](src, dst)
            return None

        topo.routing_fn = hybrid_route
    return topo, layout
