"""Event-driven memory-centric network simulator (Booksim substitute)."""

from .collectives import (
    CollectiveResult,
    all_to_all,
    all_to_all_time,
    fbfly_injection_rate,
    ring_allreduce,
    ring_allreduce_time,
)
from .engine import FaultHooks, Message, NetworkSimulator
from .reconfiguration import (
    ReconfiguredMachine,
    paper_configurations,
    reconfigure,
    splice_out,
)
from .tree_collective import TreeResult, binomial_tree_allreduce
from .wormhole import WormholeSimulator, WormPacket
from .topology import (
    GridLayout,
    Link,
    Topology,
    flattened_butterfly_2d,
    hybrid,
    ring,
)

__all__ = [
    "CollectiveResult",
    "all_to_all",
    "all_to_all_time",
    "fbfly_injection_rate",
    "ring_allreduce",
    "ring_allreduce_time",
    "FaultHooks",
    "Message",
    "NetworkSimulator",
    "ReconfiguredMachine",
    "TreeResult",
    "binomial_tree_allreduce",
    "paper_configurations",
    "reconfigure",
    "splice_out",
    "WormholeSimulator",
    "WormPacket",
    "GridLayout",
    "Link",
    "Topology",
    "flattened_butterfly_2d",
    "hybrid",
    "ring",
]
