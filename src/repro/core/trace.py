"""Trace generation: turn one MPT layer iteration into network messages.

Bridges the analytic layer and the event simulator: for a (small) worker
grid, generates the concrete point-to-point messages of the tile
scatter/gather phases and replays them on the simulated hybrid topology.
This validates the performance model's all-to-all term against a full
machine — groups, clusters and link classes all in place — rather than a
standalone FBFLY.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..netsim.engine import FaultHooks, Message, NetworkSimulator
from ..netsim.topology import GridLayout, Topology, hybrid
from ..params import DEFAULT_PARAMS, HardwareParams
from ..workloads.layers import ConvLayerSpec
from .comm_model import layer_comm_volume
from .config import GridConfig, SystemConfig


@dataclass
class TileTransferTrace:
    """The per-pair messages of one phase's tile transfer."""

    messages: List[Message]
    bytes_per_pair: int
    phase: str


def build_tile_transfer_trace(
    layer: ConvLayerSpec,
    batch: int,
    config: SystemConfig,
    grid: GridConfig,
    layout: GridLayout,
    phase: str = "fprop",
) -> TileTransferTrace:
    """Messages for the scatter+gather of one phase in every cluster.

    Each cluster member exchanges an equal share with every other member
    of its cluster (uniform all-to-all, as the element/tile striping
    produces).
    """
    if phase not in ("fprop", "bprop"):
        raise ValueError(f"phase must be fprop or bprop, got {phase!r}")
    volume = layer_comm_volume(layer, batch, config, grid)
    if phase == "fprop":
        per_worker = volume.scatter_fprop + volume.gather_fprop
    else:
        per_worker = volume.scatter_bprop + volume.gather_bprop
    ng = grid.num_groups
    if ng <= 1 or per_worker <= 0:
        return TileTransferTrace(messages=[], bytes_per_pair=0, phase=phase)
    bytes_per_pair = max(1, round(per_worker / (ng - 1)))
    messages = []
    for cluster in range(grid.num_clusters):
        members = layout.cluster_members(cluster)
        for src in members:
            for dst in members:
                if src != dst:
                    messages.append(
                        Message(src=src, dst=dst, size_bytes=bytes_per_pair,
                                tag=f"{phase}-tile")
                    )
    return TileTransferTrace(
        messages=messages, bytes_per_pair=bytes_per_pair, phase=phase
    )


@dataclass
class ReplayResult:
    """Outcome of replaying a trace on the event simulator."""

    finish_time_s: float
    messages: int
    total_bytes: int


def replay_on_machine(
    trace: TileTransferTrace,
    topology: Topology,
    params: HardwareParams = DEFAULT_PARAMS,
    faults: "Optional[FaultHooks]" = None,
) -> ReplayResult:
    """Inject every message at t = 0 and run to completion.

    ``faults`` (a :class:`repro.netsim.engine.FaultHooks`, e.g. a
    :class:`repro.faults.FaultInjector`) subjects the replay to link
    outages and packet loss; ``None`` replays on the perfect machine,
    bit-identically to before the fault path existed.
    """
    sim = NetworkSimulator(
        topology, params, packet_bytes=params.data_packet_bytes, faults=faults
    )
    state = {"finish": 0.0}

    def done(_msg: Message, time: float) -> None:
        state["finish"] = max(state["finish"], time)

    for message in trace.messages:
        message.on_complete = done
        sim.send(message, start_time=0.0)
    sim.run()
    return ReplayResult(
        finish_time_s=state["finish"],
        messages=len(trace.messages),
        total_bytes=sum(m.size_bytes for m in trace.messages),
    )


def trace_validate_layer(
    layer: ConvLayerSpec,
    batch: int,
    config: SystemConfig,
    grid: GridConfig,
    params: HardwareParams = DEFAULT_PARAMS,
) -> dict:
    """Build the machine, replay one fprop tile transfer, and compare the
    simulated time with the closed form used by the performance model."""
    from ..netsim.collectives import all_to_all_time, fbfly_injection_rate

    topology, layout = hybrid(grid.num_groups, grid.num_clusters, params)
    trace = build_tile_transfer_trace(layer, batch, config, grid, layout)
    replay = replay_on_machine(trace, topology, params)
    closed = all_to_all_time(
        trace.bytes_per_pair,
        grid.num_groups,
        fbfly_injection_rate(grid.num_groups, params),
        params=params,
    )
    return {
        "simulated_s": replay.finish_time_s,
        "closed_form_s": closed,
        "ratio": replay.finish_time_s / closed if closed else float("nan"),
        "messages": replay.messages,
    }
