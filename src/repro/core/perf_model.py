"""Per-layer timing and energy model of MPT on the NDP machine.

Combines the substrates: systolic-array GEMM timing (:mod:`repro.ndp`),
DRAM streaming, the memory-centric network's collective and all-to-all
closed forms (:mod:`repro.netsim`, cross-validated against the event
simulator), and the communication-volume model of Section III-C.

Per phase, compute and data movement overlap through double buffering and
the pipelined communication engines, so phase time is the maximum of the
systolic, DRAM and network rates plus the vector-unit tail; the weight
collective overlaps with the gradient GEMM that produces its chunks
(Section VI-C's concurrent Reduce blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Dict, Optional

from ..ndp.energy import EnergyBreakdown, EnergyModel
from ..ndp.systolic import batched_gemm_cycles
from ..perf import memoize_sweep, register_canonical
from ..netsim.collectives import (
    all_to_all_time,
    fbfly_injection_rate,
    fbfly_shape,
    ring_allreduce_time,
)
from ..params import DEFAULT_PARAMS, HardwareParams
from ..winograd.cook_toom import WinogradTransform
from ..workloads.layers import ConvLayerSpec
from .comm_model import (
    DEFAULT_FACTORS,
    TrafficFactors,
    layer_comm_volume,
    transform_for,
)
from .config import GridConfig, SystemConfig

BYTES = 4


@dataclass
class PhasePerf:
    """Timing/energy of one phase on the critical-path worker."""

    compute_s: float = 0.0
    dram_s: float = 0.0
    vector_s: float = 0.0
    net_tile_s: float = 0.0
    net_collective_s: float = 0.0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)

    @property
    def time_s(self) -> float:
        return (
            max(self.compute_s, self.dram_s, self.net_tile_s, self.net_collective_s)
            + self.vector_s
        )


@dataclass
class LayerPerf:
    """Full-iteration result for one layer under one configuration."""

    layer: ConvLayerSpec
    grid: GridConfig
    phases: Dict[str, PhasePerf] = field(default_factory=dict)

    @property
    def forward_s(self) -> float:
        return self.phases["fprop"].time_s

    @property
    def backward_s(self) -> float:
        return self.phases["bprop"].time_s + self.phases["update"].time_s

    @property
    def total_s(self) -> float:
        return self.forward_s + self.backward_s

    @property
    def energy_j(self) -> EnergyBreakdown:
        total = EnergyBreakdown()
        for phase in self.phases.values():
            total = total + phase.energy
        return total


class PerfModel:
    """Evaluates one layer iteration for a system configuration."""

    def __init__(
        self,
        params: HardwareParams = DEFAULT_PARAMS,
        factors: TrafficFactors = DEFAULT_FACTORS,
    ) -> None:
        self.params = params
        self.factors = factors
        self.energy = EnergyModel(params)

    # ---- helpers ---------------------------------------------------------
    def _gemm_seconds(self, count: float, m: int, k: int, n: int) -> float:
        """Seconds for ``count`` equal-shape GEMMs.  ``count`` may be
        fractional: when the tile element count does not divide the group
        count (e.g. 36 elements of F(2x2,5x5) over 16 groups) the
        architecture balances load by also splitting channel ranges, so
        the per-worker work is the exact average."""
        if count <= 0 or min(m, k, n) == 0:
            return 0.0
        single = batched_gemm_cycles(1, max(m, 1), max(k, 1), max(n, 1), self.params)
        fill = self.params.systolic_rows + self.params.systolic_cols
        cycles = count * (single - fill) + fill
        return cycles / self.params.clock_hz

    def _dram_seconds(self, nbytes: float) -> float:
        return nbytes / self.params.dram_bytes_per_s

    def _collective_seconds(
        self, slice_bytes: float, grid: GridConfig, rings: int
    ) -> float:
        if grid.num_clusters <= 1 or slice_bytes <= 0:
            return 0.0
        if grid.num_groups == 1:
            # Single-group configuration (Fig. 9d): no FBFLY traffic, so
            # all four I/O links carry collective rings.
            rings = max(rings, 4)
        return ring_allreduce_time(
            int(slice_bytes),
            grid.num_clusters,
            self.params.full_link_bytes_per_s,
            rings=rings,
            params=self.params,
        )

    def _tile_seconds(self, per_worker_bytes: float, grid: GridConfig) -> float:
        ng = grid.num_groups
        if ng <= 1 or per_worker_bytes <= 0:
            return 0.0
        per_pair = per_worker_bytes / (ng - 1)
        return all_to_all_time(
            int(math.ceil(per_pair)),
            ng,
            fbfly_injection_rate(ng, self.params),
            params=self.params,
        )

    def _phase_energy(
        self,
        macs: float,
        vector_flops: float,
        transform_flops: float,
        dram_bytes: float,
        link_bytes: float,
        time_s: float,
        grid: GridConfig,
        config: SystemConfig,
    ) -> EnergyBreakdown:
        full_links, narrow_links = powered_links(config, grid)
        return EnergyBreakdown(
            compute_j=self.energy.mac_energy(macs)
            + self.energy.flop_energy(vector_flops + transform_flops),
            sram_j=self.energy.sram_energy(2.0 * dram_bytes),
            dram_j=self.energy.dram_energy(dram_bytes),
            link_j=self.energy.link_energy(link_bytes),
            link_idle_j=self.energy.link_idle_energy(time_s, full_links, narrow_links),
        )

    # ---- main entry --------------------------------------------------------
    def evaluate_layer(
        self,
        layer: ConvLayerSpec,
        batch: int,
        config: SystemConfig,
        grid: GridConfig,
        transform: Optional[WinogradTransform] = None,
    ) -> LayerPerf:
        """Per-worker timing/energy of one training iteration of ``layer``.

        ``transform`` overrides the default transform rule (transform
        search extension); ignored for direct convolution.

        Results are memoized process-wide on the *contents* of every
        argument (plus this model's params and traffic factors) — the
        figure sweeps re-evaluate identical points thousands of times.
        The returned :class:`LayerPerf` is shared across equal calls and
        must be treated as read-only.
        """
        return evaluate_layer_cached(
            layer, batch, config, grid, transform, self.params, self.factors
        )

    def _evaluate_layer_impl(
        self,
        layer: ConvLayerSpec,
        batch: int,
        config: SystemConfig,
        grid: GridConfig,
        transform: Optional[WinogradTransform],
    ) -> LayerPerf:
        if batch % grid.num_clusters:
            batch_per_cluster = batch / grid.num_clusters
        else:
            batch_per_cluster = batch // grid.num_clusters
        if config.conv == "direct":
            return self._evaluate_direct(layer, batch, config, grid)
        if transform is None:
            transform = transform_for(config, grid, layer.kernel)
        return self._evaluate_winograd(
            layer, batch, batch_per_cluster, config, grid, transform
        )

    # ---- Winograd path -------------------------------------------------------
    def _evaluate_winograd(
        self,
        layer: ConvLayerSpec,
        batch: int,
        batch_per_cluster: float,
        config: SystemConfig,
        grid: GridConfig,
        transform: WinogradTransform,
    ) -> LayerPerf:
        ng = grid.num_groups
        t2 = transform.tile**2
        elems = t2 / ng  # fractional: load balanced via channel splits
        tiles_img = layer.tiles_per_image(transform.m)
        tiles_cluster = batch_per_cluster * tiles_img  # per channel
        gemm_m = max(1, math.ceil(tiles_cluster))
        in_ch, out_ch = layer.in_channels, layer.out_channels

        comm = layer_comm_volume(
            layer, batch, config, grid, self.factors, transform=transform
        )
        perf = LayerPerf(layer=layer, grid=grid)

        # Shared byte counts (per worker).
        x_bytes = batch_per_cluster * in_ch * layer.height * layer.width * BYTES / ng
        y_bytes = (
            batch_per_cluster * out_ch * layer.out_height * layer.out_width * BYTES / ng
        )
        x_tiles_bytes = tiles_cluster * in_ch * t2 * BYTES / ng
        y_tiles_bytes = tiles_cluster * out_ch * t2 * BYTES / ng
        w_bytes = layer.winograd_weight_count(transform.tile) * BYTES / ng
        t = transform.tile
        m_out = transform.m
        input_tf_flops = tiles_cluster * in_ch / ng * 2 * (2 * t**3)
        inverse_tf_flops = (
            tiles_cluster * out_ch / ng * 2 * (m_out * t * t + m_out * m_out * t)
        )

        # ---- fprop -----------------------------------------------------------
        fprop = PhasePerf()
        fprop.compute_s = self._gemm_seconds(elems, gemm_m, in_ch, out_ch)
        fprop_dram = (
            x_bytes  # read spatial inputs
            + 2 * x_tiles_bytes  # write + read scattered X elements
            + w_bytes  # weight slice
            + 2 * y_tiles_bytes  # write + read output elements (gather out)
            + y_bytes  # write spatial outputs
        )
        fprop.dram_s = self._dram_seconds(fprop_dram)
        relu_flops = batch_per_cluster * out_ch * layer.out_height * layer.out_width / ng
        fprop.vector_s = relu_flops / (self.params.vector_lanes * self.params.clock_hz)
        fprop_net = comm.scatter_fprop + comm.gather_fprop
        fprop.net_tile_s = self._tile_seconds(fprop_net, grid)
        fprop.energy = self._phase_energy(
            macs=elems * gemm_m * in_ch * out_ch,
            vector_flops=relu_flops,
            transform_flops=input_tf_flops + inverse_tf_flops,
            dram_bytes=fprop_dram,
            link_bytes=fprop_net,
            time_s=fprop.time_s,
            grid=grid,
            config=config,
        )
        perf.phases["fprop"] = fprop

        # ---- bprop -----------------------------------------------------------
        bprop = PhasePerf()
        bprop.compute_s = self._gemm_seconds(elems, gemm_m, out_ch, in_ch)
        bprop_dram = (
            y_bytes + 2 * y_tiles_bytes + w_bytes + 2 * x_tiles_bytes + x_bytes
        )
        bprop.dram_s = self._dram_seconds(bprop_dram)
        relu_grad_flops = (
            batch_per_cluster * in_ch * layer.height * layer.width / ng
        )
        bprop.vector_s = relu_grad_flops / (
            self.params.vector_lanes * self.params.clock_hz
        )
        bprop_net = comm.scatter_bprop + comm.gather_bprop
        bprop.net_tile_s = self._tile_seconds(bprop_net, grid)
        bprop.energy = self._phase_energy(
            macs=elems * gemm_m * out_ch * in_ch,
            vector_flops=relu_grad_flops,
            transform_flops=input_tf_flops + inverse_tf_flops,
            dram_bytes=bprop_dram,
            link_bytes=bprop_net,
            time_s=bprop.time_s,
            grid=grid,
            config=config,
        )
        perf.phases["bprop"] = bprop

        # ---- updateGrad + collective -------------------------------------------
        update = PhasePerf()
        update.compute_s = self._gemm_seconds(elems, in_ch, gemm_m, out_ch)
        collective_bytes = comm.weight_bytes
        slice_bytes = (
            layer.in_channels * layer.out_channels * elems * BYTES
            if config.update_domain == "winograd"
            else layer.weight_count * BYTES
        )
        update_dram = x_tiles_bytes + y_tiles_bytes + 3 * slice_bytes
        update.dram_s = self._dram_seconds(update_dram)
        update.net_collective_s = self._collective_seconds(
            slice_bytes, grid, config.collective_rings
        )
        update.energy = self._phase_energy(
            macs=elems * in_ch * gemm_m * out_ch,
            vector_flops=0.0,
            transform_flops=0.0,
            dram_bytes=update_dram,
            link_bytes=collective_bytes,
            time_s=update.time_s,
            grid=grid,
            config=config,
        )
        perf.phases["update"] = update
        return perf

    # ---- direct-convolution path ------------------------------------------------
    def _evaluate_direct(
        self,
        layer: ConvLayerSpec,
        batch: int,
        config: SystemConfig,
        grid: GridConfig,
    ) -> LayerPerf:
        p = grid.workers
        batch_w = batch / p
        out_elems = layer.out_height * layer.out_width
        gemm_m = max(1, math.ceil(batch_w * out_elems))
        k = layer.in_channels * layer.kernel**2
        in_ch, out_ch = layer.in_channels, layer.out_channels

        x_bytes = batch_w * in_ch * layer.height * layer.width * BYTES
        y_bytes = batch_w * out_ch * out_elems * BYTES
        w_bytes = layer.weight_count * BYTES

        perf = LayerPerf(layer=layer, grid=grid)
        comm = layer_comm_volume(layer, batch, config, grid, self.factors)

        fprop = PhasePerf()
        fprop.compute_s = self._gemm_seconds(1, gemm_m, k, out_ch)
        fprop_dram = x_bytes + w_bytes + y_bytes
        fprop.dram_s = self._dram_seconds(fprop_dram)
        relu_flops = batch_w * out_ch * out_elems
        fprop.vector_s = relu_flops / (self.params.vector_lanes * self.params.clock_hz)
        fprop.energy = self._phase_energy(
            macs=gemm_m * k * out_ch,
            vector_flops=relu_flops,
            transform_flops=0.0,
            dram_bytes=fprop_dram,
            link_bytes=0.0,
            time_s=fprop.time_s,
            grid=grid,
            config=config,
        )
        perf.phases["fprop"] = fprop

        bprop = PhasePerf()
        k_b = out_ch * layer.kernel**2
        gemm_m_b = max(1, math.ceil(batch_w * layer.height * layer.width))
        bprop.compute_s = self._gemm_seconds(1, gemm_m_b, k_b, in_ch)
        bprop_dram = y_bytes + w_bytes + x_bytes
        bprop.dram_s = self._dram_seconds(bprop_dram)
        bprop.energy = self._phase_energy(
            macs=gemm_m_b * k_b * in_ch,
            vector_flops=0.0,
            transform_flops=0.0,
            dram_bytes=bprop_dram,
            link_bytes=0.0,
            time_s=bprop.time_s,
            grid=grid,
            config=config,
        )
        perf.phases["bprop"] = bprop

        update = PhasePerf()
        update.compute_s = self._gemm_seconds(1, k, gemm_m, out_ch)
        update_dram = x_bytes + y_bytes + 3 * w_bytes
        update.dram_s = self._dram_seconds(update_dram)
        update.net_collective_s = self._collective_seconds(
            w_bytes, grid, config.collective_rings
        )
        update.energy = self._phase_energy(
            macs=k * gemm_m * out_ch,
            vector_flops=0.0,
            transform_flops=0.0,
            dram_bytes=update_dram,
            link_bytes=comm.weight_bytes,
            time_s=update.time_s,
            grid=grid,
            config=config,
        )
        perf.phases["update"] = update
        return perf


# ``WinogradTransform``'s exact-Fraction matrices are fully determined
# by ``(m, r)`` (always built by ``make_transform`` with the default
# interpolation points), so the content key collapses to those two ints
# instead of recursing through ~T^2 Fractions per call.
register_canonical(WinogradTransform, lambda t: (t.m, t.r))

# A layer's ``name`` is display-only — the model reads shapes and
# channel counts.  Dropping it from the content key lets same-shape
# layers (e.g. the repeated VGG blocks) share one evaluation.
register_canonical(
    ConvLayerSpec,
    lambda layer: tuple(
        (f.name, getattr(layer, f.name))
        for f in dataclass_fields(layer)
        if f.name != "name"
    ),
)


@memoize_sweep
def evaluate_layer_cached(
    layer: ConvLayerSpec,
    batch: int,
    config: SystemConfig,
    grid: GridConfig,
    transform: Optional[WinogradTransform] = None,
    params: HardwareParams = DEFAULT_PARAMS,
    factors: TrafficFactors = DEFAULT_FACTORS,
) -> LayerPerf:
    """Content-keyed, process-wide cache in front of the perf model.

    :meth:`PerfModel.evaluate_layer` routes every evaluation through
    here; the wrapper's ``cache`` attribute counts hits and misses, and
    the body only runs on a miss.
    """
    model = PerfModel(params=params, factors=factors)
    return model._evaluate_layer_impl(layer, batch, config, grid, transform)


def powered_links(config: SystemConfig, grid: GridConfig) -> tuple[int, int]:
    """Powered link directions per worker (unused links are turned off,
    Section VII-A).  DP: 4 full-width ring links in + out.  MPT: 2 ring
    links each way plus the cluster FBFLY narrow links."""
    if grid.num_groups <= 1:
        return 2 * config.collective_rings, 0
    rows, cols = fbfly_shape(grid.num_groups)
    narrow = 2 * ((rows - 1) + (cols - 1))
    return 2 * config.collective_rings, narrow
