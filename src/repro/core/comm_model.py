"""Communication-volume model (paper Section III-C, Figs. 6 and 7).

Pure byte counting per worker per training iteration — no timing.  The
two traffic classes:

* **Weight gradients** — ring reduce + broadcast of each worker's weight
  slice within its group: ``2 * (N_c - 1)/N_c * |W| / N_g`` bytes per
  worker (|W| in the update domain: spatial ``r^2`` weights for DP,
  Winograd ``T^2`` weights for MPT).
* **Tile transfer** — scatter of input tiles and gather of output tiles
  within each cluster during ``fprop`` and the mirrored pair during
  ``bprop``: each worker holds ``[Tiles] / (N_c N_g)`` of the batch's
  tile data and exchanges the ``(N_g - 1)/N_g`` portion owned by other
  group slices.

Activation prediction and zero-skipping scale the respective components
(Section V), with the 1D-transform volume saving applied automatically
when the group count allows whole-line ownership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..winograd.cook_toom import WinogradTransform, make_transform
from ..workloads.layers import ConvLayerSpec
from .config import GridConfig, SystemConfig

BYTES = 4  # FP32


@dataclass(frozen=True)
class TrafficFactors:
    """Multiplicative traffic survival factors (1.0 = no reduction).

    Defaults reproduce the paper's Section V-B numbers: activation
    prediction removes 34.0% (2D) / 78.1% (1D) of gather traffic and
    zero-skipping removes 39.3% / 64.7% of scatter traffic.  The
    :mod:`repro.prediction` statistics harness measures these same
    factors from data, and the ``fig12.imagenet.*`` claims of
    ``tests/test_paper_claims.py`` keep the measured reductions near
    them.  :data:`DEFAULT_FACTORS` is the one instance the model charges.
    """

    gather_2d: float = 1.0 - 0.340
    gather_1d: float = 1.0 - 0.781
    scatter_2d: float = 1.0 - 0.393
    scatter_1d: float = 1.0 - 0.647

    def gather(self, one_d: bool) -> float:
        return self.gather_1d if one_d else self.gather_2d

    def scatter(self, one_d: bool) -> float:
        return self.scatter_1d if one_d else self.scatter_2d


DEFAULT_FACTORS = TrafficFactors()


def uses_1d_transfer(grid: GridConfig, transform: WinogradTransform) -> bool:
    """Whether each worker owns complete tile lines (enables the 1D
    transform optimisation and 1D predict, Section V-A)."""
    return grid.num_groups <= transform.tile


@dataclass
class CommVolume:
    """Per-worker communication bytes for one layer iteration."""

    weight_bytes: float = 0.0
    scatter_fprop: float = 0.0
    gather_fprop: float = 0.0
    scatter_bprop: float = 0.0
    gather_bprop: float = 0.0

    @property
    def tile_bytes(self) -> float:
        return (
            self.scatter_fprop
            + self.gather_fprop
            + self.scatter_bprop
            + self.gather_bprop
        )

    @property
    def total_bytes(self) -> float:
        return self.weight_bytes + self.tile_bytes


def transform_for(config: SystemConfig, grid: GridConfig, kernel: int) -> WinogradTransform:
    """The Winograd transform a configuration runs (Section VII-A):
    ``F(2x2, r x r)`` with multiple groups, ``F(4x4, 3x3)`` for a single
    group with 3x3 weights."""
    if grid.num_groups > 1:
        return make_transform(2, kernel)
    if kernel == 3:
        return make_transform(4, 3)
    return make_transform(2, kernel)


def weight_collective_bytes(
    layer: ConvLayerSpec,
    config: SystemConfig,
    grid: GridConfig,
    transform: Optional[WinogradTransform],
) -> float:
    """Per-worker ring reduce+broadcast bytes for one iteration."""
    if grid.num_clusters == 1:
        return 0.0
    if config.update_domain == "winograd":
        if transform is None:
            raise ValueError("winograd update domain needs a transform")
        # Load is balanced across groups by splitting channel ranges
        # when the element count does not divide the group count, so the
        # per-worker slice is the exact average.
        elems = transform.tile**2 / grid.num_groups
        weight_slice = layer.in_channels * layer.out_channels * elems
    else:
        weight_slice = layer.weight_count // grid.num_groups
    slice_bytes = weight_slice * BYTES
    nc = grid.num_clusters
    return 2.0 * (nc - 1) / nc * slice_bytes


def tile_transfer_bytes(
    layer: ConvLayerSpec,
    batch: int,
    grid: GridConfig,
    transform: WinogradTransform,
    config: SystemConfig,
) -> CommVolume:
    """Per-worker tile scatter/gather bytes for one iteration."""
    volume = CommVolume()
    ng = grid.num_groups
    if ng == 1:
        return volume
    batch_per_cluster = batch / grid.num_clusters
    tiles = batch_per_cluster * layer.tiles_per_image(transform.m)
    t2 = transform.tile**2
    one_d = uses_1d_transfer(grid, transform)
    # 1D-capable configurations gather half-transformed lines
    # (T x m values per tile instead of T x T), Section IV/V.
    volume_1d = transform.m / transform.tile if one_d else 1.0

    per_worker = (ng - 1) / ng / ng * tiles * t2 * BYTES
    base_in = per_worker * layer.in_channels
    base_out = per_worker * layer.out_channels

    if config.prediction:
        # fprop: zero-skip the ReLU-sparse input scatter; predict the
        # output gather (the gather survival factors already include the
        # 1D volume saving). bprop: dy is masked by the ReLU derivative
        # so zero-skip applies to its scatter; the dX gather skips tiles
        # whose input neurons were all ReLU-dead — exact knowledge from
        # the input activation map stored at fprop (Section V-B), so the
        # 2D gather survival factor applies (without the 1D volume term,
        # which the full inverse transform cannot exploit).
        volume.scatter_fprop = base_in * DEFAULT_FACTORS.scatter(one_d)
        volume.gather_fprop = base_out * (
            DEFAULT_FACTORS.gather(one_d) if layer.has_relu else volume_1d
        )
        volume.scatter_bprop = base_out * DEFAULT_FACTORS.scatter(one_d)
        volume.gather_bprop = base_in * DEFAULT_FACTORS.gather_2d
    else:
        # Without the prediction engine only the structural 1D volume
        # saving applies to the fprop gather.
        volume.scatter_fprop = base_in
        volume.gather_fprop = base_out * volume_1d
        volume.scatter_bprop = base_out
        volume.gather_bprop = base_in
    return volume


def layer_comm_volume(
    layer: ConvLayerSpec,
    batch: int,
    config: SystemConfig,
    grid: GridConfig,
    transform: Optional[WinogradTransform] = None,
) -> CommVolume:
    """Full per-worker communication volume of one layer iteration.

    ``transform`` overrides the paper's default transform rule (used by
    the transform-search extension).
    """
    if config.conv == "direct":
        volume = CommVolume()
        volume.weight_bytes = weight_collective_bytes(layer, config, grid, None)
        return volume
    if transform is None:
        transform = transform_for(config, grid, layer.kernel)
    volume = tile_transfer_bytes(layer, batch, grid, transform, config)
    volume.weight_bytes = weight_collective_bytes(layer, config, grid, transform)
    return volume
