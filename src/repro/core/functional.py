"""Functional execution of multi-dimensional parallel training.

While :mod:`repro.core.perf_model` *times* MPT, this module *runs* it:
real numpy data flows through a grid of worker objects exactly as the
paper's Section III describes —

* the batch is sharded across clusters,
* each cluster member owns a stripe of the cluster's tiles (it transforms
  them, and later inverse-transforms the gathered outputs),
* tile elements are scattered to their owning groups, each worker
  computes the element-wise GEMMs against its weight slice,
* output elements are gathered back to the tile owners,
* weight gradients are all-reduced around each group's ring through the
  NDP Reduce-block engine.

Every transfer is counted, so the measured traffic can be cross-checked
against the Section III-C closed forms, and the whole pipeline is
verified bit-level against single-worker training (see
``tests/core/test_functional.py``).  Activation prediction can be enabled
on the gather path; because the predictor admits no false negatives the
post-ReLU output remains exact while predicted-dead tiles are simply not
transferred.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..contracts import cost, shaped
from ..ndp.comm_unit import CollectiveEngine
from ..prediction.predictor import predict_2d
from ..prediction.quantization import NonUniformQuantizer, QuantizerConfig
from ..winograd.cook_toom import WinogradTransform
from ..winograd.tiling import TileGrid, assemble_output, extract_tiles
from .config import GridConfig
from .partition import partition_elements, shard_batch

BYTES = 4


@shaped("TS, C, E, NG -> RB")
@cost(ret="floordiv(4*TS*C*E*(NG-1), NG)")
def remote_scatter_bytes(tiles: int, channels: int, elems: int, num_groups: int) -> int:
    """Bytes crossing the network when ``elems`` tile elements of
    ``tiles x channels`` values are scattered to their owning groups.

    Each tile owner keeps its own group's elements, so exactly
    ``(N_g - 1)/N_g`` of the payload is remote (paper Section III-C).
    Integer arithmetic: the division is exact up to the floor, and the
    checked closed form is ``floor(4*TS*C*E*(NG-1) / NG)``.
    """
    total = tiles * channels * elems * BYTES
    return total * (num_groups - 1) // num_groups


@shaped("TS, C, E, NG -> RB")
@cost(ret="floordiv(4*TS*C*E*(NG-1), NG)")
def remote_gather_bytes(tiles: int, channels: int, elems: int, num_groups: int) -> int:
    """Bytes crossing the network when computed tile elements are
    gathered back to their tile owners — same ``(N_g - 1)/N_g`` remote
    fraction as the scatter, counted separately per counter class."""
    total = tiles * channels * elems * BYTES
    return total * (num_groups - 1) // num_groups


@shaped("SB, NC -> AB")
@cost(ret="2*(NC-1)*SB")
def allreduce_ring_bytes(slice_bytes: int, num_clusters: int) -> int:
    """Total ring all-reduce bytes for one replicated gradient slice.

    Every worker sends ``2*(N_c - 1)`` chunks of ``slice/N_c`` bytes
    (reduce-scatter + all-gather); summed over the ``N_c`` ring members
    that is exactly ``2*(N_c - 1)*slice_bytes`` — computed in integer
    form rather than via the per-worker float fraction."""
    return 2 * (num_clusters - 1) * slice_bytes


@dataclass
class TrafficCounters:
    """Bytes moved by each MPT communication class (whole machine)."""

    scatter_bytes: int = 0
    gather_bytes: int = 0
    gather_bytes_skipped: int = 0
    prediction_side_channel_bytes: int = 0
    allreduce_bytes: int = 0

    def reset(self) -> None:
        self.scatter_bytes = 0
        self.gather_bytes = 0
        self.gather_bytes_skipped = 0
        self.prediction_side_channel_bytes = 0
        self.allreduce_bytes = 0


@dataclass
class MptWorker:
    """One worker: its grid position and its Winograd-domain weight slice."""

    group: int
    cluster: int
    element_ids: List[int]
    #: Weight slice ``(len(element_ids), I, J)``.
    weights: np.ndarray
    grad: Optional[np.ndarray] = None

    @shaped("(E,TS,I) -> (E,TS,J)")
    @cost(flops="2*E*TS*I*J", mem="4*E*TS*J")
    def compute_forward(self, x_elements: np.ndarray) -> np.ndarray:
        """Element-wise GEMMs: ``(E, tiles, I) @ (E, I, J) -> (E, tiles, J)``."""
        return np.matmul(x_elements, self.weights)

    @shaped("(E,TS,J) -> (E,TS,I)")
    @cost(flops="2*E*TS*I*J", mem="4*E*TS*I")
    def compute_backward(self, dy_elements: np.ndarray) -> np.ndarray:
        """``dX(e) = dY(e) @ W(e)^T``."""
        return np.matmul(dy_elements, self.weights.transpose(0, 2, 1))

    @shaped("(E,TS,I), (E,TS,J) -> (E,I,J)")
    @cost(flops="2*E*TS*I*J", mem="4*E*I*J")
    def compute_weight_grad(
        self, x_elements: np.ndarray, dy_elements: np.ndarray
    ) -> np.ndarray:
        """``dW(e) = X(e)^T @ dY(e)`` accumulated over the local shard."""
        return np.matmul(x_elements.transpose(0, 2, 1), dy_elements)


class MptLayerMachine:
    """A Winograd convolution layer executed with MPT on an
    ``N_g x N_c`` worker grid.

    Parameters
    ----------
    in_channels, out_channels:
        Layer channel counts.
    transform:
        The ``F(m, r)`` transform.
    grid:
        Worker organisation.  ``grid.num_groups`` must not exceed the
        tile element count.
    pad:
        Convolution padding.
    initial_weights:
        Full Winograd-domain weights ``(T, T, I, J)``; sliced across
        groups element-wise (round-robin).
    predict:
        Enable activation prediction on the forward gather (lossless for
        the post-ReLU output).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        transform: WinogradTransform,
        grid: GridConfig,
        initial_weights: np.ndarray,
        pad: int = 1,
        predict: bool = False,
        quantizer_config: Optional[QuantizerConfig] = None,
    ) -> None:
        t2 = transform.tile**2
        if grid.num_groups > t2:
            raise ValueError(
                f"{grid.num_groups} groups exceed {t2} tile elements"
            )
        if initial_weights.shape != (
            transform.tile,
            transform.tile,
            in_channels,
            out_channels,
        ):
            raise ValueError(f"bad weight shape {initial_weights.shape}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.transform = transform
        self.grid = grid
        self.pad = pad
        self.predict = predict
        self.quantizer_config = quantizer_config or QuantizerConfig(
            levels=64, regions=4
        )
        self.counters = TrafficCounters()
        self.collective = CollectiveEngine(chunk_elems=64)

        # Element ownership: element e belongs to group e % N_g
        # (see repro.core.partition for the contract-checked split).
        element_parts = partition_elements(t2, grid.num_groups)
        flat_weights = initial_weights.reshape(t2, in_channels, out_channels)
        self.workers: Dict[Tuple[int, int], MptWorker] = {}
        for g in range(grid.num_groups):
            element_ids = element_parts[g]
            for c in range(grid.num_clusters):
                self.workers[(g, c)] = MptWorker(
                    group=g,
                    cluster=c,
                    element_ids=element_ids,
                    weights=flat_weights[element_ids],
                )
        self._forward_state: Optional[dict] = None

    # ------------------------------------------------------------------
    def full_weights(self) -> np.ndarray:
        """Reassemble the full ``(T, T, I, J)`` weights from any cluster's
        slices (all clusters hold identical replicas after an update)."""
        t = self.transform.tile
        flat = np.zeros((t * t, self.in_channels, self.out_channels))
        for g in range(self.grid.num_groups):
            worker = self.workers[(g, 0)]
            flat[worker.element_ids] = worker.weights
        return flat.reshape(t, t, self.in_channels, self.out_channels)

    def _shard_batch(self, batch: int) -> List[np.ndarray]:
        shards = shard_batch(batch, self.grid.num_clusters)
        return [np.asarray(shard, dtype=np.intp) for shard in shards]

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, apply_relu: bool = False) -> np.ndarray:
        """Run fprop for the whole batch across the worker grid."""
        batch = x.shape[0]
        shards = self._shard_batch(batch)
        grid_geom = TileGrid(
            height=x.shape[2], width=x.shape[3], pad=self.pad,
            m=self.transform.m, r=self.transform.r,
        )
        t2 = self.transform.tile**2
        ng = self.grid.num_groups
        outputs = []
        state: dict = {"grid_geom": grid_geom, "clusters": []}
        for c, shard in enumerate(shards):
            # Tile owners (cluster members, striped) transform spatial
            # tiles; element-major view: (T^2, n_tiles, I).
            spatial_tiles = extract_tiles(x[shard], grid_geom)
            wd_tiles = self.transform.transform_input(spatial_tiles)
            t, _, b, th, tw, i = wd_tiles.shape
            n_tiles = b * th * tw
            flat = wd_tiles.reshape(t2, n_tiles, i)

            # Scatter: element e goes to the worker of group owner(e).
            # Only (N_g-1)/N_g of the data crosses the network (each tile
            # owner keeps its own group's elements); counted accordingly.
            per_group_inputs = {}
            for g in range(ng):
                worker = self.workers[(g, c)]
                elems = worker.element_ids
                per_group_inputs[g] = flat[elems]  # (E, tiles, I)
                self.counters.scatter_bytes += remote_scatter_bytes(
                    n_tiles, i, len(elems), ng
                )

            # Compute + gather output elements back to tile owners.
            out_flat = np.zeros((t2, n_tiles, self.out_channels))
            for g in range(ng):
                worker = self.workers[(g, c)]
                out_flat[worker.element_ids] = worker.compute_forward(
                    per_group_inputs[g]
                )
            out_tiles = out_flat.reshape(t, t, b, th, tw, self.out_channels)

            if self.predict:
                dead_mask = self._predict_and_count(out_tiles, ng)
                # Predicted-dead tiles are not gathered: the tile owner
                # reconstructs them as zero (their true spatial outputs
                # are all <= 0, so the post-ReLU result is unchanged).
                out_tiles[:, :, dead_mask] = 0.0
            else:
                self.counters.gather_bytes += remote_gather_bytes(
                    n_tiles, self.out_channels, t2, ng
                )

            y_spatial = assemble_output(
                self.transform.inverse_transform(out_tiles), grid_geom
            )
            if apply_relu:
                # Predicted-dead tiles were never gathered; their spatial
                # outputs are exactly zero post-ReLU (no false negatives),
                # so applying ReLU here reproduces the exact result.
                y_spatial = np.maximum(y_spatial, 0.0)
            elif self.predict:
                raise ValueError(
                    "activation prediction requires apply_relu=True: "
                    "losslessness only holds for the post-ReLU output"
                )
            outputs.append(y_spatial)
            state["clusters"].append(
                {"input_elements": per_group_inputs, "tiles_shape": (b, th, tw)}
            )
        self._forward_state = state
        return np.concatenate(outputs, axis=0)

    def _predict_and_count(self, out_tiles: np.ndarray, ng: int) -> np.ndarray:
        """Run 2D activation prediction on element-major ``out_tiles`` and
        count the skipped traffic; returns the ``(B, th, tw, J)`` dead mask."""
        sigma = float(out_tiles.std()) or 1.0
        quantizer = NonUniformQuantizer(self.quantizer_config, sigma)
        tiles = np.moveaxis(out_tiles, (0, 1), (-2, -1))  # tile-major view
        result = predict_2d(tiles, self.transform, quantizer)
        assert result.false_negatives == 0
        b, th, tw, out_ch, t, _ = tiles.shape
        total = remote_gather_bytes(b * th * tw, out_ch, t * t, ng)
        skipped = total * result.predicted_ratio
        fp32_bits = 32.0
        side_channel = total * (quantizer.config.bits / fp32_bits)
        self.counters.gather_bytes += int(total - skipped)
        self.counters.gather_bytes_skipped += int(skipped)
        self.counters.prediction_side_channel_bytes += int(side_channel)
        return result.dead_mask

    # ------------------------------------------------------------------
    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Run bprop + updateGrad: returns dx; gradients are reduced
        around each group's ring and stored on every worker."""
        if self._forward_state is None:
            raise RuntimeError("backward called before forward")
        from ..winograd.tiling import assemble_output_adjoint, extract_tiles_adjoint

        grid_geom = self._forward_state["grid_geom"]
        shards = self._shard_batch(dy.shape[0])
        ng, nc = self.grid.num_groups, self.grid.num_clusters
        t = self.transform.tile
        t2 = t * t
        dx_parts = []
        partial_grads: Dict[int, List[np.ndarray]] = {g: [] for g in range(ng)}
        for c, shard in enumerate(shards):
            cluster_state = self._forward_state["clusters"][c]
            b, th, tw = cluster_state["tiles_shape"]
            dy_tiles = assemble_output_adjoint(dy[shard], grid_geom)
            dy_wd = self.transform.inverse_transform_transposed(dy_tiles)
            flat_dy = dy_wd.reshape(t2, b * th * tw, self.out_channels)
            dx_flat = np.zeros((t2, b * th * tw, self.in_channels))
            for g in range(ng):
                worker = self.workers[(g, c)]
                elems = worker.element_ids
                dy_elements = flat_dy[elems]
                self.counters.scatter_bytes += remote_scatter_bytes(
                    b * th * tw, self.out_channels, len(elems), ng
                )
                # Weight gradient for this worker's slice and shard.
                partial = worker.compute_weight_grad(
                    cluster_state["input_elements"][g], dy_elements
                )
                partial_grads[g].append(partial)
                dx_flat[elems] = worker.compute_backward(dy_elements)
                self.counters.gather_bytes += remote_gather_bytes(
                    b * th * tw, self.in_channels, len(elems), ng
                )
            dx_wd = dx_flat.reshape(t, t, b, th, tw, self.in_channels)
            dx_tiles = self.transform.transform_input_transposed(dx_wd)
            dx_parts.append(extract_tiles_adjoint(dx_tiles, grid_geom))

        # Ring all-reduce of each group's gradient slices across clusters.
        for g in range(ng):
            reduced, _ = self.collective.allreduce(partial_grads[g], f"dW-g{g}")
            slice_bytes = partial_grads[g][0].size * BYTES
            self.counters.allreduce_bytes += allreduce_ring_bytes(slice_bytes, nc)
            for c in range(nc):
                self.workers[(g, c)].grad = reduced[c]
        return np.concatenate(dx_parts, axis=0)

    def apply_update(self, lr: float) -> None:
        """SGD step on every worker's slice (post all-reduce they are
        identical across clusters)."""
        for worker in self.workers.values():
            if worker.grad is None:
                raise RuntimeError("apply_update called before backward")
            worker.weights -= lr * worker.grad
            worker.grad = None


class MptNetworkMachine:
    """A stack of MPT layers with ReLU between them — distributed
    execution of a whole (convolutional) network on the worker grid.

    The spatial activations between layers stay sharded across clusters
    (the batch dimension), exactly as on the real machine: only tile
    elements and weight gradients ever cross the network.
    """

    def __init__(self, layers: List[MptLayerMachine]) -> None:
        if not layers:
            raise ValueError("need at least one layer")
        grid = layers[0].grid
        for layer in layers:
            if layer.grid != grid:
                raise ValueError("all layers must share one worker grid")
        self.layers = layers
        self.grid = grid

    def forward(self, x: np.ndarray) -> np.ndarray:
        """fprop through every layer with ReLU after each (matching the
        Table II layer structure)."""
        for layer in self.layers:
            x = layer.forward(x, apply_relu=True)
            layer._last_output = x  # for the ReLU mask in backward
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """bprop + updateGrad through every layer (ReLU masks applied)."""
        for layer in reversed(self.layers):
            dy = dy * (layer._last_output > 0)
            dy = layer.backward(dy)
        return dy

    def apply_update(self, lr: float) -> None:
        for layer in self.layers:
            layer.apply_update(lr)

    @property
    def counters(self) -> TrafficCounters:
        """Aggregate traffic over all layers."""
        total = TrafficCounters()
        for layer in self.layers:
            total.scatter_bytes += layer.counters.scatter_bytes
            total.gather_bytes += layer.counters.gather_bytes
            total.gather_bytes_skipped += layer.counters.gather_bytes_skipped
            total.prediction_side_channel_bytes += (
                layer.counters.prediction_side_channel_bytes
            )
            total.allreduce_bytes += layer.counters.allreduce_bytes
        return total
