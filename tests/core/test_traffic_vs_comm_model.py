"""Byte-exact agreement: executable machine vs analytical comm model.

The MPT machine counts every byte it moves (``TrafficCounters``,
bumped through the @cost-checked helpers in ``core/functional.py``);
``core/comm_model.py`` predicts the same quantities per worker in
closed form.  For configurations inside both models' common domain —
2D transfers (``N_g > T``), no activation prediction, divisible
shards — the whole-machine counters must equal the analytical
per-worker volumes times the worker count *exactly*, not just
approximately.  COST002 checks the helpers against the model's factors
statically; this test closes the loop dynamically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.comm_model import layer_comm_volume, uses_1d_transfer
from repro.core.config import GridConfig, SystemConfig
from repro.core.functional import MptLayerMachine
from repro.winograd.cook_toom import make_transform
from repro.workloads.layers import ConvLayerSpec

BATCH, IN_CH, OUT_CH, SIZE = 4, 4, 4, 8


def _exact(value: float) -> int:
    assert abs(value - round(value)) < 1e-9, f"non-integral byte count {value}"
    return round(value)


@pytest.mark.parametrize("ng,nc", [(8, 1), (8, 2), (16, 1)])
def test_counters_match_comm_model_byte_exactly(ng, nc):
    transform = make_transform(2, 3)  # F(2x2, 3x3): T = 4, T^2 = 16
    grid = GridConfig(num_groups=ng, num_clusters=nc)
    # The executable machine implements 2D transfers only; keep the
    # analytical model on the same path.
    assert not uses_1d_transfer(grid, transform)

    layer = ConvLayerSpec(
        name="conv", in_channels=IN_CH, out_channels=OUT_CH,
        height=SIZE, width=SIZE, kernel=3, pad=1,
    )
    config = SystemConfig(
        name="w_mp", conv="winograd", prediction=False,
        update_domain="winograd",
    )

    rng = np.random.default_rng(7)
    weights = rng.standard_normal((transform.tile, transform.tile, IN_CH, OUT_CH))
    machine = MptLayerMachine(
        IN_CH, OUT_CH, transform, grid, initial_weights=weights, pad=1,
    )
    x = rng.standard_normal((BATCH, IN_CH, SIZE, SIZE))
    y = machine.forward(x)
    machine.backward(rng.standard_normal(y.shape))

    volume = layer_comm_volume(
        layer, BATCH, config, grid, transform=transform
    )
    workers = grid.workers
    assert machine.counters.scatter_bytes == _exact(
        (volume.scatter_fprop + volume.scatter_bprop) * workers
    )
    assert machine.counters.gather_bytes == _exact(
        (volume.gather_fprop + volume.gather_bprop) * workers
    )
    assert machine.counters.allreduce_bytes == _exact(
        volume.weight_bytes * workers
    )
    assert machine.counters.gather_bytes_skipped == 0
    assert machine.counters.prediction_side_channel_bytes == 0
