#!/usr/bin/env python3
"""Run the *actual* MPT algorithm, not just its performance model.

Builds a 4-group x 2-cluster worker grid, executes forward, backward,
ring all-reduce and the SGD update with real numpy data flowing between
worker objects, and verifies bit-level equality with single-worker
training.  Then enables activation prediction and shows the gather
traffic drop while the post-ReLU output stays exact.

Run: ``python examples/distributed_mpt_execution.py``
"""

import numpy as np

from repro.core import GridConfig
from repro.core.functional import MptLayerMachine
from repro.winograd import make_transform, spatial_to_winograd, winograd_forward


def main() -> None:
    transform = make_transform(2, 3)
    rng = np.random.default_rng(0)
    weights = spatial_to_winograd(rng.standard_normal((8, 4, 3, 3)), transform)
    grid = GridConfig(num_groups=4, num_clusters=2)
    print(f"grid: {grid.num_groups} groups x {grid.num_clusters} clusters "
          f"({grid.workers} workers), F(2x2,3x3), weights split "
          f"{transform.tile**2}/{grid.num_groups} elements per group")

    machine = MptLayerMachine(
        in_channels=4, out_channels=8, transform=transform,
        grid=grid, initial_weights=weights, pad=1,
    )
    x = rng.standard_normal((8, 4, 12, 12))

    print("\n=== forward: distributed vs single worker ===")
    y_dist = machine.forward(x)
    y_ref, _ = winograd_forward(x, weights, transform, 1)
    print(f"max |distributed - reference| = {np.max(np.abs(y_dist - y_ref)):.2e}")

    print("\n=== backward + ring all-reduce + SGD update ===")
    dy = rng.standard_normal(y_dist.shape)
    machine.backward(dy)
    machine.apply_update(lr=0.1)
    c = machine.counters
    print(f"scatter   {c.scatter_bytes / 1024:8.1f} KiB")
    print(f"gather    {c.gather_bytes / 1024:8.1f} KiB")
    print(f"allreduce {c.allreduce_bytes / 1024:8.1f} KiB")
    print("weight replicas across clusters identical:",
          all(
              np.array_equal(
                  machine.workers[(g, 0)].weights, machine.workers[(g, 1)].weights
              )
              for g in range(grid.num_groups)
          ))

    print("\n=== activation prediction: lossless traffic cut ===")
    for predict in (False, True):
        m = MptLayerMachine(
            4, 8, transform, grid, initial_weights=weights, pad=1, predict=predict,
        )
        y = m.forward(x - 0.4, apply_relu=True)  # shifted: many dead tiles
        label = "with prediction   " if predict else "without prediction"
        print(f"{label}: gather {m.counters.gather_bytes / 1024:7.1f} KiB "
              f"(skipped {m.counters.gather_bytes_skipped / 1024:6.1f}, "
              f"side-channel {m.counters.prediction_side_channel_bytes / 1024:5.1f})")
        if predict:
            reference = MptLayerMachine(
                4, 8, transform, grid, initial_weights=weights, pad=1,
            ).forward(x - 0.4, apply_relu=True)
            print(f"post-ReLU max difference: {np.max(np.abs(y - reference)):.2e} "
                  "(lossless)")


if __name__ == "__main__":
    main()
