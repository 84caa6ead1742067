#!/usr/bin/env python3
"""Dynamic clustering explorer (paper Section IV).

For every Table II layer, evaluates each candidate ``(N_g, N_c)``
organisation of the 256-worker machine and shows the communication /
computation trade-off that drives the per-layer choice: early layers
(huge feature maps) want few groups, late layers (huge weights) want
many.

Run: ``python examples/dynamic_clustering_explorer.py``
"""

from repro.core import (
    MachineConfig,
    PerfModel,
    candidate_grids,
    choose_clustering,
    layer_comm_volume,
    w_mp_plus_plus,
)
from repro.workloads import five_layers


def main() -> None:
    config = w_mp_plus_plus()
    machine = MachineConfig(workers=256, batch=256)
    model = PerfModel(machine.params)
    for layer in five_layers():
        print(f"=== {layer.name}: {layer.in_channels}x{layer.out_channels} ch, "
              f"{layer.height}x{layer.width} map, "
              f"{layer.weight_count * 4 / 1024:.0f} KB weights ===")
        print(f"{'grid':>10} {'weight MB':>10} {'tile MB':>9} "
              f"{'fwd us':>8} {'bwd us':>8} {'total us':>9}")
        chosen = choose_clustering(
            layer, machine.batch, config, machine.workers, model
        ).grid
        for grid in candidate_grids(layer, config, machine.workers):
            volume = layer_comm_volume(layer, machine.batch, config, grid)
            perf = model.evaluate_layer(layer, machine.batch, config, grid)
            marker = "  <= chosen" if grid == chosen else ""
            print(f"({grid.num_groups:3d},{grid.num_clusters:3d}) "
                  f"{volume.weight_bytes / 1e6:>10.2f} "
                  f"{volume.tile_bytes / 1e6:>9.2f} "
                  f"{perf.forward_s * 1e6:>8.1f} {perf.backward_s * 1e6:>8.1f} "
                  f"{perf.total_s * 1e6:>9.1f}{marker}")
        print()


if __name__ == "__main__":
    main()
