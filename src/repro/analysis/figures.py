"""Data generators for every table and figure of the paper's evaluation.

Each ``figNN_rows`` function returns the series the corresponding figure
plots (as dictionaries, ready for tabulation or plotting); ``repro
figure`` prints them and the paper-claims table pins the values read
from them.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional

from ..core import (
    GridConfig,
    MachineConfig,
    TrainingSimulator,
    layer_comm_volume,
    table4_configs,
    w_dp,
    w_mp,
    w_mp_plus,
    w_mp_plus_plus,
)
from ..gpu import DgxSystem
from ..params import entire_cnn_params
from ..winograd import make_transform
from ..winograd.costs import access_increase, compute_reduction
from ..workloads import CnnSpec, five_layers, table1_networks


def fig01_rows(batch: int = 256) -> List[Dict]:
    """Fig. 1: compute reduction and memory-access increase of Winograd
    vs direct convolution for the five Table II layers."""
    rows = []
    for m in (4, 2):
        transform = make_transform(m, 3)
        for layer in five_layers():
            rows.append(
                {
                    "transform": f"F({m}x{m},3x3)",
                    "layer": layer.name,
                    "compute_reduction_x": compute_reduction(layer, batch, transform),
                    "access_increase_x": access_increase(layer, batch, transform),
                }
            )
    return rows


def fig06_rows(batch: int = 256, workers: int = 256) -> List[Dict]:
    """Fig. 6: per-worker communication of the Early and Late layers
    under DP and MPT strategies."""
    rows = []
    strategies = [
        (w_dp(), GridConfig(1, workers)),
        (w_mp(), GridConfig(4, workers // 4)),
        (w_mp(), GridConfig(16, workers // 16)),
        (w_mp_plus(), GridConfig(16, workers // 16)),
    ]
    layers = [five_layers()[0], five_layers()[-1]]
    for layer in layers:
        for config, grid in strategies:
            volume = layer_comm_volume(layer, batch, config, grid)
            rows.append(
                {
                    "layer": layer.name,
                    "strategy": f"{config.name}({grid.num_groups},{grid.num_clusters})",
                    "weight_MB": volume.weight_bytes / 1e6,
                    "tile_MB": volume.tile_bytes / 1e6,
                    "total_MB": volume.total_bytes / 1e6,
                }
            )
    return rows


def fig07_rows(batch: int = 256) -> List[Dict]:
    """Fig. 7: per-worker communication per iteration of FractalNet
    training versus worker count, DP vs MPT (Ng = Nc = sqrt(p))."""
    from ..workloads import fractalnet_4_4

    net = fractalnet_4_4()
    rows = []
    for p in (4, 16, 64, 256, 1024):
        sqrt_p = int(math.isqrt(p))
        ng = min(sqrt_p, 16)
        grids = {
            "dp": (w_dp(), GridConfig(1, p)),
            "mpt": (w_mp(), GridConfig(ng, p // ng)),
            "mpt+pred": (w_mp_plus(), GridConfig(ng, p // ng)),
        }
        row: Dict = {"workers": p}
        for name, (config, grid) in grids.items():
            total = sum(
                layer_comm_volume(layer, batch, config, grid).total_bytes
                for layer in net.conv_layers
            )
            row[f"{name}_MB"] = total / 1e6
        rows.append(row)
    return rows


def fig12_rows(seed: int = 0) -> List[Dict]:
    """Fig. 12: actual and predicted non-activation ratios across
    quantiser configurations, plus Section V-B traffic reductions."""
    from ..prediction import default_datasets, run_prediction_sweep

    sweep = run_prediction_sweep(default_datasets(seed))
    rows: List[Dict] = []
    for row in sweep.rows:
        rows.append(
            {
                "dataset": row.dataset,
                "mode": row.mode,
                "regions": row.regions,
                "levels": row.levels,
                "predicted_ratio": row.predicted_ratio,
                "actual_ratio": row.actual_ratio,
                "false_negatives": row.false_negatives,
            }
        )
    for (name, mode), value in sorted(sweep.gather_reduction.items()):
        rows.append(
            {"dataset": name, "mode": mode, "gather_traffic_reduction": value}
        )
    for (name, mode), value in sorted(sweep.scatter_reduction.items()):
        rows.append(
            {"dataset": name, "mode": mode, "scatter_traffic_reduction": value}
        )
    return rows


def fig14_rows(seed: int = 0) -> List[Dict]:
    """Fig. 14: standard vs modified (Winograd-domain) FractalNet join —
    training curves (six epochs) must match."""
    from ..nn import fractalnet_small, train, train_val_datasets

    train_data, val_data = train_val_datasets(256, 64, classes=4, size=16, seed=seed)
    rows = []
    for mode in ("spatial", "winograd"):
        net = fractalnet_small(join_mode=mode, width=8, classes=4, seed=seed)
        curve = train(net, train_data, val_data, epochs=6, batch_size=32,
                      lr=0.1, seed=seed)
        for epoch, (loss, acc) in enumerate(
            zip(curve.losses, curve.val_accuracies), start=1
        ):
            rows.append(
                {"join": mode, "epoch": epoch, "loss": loss, "val_accuracy": acc}
            )
    return rows


def fig15_rows(workers: int = 256, batch: int = 256) -> List[Dict]:
    """Fig. 15: execution time and energy of the five layers under the
    Table IV configurations, normalised to w_dp forward."""
    sim = TrainingSimulator(MachineConfig(workers=workers, batch=batch))
    rows = []
    for layer in five_layers():
        baseline = sim.evaluate_single_layer(layer, w_dp())
        norm = baseline.forward_s
        for config in table4_configs():
            report = sim.evaluate_single_layer(layer, config)
            energy = report.perf.energy_j
            rows.append(
                {
                    "layer": layer.name,
                    "config": config.name,
                    "grid": f"({report.grid.num_groups},{report.grid.num_clusters})",
                    "fwd_norm": report.forward_s / norm,
                    "bwd_norm": report.backward_s / norm,
                    "total_us": (report.forward_s + report.backward_s) * 1e6,
                    "speedup_vs_w_dp": (baseline.forward_s + baseline.backward_s)
                    / (report.forward_s + report.backward_s),
                    "energy_compute_mJ": energy.compute_j * 1e3,
                    "energy_sram_mJ": energy.sram_j * 1e3,
                    "energy_dram_mJ": energy.dram_j * 1e3,
                    "energy_link_mJ": (energy.link_j + energy.link_idle_j) * 1e3,
                }
            )
    return rows


def fig15_average_speedup(rows: Optional[List[Dict]] = None) -> float:
    """The headline layer-wise number: mean w_mp++ speedup over w_dp
    (paper: 2.74x)."""
    rows = rows or fig15_rows()
    speedups = [r["speedup_vs_w_dp"] for r in rows if r["config"] == "w_mp++"]
    return statistics.mean(speedups)


def fig16_rows(workers: int = 256, batch: int = 256) -> List[Dict]:
    """Fig. 16: normalised performance of the five layers with 3x3 vs
    5x5 weights (paper: 2.74x -> 3.03x for w_mp++)."""
    sim = TrainingSimulator(MachineConfig(workers=workers, batch=batch))
    rows = []
    for kernel in (3, 5):
        speedups = {c.name: [] for c in table4_configs()}
        for base_layer in five_layers():
            layer = base_layer.with_kernel(kernel)
            baseline = sim.evaluate_single_layer(layer, w_dp())
            base_total = baseline.forward_s + baseline.backward_s
            for config in table4_configs():
                report = sim.evaluate_single_layer(layer, config)
                speedups[config.name].append(
                    base_total / (report.forward_s + report.backward_s)
                )
        for name, values in speedups.items():
            rows.append(
                {
                    "kernel": f"{kernel}x{kernel}",
                    "config": name,
                    "avg_speedup_vs_w_dp": statistics.mean(values),
                }
            )
    return rows


def fig17_rows(
    batch: int = 256,
    networks: Optional[List[CnnSpec]] = None,
    ndp_worker_counts: Optional[List[int]] = None,
) -> List[Dict]:
    """Fig. 17: multi-GPU scaling (1-8 GPUs) vs NDP scaling (1-256
    workers), throughput normalised to one NDP worker."""
    networks = networks or table1_networks()
    ndp_worker_counts = ndp_worker_counts or [1, 4, 16, 64, 256]
    dgx = DgxSystem()
    rows = []
    params = entire_cnn_params()
    for net in networks:
        base = TrainingSimulator(MachineConfig(workers=1, batch=batch, params=params))
        base_result = base.simulate_iteration(net, w_dp())
        base_throughput = base_result.images_per_s
        for gpus in (1, 2, 4, 8):
            result = dgx.simulate_iteration(net, batch, gpus)
            rows.append(
                {
                    "network": net.name,
                    "system": f"{gpus}-GPU",
                    "images_per_s": result.images_per_s,
                    "speedup_vs_1ndp": result.images_per_s / base_throughput,
                }
            )
        for workers in ndp_worker_counts:
            sim = TrainingSimulator(
                MachineConfig(workers=workers, batch=batch, params=params)
            )
            for config in (w_dp(), w_mp_plus_plus()):
                result = sim.simulate_iteration(net, config)
                rows.append(
                    {
                        "network": net.name,
                        "system": f"{workers}-NDP {config.name}",
                        "images_per_s": result.images_per_s,
                        "speedup_vs_1ndp": result.images_per_s / base_throughput,
                    }
                )
    return rows


def fig18_rows(batch: int = 256) -> List[Dict]:
    """Fig. 18: 8-GPU at its best batch size vs 256-NDP at batch 256 —
    throughput and performance per watt."""
    dgx = DgxSystem()
    params = entire_cnn_params()
    rows = []
    for net in table1_networks():
        best = dgx.best_batch(net, 8)
        gpu_power = dgx.power_w(8)
        sim = TrainingSimulator(MachineConfig(workers=256, batch=batch, params=params))
        ndp = sim.simulate_iteration(net, w_mp_plus_plus())
        ndp_power = ndp.energy_j.total_j / ndp.iteration_s
        rows.append(
            {
                "network": net.name,
                "gpu_best_batch": best.batch,
                "gpu_images_per_s": best.images_per_s,
                "gpu_power_w": gpu_power,
                "ndp_images_per_s": ndp.images_per_s,
                "ndp_power_w": ndp_power,
                "perf_ratio": ndp.images_per_s / best.images_per_s,
                "perf_per_watt_ratio": (ndp.images_per_s / ndp_power)
                / (best.images_per_s / gpu_power),
            }
        )
    return rows


def fault_degradation_rows(
    message_bytes: int = 64 * 1024, seed: int = 0
) -> List[Dict]:
    """Degradation sweep (beyond the paper): every fault scenario on
    every paper grid — collective slowdown versus the fault-free
    machine, retransmissions, and recovery latency."""
    from ..core.config import PAPER_GRIDS
    from ..faults import run_scenario_on_grid, scenario_names

    rows = []
    for scenario in scenario_names():
        for num_groups, num_clusters in PAPER_GRIDS:
            row = run_scenario_on_grid(
                scenario, num_groups, num_clusters,
                seed=seed, message_bytes=message_bytes,
            )
            rows.append(
                {
                    "scenario": scenario,
                    "grid": row["grid"],
                    "ring_after": row["ring_size_after"],
                    "baseline_us": row["baseline_s"] * 1e6,
                    "faulted_us": row["faulted_s"] * 1e6,
                    "slowdown": row["slowdown"],
                    "retransmits": row["retransmits"],
                    "dead": len(row["dead_workers"]),
                    "reconfig_us": row["reconfig_latency_s"] * 1e6,
                    "completed": row["completed"],
                }
            )
    return rows


def table1_rows() -> List[Dict]:
    """Table I: the three evaluated CNNs."""
    return [
        {
            "network": net.name,
            "dataset": net.dataset,
            "conv_layers": len(net.conv_layers),
            "params_M": net.param_count / 1e6,
        }
        for net in table1_networks()
    ]


def table2_rows() -> List[Dict]:
    """Table II: the five evaluated layers."""
    return [
        {
            "layer": layer.name,
            "channels": f"{layer.in_channels}x{layer.out_channels}",
            "feature_map": f"{layer.height}x{layer.width}",
            "kernel": f"{layer.kernel}x{layer.kernel}",
            "weight_KB": layer.weight_count * 4 / 1024,
        }
        for layer in five_layers()
    ]
