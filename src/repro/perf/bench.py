"""Perf-regression benchmark runner: ``python -m repro bench``.

Runs a registry of benchmark callables (figure sweeps plus kernel and
netsim micro-benchmarks), records wall clock per benchmark together
with the profiler's phase breakdown and the sweep-cache statistics, and
writes the result as ``BENCH_PR<k>.json`` — the perf trajectory file
this repository's future PRs regress against.

Conventions of the JSON format (schema 2):

* ``benchmarks.<name>.wall_s`` — best wall time over ``rounds`` runs.
* ``benchmarks.<name>.cold_s`` — the first round's wall time.
* ``benchmarks.<name>.rounds_s`` — every round, in run order.
* ``benchmarks.<name>.phases`` — inclusive seconds per instrumented
  phase (``kernel`` / ``netsim`` / ``model``), from the best round.
* ``benchmarks.<name>.cold_phases`` / ``cold_counters`` — the same
  breakdown from the *first* round.  For the memoized sweeps the best
  round is warm (pure cache hits, so ``phases`` is honestly empty);
  the cold entries are where the netsim/kernel seconds actually show
  up, and what the fast-path work in PR 10 is measured by.
* ``benchmarks.<name>.cache`` — sweep-cache hits/misses of that round.
* ``benchmarks.<name>.result_digest`` — sha256 of the benchmark's
  canonical row output (present for the row-producing sweeps); the
  determinism contract's observable: serial and parallel runs of the
  same sweep must agree on it bit for bit.
* ``benchmarks.<name>.parallel`` — present when the runner was given
  ``workers > 1`` and the benchmark has a sweep-point enumerator: the
  process-parallel cold run of the same sweep (see
  :mod:`repro.perf.parallel`) with per-worker hit/miss/wall stats, the
  merged phase breakdown, ``speedup_vs_cold`` against the serial cold
  round, and its own ``result_digest`` + ``digest_match`` flag.
* ``workers`` (top level) — the worker count the runner was given.
* The sweep caches are cleared once per *benchmark*, before its first
  round: ``cold_s`` is what a fresh process pays (intra-sweep
  memoization only), while ``wall_s`` measures the steady state of a
  long-lived process — sweep points are computed once per process, so
  repeated figure regeneration runs against warm caches.  The parallel
  entry clears them again, so its sweep is an apples-to-apples cold
  start sharded across processes.

``benchmarks/conftest.py`` funnels pytest-benchmark timings through
:func:`write_bench_json` as well, so there is exactly one on-disk
format.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .profiler import (
    profiling_disabled,
    profiling_enabled,
    reset_profile,
    snapshot_profile,
)

SCHEMA_VERSION = 2


# ---- benchmark registry -----------------------------------------------------
#
# Each entry is a zero-argument callable; imports stay inside the
# callables so ``repro.perf`` never imports the heavier packages at
# module load (and so repro.core can import repro.perf without cycles).
# Row-producing sweeps return their rows so the runner can digest them
# (the serial-vs-parallel bit-identity observable); micro-benchmarks
# return ``None``.


def _bench_fig7() -> Optional[List]:
    """Fig. 7 sweep: communication scaling across worker counts."""
    from ..analysis import fig07_rows

    return fig07_rows()


def _bench_fig15() -> Optional[List]:
    """Fig. 15 sweep: layer-wise speedups, 5 layers x 6 configurations."""
    from ..analysis import fig15_rows

    return fig15_rows()


def _bench_fig16() -> Optional[List]:
    """Fig. 16 sweep: weight-size scaling study."""
    from ..analysis import fig16_rows

    return fig16_rows()


def _bench_fig17() -> Optional[List]:
    """Fig. 17 sweep: full-CNN scaling, 3 networks x 11 settings."""
    from ..analysis import fig17_rows

    return fig17_rows()


def _bench_winograd_kernels() -> Optional[List]:
    """Forward + backward of a mid-sized Winograd layer (numeric path)."""
    import numpy as np

    from ..winograd import make_transform
    from ..winograd.conv import winograd_backward, winograd_forward

    transform = make_transform(4, 3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 32, 28, 28))
    weights = rng.standard_normal((32, 32, transform.tile, transform.tile))
    y, cache = winograd_forward(x, weights, transform, pad=1)
    winograd_backward(rng.standard_normal(y.shape), weights, transform, cache)
    return None


def _bench_netsim_allreduce() -> Optional[List]:
    """Event-engine ring all-reduce, 16 nodes x 500 kB."""
    from ..netsim import NetworkSimulator, ring, ring_allreduce
    from ..params import DEFAULT_PARAMS

    sim = NetworkSimulator(
        ring(16), packet_bytes=DEFAULT_PARAMS.collective_packet_bytes
    )
    ring_allreduce(sim, list(range(16)), 500_000)
    return None


def _bench_netsim_all_to_all() -> Optional[List]:
    """Event-engine all-to-all on a 4x4 FBFLY cluster, 10 kB per pair."""
    from ..netsim import NetworkSimulator, all_to_all, flattened_butterfly_2d

    sim = NetworkSimulator(flattened_butterfly_2d(4, 4))
    all_to_all(sim, list(range(16)), 10_000)
    return None


def _bench_faults_degraded_allreduce() -> Optional[List]:
    """Resilient all-reduce on the 16-ring: fault-free baseline plus a
    one-dead-worker detect/splice/re-run recovery."""
    from ..faults import FaultPlan, WorkerFault
    from ..faults.resilience import baseline_ring_allreduce, resilient_ring_allreduce
    from ..netsim.reconfiguration import reconfigure

    baseline_machine = reconfigure(16, 16, 16)
    baseline_ring_allreduce(baseline_machine, 0, 64 * 1024)
    machine = reconfigure(16, 16, 16)
    ring = machine.logical_rings[0]
    plan = FaultPlan(seed=0, worker_faults=(WorkerFault(worker=ring[8]),))
    result = resilient_ring_allreduce(machine, 0, 64 * 1024, plan)
    assert result.completed and result.recovered
    return None


def _bench_faults_battery() -> Optional[List]:
    """Full fault battery: every scenario on every paper grid (the
    ``-m slow`` scenario sweep, driven through the memoized kernel)."""
    from ..analysis import fault_degradation_rows

    return fault_degradation_rows()


def _bench_netsim_battery() -> Optional[List]:
    """Netsim fast-path battery: collectives on the paper grids, raw
    multi-hop flows, and a flit-level worm, returned as canonical rows.

    Every value in the rows is an engine-produced float, so the row
    digest is the fast-path equivalence observable: running this
    benchmark with ``REPRO_NETSIM_REFERENCE=1`` must produce the same
    ``result_digest`` byte for byte (CI's bench-smoke diffs the two)."""
    from ..netsim import Message, NetworkSimulator, all_to_all, ring, ring_allreduce
    from ..netsim.topology import hybrid
    from ..netsim.wormhole import WormholeSimulator
    from ..params import DEFAULT_PARAMS

    rows: List = []

    def record(case: str, op: str, result) -> None:
        rows.append(
            {
                "case": case,
                "op": op,
                "finish_time_s": result.finish_time_s,
                "bytes_on_wire": result.total_bytes_on_wire,
                "messages": result.messages,
                "completed": result.completed,
            }
        )

    # Collectives on the tier-1 paper grids: the group ring carries the
    # all-reduce, the cluster leaders carry the all-to-all.
    for num_groups, num_clusters in ((16, 16), (4, 64)):
        case = f"{num_groups}x{num_clusters}"
        topology, layout = hybrid(num_groups, num_clusters, DEFAULT_PARAMS)
        record(
            case,
            "ring_allreduce",
            ring_allreduce(
                NetworkSimulator(topology), layout.group_members(0), 64 * 1024
            ),
        )
        record(
            case,
            "all_to_all",
            all_to_all(
                NetworkSimulator(topology), layout.cluster_members(0), 10_000
            ),
        )

    # Raw flows: multi-hop coalescing plus staggered contention fallback.
    sim = NetworkSimulator(ring(16))
    completions: List = []
    for index, (src, dst, size, start) in enumerate(
        [(0, 5, 200_000, 0.0), (8, 12, 50_000, 0.0), (3, 4, 1_000, 5e-6)]
    ):
        sim.send(
            Message(
                src=src,
                dst=dst,
                size_bytes=size,
                on_complete=lambda _m, t, i=index: completions.append((i, t)),
            ),
            start_time=start,
        )
    sim.run()
    rows.append(
        {"case": "ring16", "op": "raw_flows",
         "completions": completions, "now": sim.now}
    )

    # Flit level: one single-hop 64 KB worm through the flit event loop.
    worm = WormholeSimulator(ring(8))
    finishes: List[float] = []
    worm.send(0, 1, 64 * 1024, on_delivered=finishes.append)
    worm.run()
    rows.append(
        {"case": "ring8", "op": "wormhole_single_worm",
         "finish_time_s": finishes[0], "flits": worm.flits_delivered}
    )
    return rows


def _bench_planner_battery() -> Optional[List]:
    """Planner battery: greedy vs DP chain totals for both paper
    workloads across every transition preset."""
    from ..analysis import planner_rows

    return planner_rows()


BENCHMARKS: Dict[str, Callable[[], Optional[List]]] = {
    "fig7": _bench_fig7,
    "fig15": _bench_fig15,
    "fig16": _bench_fig16,
    "fig17": _bench_fig17,
    "winograd_kernels": _bench_winograd_kernels,
    "netsim_allreduce": _bench_netsim_allreduce,
    "netsim_all_to_all": _bench_netsim_all_to_all,
    "faults_degraded_allreduce": _bench_faults_degraded_allreduce,
    "faults_battery": _bench_faults_battery,
    "netsim_battery": _bench_netsim_battery,
    "planner_battery": _bench_planner_battery,
}


# ---- sweep-point enumerators ------------------------------------------------
#
# For each parallelisable benchmark: the exact set of memoized-kernel
# evaluations its sweep performs, as dispatchable SweepPoints.  The
# enumerator mirrors the figure driver's call pattern (all-positional,
# same defaults), so after ``run_points`` pre-warms the caches the
# serial replay is 100% hits — which is what makes parallel output
# byte-identical to serial output.


def _points_fig15() -> List:
    from ..core import table4_configs, w_dp
    from ..core.comm_model import DEFAULT_FACTORS
    from ..core.dynamic_clustering import _choose_clustering_cached
    from ..params import DEFAULT_PARAMS
    from ..workloads import five_layers
    from .parallel import sweep_point

    points = []
    for layer in five_layers():
        for config in [w_dp()] + list(table4_configs()):
            points.append(
                sweep_point(
                    _choose_clustering_cached,
                    layer, 256, config, 256, DEFAULT_PARAMS, DEFAULT_FACTORS,
                )
            )
    return points


def _points_fig16() -> List:
    from ..core import table4_configs, w_dp
    from ..core.comm_model import DEFAULT_FACTORS
    from ..core.dynamic_clustering import _choose_clustering_cached
    from ..params import DEFAULT_PARAMS
    from ..workloads import five_layers
    from .parallel import sweep_point

    points = []
    for kernel in (3, 5):
        for base_layer in five_layers():
            layer = base_layer.with_kernel(kernel)
            for config in [w_dp()] + list(table4_configs()):
                points.append(
                    sweep_point(
                        _choose_clustering_cached,
                        layer, 256, config, 256, DEFAULT_PARAMS, DEFAULT_FACTORS,
                    )
                )
    return points


def _points_fig17() -> List:
    from ..core import w_dp, w_mp_plus_plus
    from ..core.comm_model import DEFAULT_FACTORS
    from ..core.dynamic_clustering import _choose_clustering_cached
    from ..params import entire_cnn_params
    from ..workloads import table1_networks
    from .parallel import sweep_point

    params = entire_cnn_params()
    points = []
    for net in table1_networks():
        for layer in net.conv_layers:
            for workers in (1, 4, 16, 64, 256):
                for config in (w_dp(), w_mp_plus_plus()):
                    points.append(
                        sweep_point(
                            _choose_clustering_cached,
                            layer, 256, config, workers, params, DEFAULT_FACTORS,
                        )
                    )
    return points


def _points_faults_battery() -> List:
    from ..core.config import PAPER_GRIDS
    from ..faults.scenarios import _scenario_grid_row_cached, scenario_names
    from ..params import DEFAULT_PARAMS
    from .parallel import sweep_point

    points = []
    for scenario in scenario_names():
        for num_groups, num_clusters in PAPER_GRIDS:
            points.append(
                sweep_point(
                    _scenario_grid_row_cached,
                    scenario, num_groups, num_clusters, 0, 64 * 1024,
                    DEFAULT_PARAMS,
                )
            )
    return points


def _points_planner_battery() -> List:
    from ..analysis.planner import _BATTERY_NETWORKS, _BATTERY_PRESETS
    from ..core import w_mp_plus_plus
    from ..core.comm_model import DEFAULT_FACTORS
    from ..core.dynamic_clustering import _choose_clustering_cached
    from ..params import DEFAULT_PARAMS
    from ..planner import preset
    from ..planner.solver import _plan_network_cached
    from ..planner.strategy import DEFAULT_KNOBS, _layer_candidates_cached
    from .parallel import sweep_point

    config = w_mp_plus_plus()
    points = []
    for _name, build in _BATTERY_NETWORKS:
        net = build()
        layers = tuple(net.conv_layers)
        for layer in layers:
            points.append(
                sweep_point(
                    _layer_candidates_cached,
                    layer, 256, config, 256, DEFAULT_KNOBS,
                    DEFAULT_PARAMS, DEFAULT_FACTORS,
                )
            )
            points.append(
                sweep_point(
                    _choose_clustering_cached,
                    layer, 256, config, 256, DEFAULT_PARAMS, DEFAULT_FACTORS,
                )
            )
        for preset_name in _BATTERY_PRESETS:
            points.append(
                sweep_point(
                    _plan_network_cached,
                    net.name, layers, 256, config, 256, DEFAULT_KNOBS,
                    preset(preset_name), "time", "dp", 4,
                    DEFAULT_PARAMS, DEFAULT_FACTORS,
                )
            )
    return points


POINT_ENUMERATORS: Dict[str, Callable[[], List]] = {
    "fig15": _points_fig15,
    "fig16": _points_fig16,
    "fig17": _points_fig17,
    "faults_battery": _points_faults_battery,
    "planner_battery": _points_planner_battery,
}


# ---- machine stamp ----------------------------------------------------------


def collect_machine_info() -> Dict:
    """Machine + lint state stamp tying perf numbers to their context."""
    info: Dict = {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep in practice
        pass
    try:
        from ..statcheck import check_paths

        src = Path(__file__).resolve().parents[1]
        findings = check_paths([src])
        info["statcheck_findings"] = len(findings)
        info["statcheck_errors"] = sum(
            1 for f in findings if f.severity.value == "error"
        )
    except Exception:  # pragma: no cover - lint state is best-effort
        pass
    return info


# ---- runner -----------------------------------------------------------------


def _sweep_caches() -> List:
    """Every registered process-wide sweep cache (for cold-start resets
    and hit/miss reporting) — derived from ``MEMOIZED_SWEEPS``, so a
    newly registered kernel is covered without touching this module."""
    from .parallel import import_sweep_modules, registered_caches

    import_sweep_modules()
    return registered_caches()


def _rows_digest(rows: Optional[List]) -> Optional[str]:
    """sha256 of a sweep's canonical row serialisation (None for the
    micro-benchmarks, which produce no rows)."""
    if rows is None:
        return None
    payload = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _parallel_entry(
    name: str,
    fn: Callable[[], Optional[List]],
    workers: int,
    cache_dir: Optional[Path],
    caches: List,
    cold_s: float,
    serial_digest: Optional[str],
) -> Dict:
    """Cold parallel run of one sweep: pre-warm via ``run_points``,
    replay serially, compare digests against the serial round."""
    from .parallel import run_points

    points = POINT_ENUMERATORS[name]()
    for cache in caches:
        cache.clear()
    reset_profile()
    start = time.perf_counter()
    stats = run_points(points, workers=workers, cache_dir=cache_dir, profile=True)
    value = fn()
    wall_s = time.perf_counter() - start
    digest = _rows_digest(value)
    entry: Dict = {
        "workers": stats["workers"],
        "points": stats["points"],
        "unique_points": stats["unique_points"],
        "recovered": stats["recovered"],
        "sweep_wall_s": stats["wall_s"],
        "wall_s": wall_s,
        "speedup_vs_cold": (cold_s / wall_s) if wall_s else 0.0,
        "phases": {
            phase_name: data["seconds"]
            for phase_name, data in snapshot_profile().get("phases", {}).items()
        },
        "worker_stats": [
            {
                key: ws[key]
                for key in ("worker", "points", "hits", "misses", "wall_s",
                            "completed")
                if key in ws
            }
            for ws in stats["worker_stats"]
        ],
    }
    if digest is not None:
        entry["result_digest"] = digest
        entry["digest_match"] = digest == serial_digest
    return entry


def run_benchmarks(
    subset: Optional[List[str]] = None,
    rounds: int = 3,
    workers: int = 1,
    cache_dir: Optional[Path] = None,
) -> Dict:
    """Run benchmarks and return the schema-2 result document.

    With ``workers > 1``, every benchmark that has a sweep-point
    enumerator additionally gets a cold *parallel* run (sharded across
    ``workers`` processes through the shared disk cache at
    ``cache_dir``, or a private temporary directory) recorded under its
    ``parallel`` key — including the serial-vs-parallel digest match
    that the determinism contract promises.
    """
    names = list(BENCHMARKS) if not subset else list(subset)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise ValueError(
            f"unknown benchmarks {unknown}; choose from {sorted(BENCHMARKS)}"
        )
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    caches = _sweep_caches()
    results: Dict[str, Dict] = {}
    profiling_enabled()
    try:
        for name in names:
            fn = BENCHMARKS[name]
            rounds_s: List[float] = []
            best_s = float("inf")
            best_profile: Dict = {}
            best_cache: Dict = {}
            serial_digest: Optional[str] = None
            # Cold start per benchmark; later rounds run warm (see the
            # module docstring for the cold_s / wall_s convention).
            for cache in caches:
                cache.clear()
            cold_profile: Dict = {}
            for index in range(rounds):
                reset_profile()
                hits_before = sum(c.hits for c in caches)
                misses_before = sum(c.misses for c in caches)
                start = time.perf_counter()
                value = fn()
                elapsed = time.perf_counter() - start
                rounds_s.append(elapsed)
                if index == 0:
                    serial_digest = _rows_digest(value)
                    cold_profile = snapshot_profile()
                if elapsed < best_s:
                    best_s = elapsed
                    best_profile = snapshot_profile()
                    best_cache = {
                        "hits": sum(c.hits for c in caches) - hits_before,
                        "misses": sum(c.misses for c in caches) - misses_before,
                    }
            entry: Dict = {
                "wall_s": best_s,
                "cold_s": rounds_s[0],
                "rounds_s": rounds_s,
                "phases": {
                    phase_name: data["seconds"]
                    for phase_name, data in best_profile.get("phases", {}).items()
                },
                "counters": best_profile.get("counters", {}),
                "cold_phases": {
                    phase_name: data["seconds"]
                    for phase_name, data in cold_profile.get("phases", {}).items()
                },
                "cold_counters": cold_profile.get("counters", {}),
                "cache": best_cache,
            }
            if serial_digest is not None:
                entry["result_digest"] = serial_digest
            if workers > 1 and name in POINT_ENUMERATORS:
                entry["parallel"] = _parallel_entry(
                    name, fn, workers, cache_dir, caches,
                    cold_s=rounds_s[0], serial_digest=serial_digest,
                )
            results[name] = entry
    finally:
        profiling_disabled()
        reset_profile()
    return {
        "schema": SCHEMA_VERSION,
        "machine": collect_machine_info(),
        "workers": workers,
        "benchmarks": results,
    }


def write_bench_json(document: Dict, path: Path) -> Path:
    """Write a schema-2 benchmark document (stamping schema/machine if
    the caller provided bare benchmark entries)."""
    if "benchmarks" not in document:
        document = {"benchmarks": document}
    document.setdefault("schema", SCHEMA_VERSION)
    document.setdefault("machine", collect_machine_info())
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def format_results(document: Dict) -> str:
    """Human-readable table of a result document."""
    lines = [f"{'benchmark':<20} {'wall_s':>10}  phase breakdown"]
    for name, entry in document["benchmarks"].items():
        phases = entry.get("phases", {})
        tag = ""
        if not phases and entry.get("cold_phases"):
            # Warm best round with a memoized sweep: the cold round is
            # where the instrumented work happened.
            phases = entry["cold_phases"]
            tag = " (cold)"
        breakdown = ", ".join(
            f"{phase_name}={seconds:.4f}s{tag}"
            for phase_name, seconds in phases.items()
        )
        cache = entry.get("cache") or {}
        if cache.get("hits") or cache.get("misses"):
            breakdown += (
                f"  [cache {cache.get('hits', 0)} hits"
                f" / {cache.get('misses', 0)} misses]"
            )
        parallel = entry.get("parallel")
        if parallel:
            match = parallel.get("digest_match")
            breakdown += (
                f"  [parallel x{parallel['workers']}"
                f" {parallel['speedup_vs_cold']:.2f}x"
                + ("" if match is None else f" identical={match}")
                + "]"
            )
        lines.append(f"{name:<20} {entry['wall_s']:>10.4f}  {breakdown}")
    return "\n".join(lines)
