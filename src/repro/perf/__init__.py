"""Cross-cutting performance layer: sweep memoization and event counters.

* :mod:`repro.perf.memoize` — a cache for pure evaluations keyed on
  their bound arguments (primitives, tuples and frozen config
  dataclasses, compared by value), so repeated ``(layer, grid,
  batch)`` points in a sweep are computed once per process.
* :mod:`repro.perf.profiler` — a global counter registry (packets
  served, collectives coalesced, ...) that is a no-op until enabled.
* :mod:`repro.perf.parallel` — imports every module that registers a
  sweep kernel and lists their caches.

Host time is measured from outside the package by the repo benchmark
(``bench/``, see ``bench/README.md``).
"""

from .memoize import (
    MEMOIZED_SWEEPS,
    SweepCache,
    build_key,
    effect_free,
    memoize_sweep,
)
from .parallel import SWEEP_MODULES, import_sweep_modules, registered_caches
from .profiler import (
    counter_add,
    profiling_disabled,
    profiling_enabled,
    reset_profile,
    snapshot_profile,
)

__all__ = [
    "MEMOIZED_SWEEPS",
    "SWEEP_MODULES",
    "SweepCache",
    "build_key",
    "counter_add",
    "effect_free",
    "import_sweep_modules",
    "memoize_sweep",
    "profiling_disabled",
    "profiling_enabled",
    "registered_caches",
    "reset_profile",
    "snapshot_profile",
]
