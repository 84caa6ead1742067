"""The sweep-kernel registry, populated and enumerated as one unit.

Every function wrapped by :func:`~repro.perf.memoize.memoize_sweep`
registers itself in :data:`~repro.perf.memoize.MEMOIZED_SWEEPS` when its
module is imported.  :func:`import_sweep_modules` imports every module
that defines one, so the registry is complete before
:func:`registered_caches` walks it — the repo benchmark uses the pair to
empty every sweep cache between cold ops and to count cache hits.

The module keeps its historical name, from when it also held a
process-parallel sweep executor, because the benchmark harness imports
these helpers from ``repro.perf.parallel``.
"""

from __future__ import annotations

import importlib
from typing import List, Tuple

from .memoize import MEMOIZED_SWEEPS, SweepCache

#: Modules whose import registers every sweep kernel.
SWEEP_MODULES: Tuple[str, ...] = (
    "repro.core.perf_model",
    "repro.core.dynamic_clustering",
    "repro.faults.scenarios",
    "repro.planner.strategy",
    "repro.planner.solver",
)


def import_sweep_modules() -> None:
    """Populate ``MEMOIZED_SWEEPS`` with every kernel defined on the tree."""
    for name in SWEEP_MODULES:
        importlib.import_module(name)


def registered_caches() -> List[SweepCache]:
    """Every registered sweep cache, in deterministic qualname order."""
    return [wrapper.cache for _, wrapper in sorted(MEMOIZED_SWEEPS.items())]
