"""Zero-dependency event counters for the hot paths.

A module-global registry accumulates named integer counters (packets
served, flows coalesced, ...).  Instrumentation points call
:func:`counter_add`; while profiling is disabled — the default — that
is one flag test and nothing else.

The registry is process-global on purpose: whoever measures a run (the
repo benchmark's tracer) owns the enable/reset lifecycle and the
instrumented code stays oblivious.  Host time is measured from outside
the package, not here.
"""

from __future__ import annotations

from typing import Dict

from .memoize import effect_free

_enabled = False
_counters: Dict[str, int] = {}


# Vouched effect-free: the counter registry is observability-only state
# that never feeds back into any computed value, so memoized callers may
# use it without poisoning their cache keys (EFF001).
@effect_free
def counter_add(name: str, amount: int = 1) -> None:
    """Bump a named counter (no-op while profiling is disabled)."""
    if not _enabled:
        return
    _counters[name] = _counters.get(name, 0) + amount


def profiling_enabled() -> None:
    """Turn the registry on (measurement entry)."""
    global _enabled
    _enabled = True


def profiling_disabled() -> None:
    global _enabled
    _enabled = False


def reset_profile() -> None:
    """Zero all counters (enable state is unchanged)."""
    _counters.clear()


def snapshot_profile() -> Dict[str, Dict]:
    """Copy of the registry: ``{"counters": {name: count}}``."""
    return {"counters": dict(sorted(_counters.items()))}
