"""Built-in rule families.  Importing this package registers every rule
with the engine (each module uses the ``@register`` decorator)."""

from __future__ import annotations

from . import (  # noqa: F401
    config_rules,
    cost_rules,
    determinism,
    effect_rules,
    perf_rules,
    shape_rules,
    units,
)

__all__ = [
    "config_rules",
    "cost_rules",
    "determinism",
    "effect_rules",
    "perf_rules",
    "shape_rules",
    "units",
]
