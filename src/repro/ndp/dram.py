"""3D-stacked memory capacity (paper Table III: one HMC-class stack per
worker).

The performance model prices streaming time as
``nbytes / dram_bytes_per_s``; this module holds the capacity check
the planner filters candidates with.
"""

from __future__ import annotations

from ..params import DEFAULT_PARAMS, HardwareParams


def stack_fits(
    nbytes: float,
    params: HardwareParams = DEFAULT_PARAMS,
    fraction: float = 1.0,
) -> bool:
    """Whether a per-worker working set of ``nbytes`` fits in one stack.

    ``fraction`` reserves headroom: the planner's capacity filter passes
    e.g. ``0.5`` to keep half the stack free for double-buffered DMA
    staging and the host-visible scratch region.
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    return nbytes <= params.dram_capacity_bytes * fraction
