"""System configurations (paper Table IV) and MPT grid arithmetic.

The five evaluated systems:

========  ==========================================================
``d_dp``   Direct convolution, data parallelism (updates spatial w)
``w_dp``   Winograd convolution, data parallelism (updates spatial w)
``w_mp``   Winograd + MPT (updates Winograd-domain W)
``w_mp+``  w_mp + activation prediction / zero-skip
``w_mp++`` w_mp + activation prediction / zero-skip + dynamic clustering
========  ==========================================================

Worker grid (paper Fig. 5/9): ``p = N_g x N_c`` workers.  A *group* owns
one slice of the tile elements and spans ``N_c`` workers (one per
cluster) joined by a ring for weight collectives; a *cluster* owns one
batch shard and spans ``N_g`` workers joined by a flattened butterfly for
tile transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import List, Tuple

from ..params import DEFAULT_PARAMS, HardwareParams


#: The paper's three dynamic-clustering settings for p = 256 and a 4x4
#: tile (Section VII-A); every pair multiplies out to the same worker
#: count, which the statcheck CFG002 rule enforces on literal grids.
PAPER_GRIDS: Tuple[Tuple[int, int], ...] = ((16, 16), (4, 64), (1, 256))


@dataclass(frozen=True)
class GridConfig:
    """One ``(N_g, N_c)`` organisation of ``p`` workers."""

    num_groups: int
    num_clusters: int

    def __post_init__(self) -> None:
        if self.num_groups < 1 or self.num_clusters < 1:
            raise ValueError(f"invalid grid {self}")

    @property
    def workers(self) -> int:
        return self.num_groups * self.num_clusters


@dataclass(frozen=True)
class SystemConfig:
    """One Table IV system configuration.

    Attributes
    ----------
    name:
        Table IV abbreviation.
    conv:
        ``"direct"`` or ``"winograd"``.
    mpt:
        Whether intra-tile parallelism is available (otherwise pure DP).
    prediction:
        Activation prediction + zero-skipping enabled.
    dynamic_clustering:
        Per-layer ``(N_g, N_c)`` selection enabled.
    update_domain:
        ``"spatial"`` (all-reduce r x r gradients) or ``"winograd"``
        (Winograd layer: all-reduce T x T gradients).
    collective_rings:
        Independent rings used for weight collectives.  DP dedicates all
        four I/O links (4 rings); MPT reserves half the links for the
        cluster FBFLY (2 rings) — Section VII-A.
    """

    name: str
    conv: str = "winograd"
    mpt: bool = False
    prediction: bool = False
    dynamic_clustering: bool = False
    update_domain: str = "spatial"
    collective_rings: int = 4

    def __post_init__(self) -> None:
        if self.conv not in ("direct", "winograd"):
            raise ValueError(f"unknown conv mode {self.conv!r}")
        if self.update_domain not in ("spatial", "winograd"):
            raise ValueError(f"unknown update domain {self.update_domain!r}")
        if self.collective_rings < 1:
            raise ValueError(
                f"collective_rings must be >= 1, got {self.collective_rings}"
            )


def d_dp() -> SystemConfig:
    return SystemConfig(name="d_dp", conv="direct", collective_rings=4)


def w_dp() -> SystemConfig:
    return SystemConfig(name="w_dp", conv="winograd", collective_rings=4)


def w_mp() -> SystemConfig:
    return SystemConfig(
        name="w_mp", mpt=True, update_domain="winograd", collective_rings=2
    )


def w_mp_plus() -> SystemConfig:
    return replace(w_mp(), name="w_mp+", prediction=True)


def w_mp_plus_plus() -> SystemConfig:
    return replace(w_mp_plus(), name="w_mp++", dynamic_clustering=True)


def table4_configs() -> List[SystemConfig]:
    """All five Table IV configurations."""
    return [d_dp(), w_dp(), w_mp(), w_mp_plus(), w_mp_plus_plus()]


@lru_cache(maxsize=None)
def clustering_candidates(p: int, tile_elems: int) -> Tuple[GridConfig, ...]:
    """The dynamic-clustering configurations for ``p`` workers.

    The paper's three settings for p = 256 and a 4x4 tile are
    ``(16, 16)``, ``(4, 64)`` and ``(1, 256)``.  ``N_g`` ranges over the
    host-bridgeable group counts (powers of 4 up to the physical 16-group
    organisation) that do not exceed the tile element count; when
    ``tile_elems`` is not divisible (e.g. the 36 elements of F(2x2,5x5)
    over 16 groups) elements are assigned with a ceiling split and the
    performance model charges the worst-loaded worker.
    """
    candidates: List[GridConfig] = []
    ng = 1
    while ng <= min(tile_elems, p, 16):
        if p % ng == 0:
            candidates.append(GridConfig(num_groups=ng, num_clusters=p // ng))
        ng *= 4
    if not candidates:
        candidates.append(GridConfig(num_groups=1, num_clusters=p))
    # Tuple: the result is cached and shared between callers.
    return tuple(candidates)


@dataclass(frozen=True)
class MachineConfig:
    """The simulated machine: worker count, batch and hardware constants."""

    workers: int = 256
    batch: int = 256
    params: HardwareParams = field(default_factory=lambda: DEFAULT_PARAMS)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.batch % self.workers and self.workers % self.batch:
            raise ValueError(
                f"batch {self.batch} and workers {self.workers} must divide "
                "one another for an even shard"
            )
