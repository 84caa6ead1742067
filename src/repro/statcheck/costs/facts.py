"""Analytical-model facts the COST rules check kernels against.

Three kinds of facts live here:

* **Self/parameter facts** — the symbolic state handed to methods of
  known classes (``WinogradTransform.tile`` is the bare symbol ``T``,
  matching the ``@shaped`` contracts which use ``T`` rigidly) and to
  well-known parameter names (``grid`` is always a ``TileGrid``).

* **Traffic facts (COST002)** — the per-layer communication-volume
  factors of :mod:`repro.core.comm_model`: the all-reduce ring factor
  ``2*(n-1)/n`` over replicated slices and the remote fraction
  ``(n_g-1)/n_g`` of scatter/gather traffic, written as the exact
  integer polynomials the functional machine must implement.

* **Wire-byte facts (COST004)** — closed forms for the collective
  algorithms the network/GPU simulators implement: ``2*(n-1)*M/n``
  per-slice ring all-reduce totals and ``n*(n-1)*B`` all-to-all.

The polynomials are stored as ``@cost`` dim strings and parsed through
the same grammar as the annotations so both sides of every comparison
live in one algebra.
"""

from __future__ import annotations

from typing import Dict

from ..symdims import SymDim, parse_dim, sym
from .values import Arr, Geom, Obj, Xform


def _T() -> SymDim:
    return sym("T")


def winograd_transform_fact() -> Obj:
    t = _T()
    return Obj("WinogradTransform", {
        "m": sym("M"), "r": sym("R"), "tile": t,
        "B": Arr((t, t)), "G": Arr((t, sym("R"))), "A": Arr((t, sym("M"))),
        "B_exact": Arr((t, t)), "G_exact": Arr((t, sym("R"))),
        "A_exact": Arr((t, sym("M"))),
    })


def mpt_worker_fact() -> Obj:
    return Obj("MptWorker", {
        "weights": Arr((sym("E"), sym("I"), sym("J"))),
    })


def tile_grid_fact() -> Geom:
    return Geom(sym("H"), sym("W"), sym("P"), sym("M"), sym("R"))


def conv_cache_fact() -> Obj:
    t = _T()
    return Obj("WinogradConvCache", {
        "input_tiles": Arr(
            (t, t, sym("B"), sym("TH"), sym("TW"), sym("I"))
        ),
        "grid": tile_grid_fact(),
    })


#: ``self`` facts by defining class name.
CLASS_SELF_FACTS = {
    "WinogradTransform": winograd_transform_fact,
    "MptWorker": mpt_worker_fact,
}

#: Facts bound to well-known parameter names when the contract marks
#: the argument ``_`` (skip).
PARAM_FACTS = {
    "grid": tile_grid_fact,
    "transform": lambda: Xform(sym("M"), sym("R")),
    "cache": conv_cache_fact,
}

#: Facts for a callee's ``_`` (skip) return slot, by callee name, in the
#: callee's symbols; a call substitutes its bindings into them.
#: ``winograd_forward`` reads the grid of the cache its first half returns.
RETURN_FACTS = {
    "winograd_forward_tiles": conv_cache_fact,
}


# ---------------------------------------------------------------------------
# COST002 — layer traffic factors (core.functional vs core.comm_model)
# ---------------------------------------------------------------------------

#: Declared return polynomials the traffic helpers in
#: ``core/functional.py`` must match.  ``TS`` tiles, ``C`` channels,
#: ``E`` elements per tile, ``NG`` groups, ``NC`` clusters, ``SB``
#: replicated slice bytes.
TRAFFIC_FACTS: Dict[str, SymDim] = {
    "remote_scatter_bytes": parse_dim("floordiv(4*TS*C*E*(NG-1), NG)"),
    "remote_gather_bytes": parse_dim("floordiv(4*TS*C*E*(NG-1), NG)"),
    "allreduce_ring_bytes": parse_dim("2*(NC-1)*SB"),
}

#: Counter sites in the class named here must route through *all* the
#: traffic helpers — counting bytes inline would bypass COST002.
TRAFFIC_MACHINE_CLASS = "MptLayerMachine"


# ---------------------------------------------------------------------------
# COST004 — collective wire-byte closed forms (netsim / gpu)
# ---------------------------------------------------------------------------

#: ``N`` participants, ``MB``/``GB`` message/gradient bytes, ``BPP``
#: bytes per (src, dst) pair.
WIRE_FACTS: Dict[str, SymDim] = {
    "ring_wire_bytes": parse_dim("2*(N-1)*MB"),
    "all_to_all_wire_bytes": parse_dim("N*(N-1)*BPP"),
    "nccl_ring_wire_bytes": parse_dim("2*(N-1)*GB"),
}

#: (anchor definition) -> wire-byte helpers its module must define.
WIRE_PRESENCE = {
    "ring_allreduce": ("ring_wire_bytes", "all_to_all_wire_bytes"),
    "nccl_allreduce_time": ("nccl_ring_wire_bytes",),
}
