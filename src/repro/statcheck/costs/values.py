"""Abstract values flowing through the shape and cost interpreter.

The domain is deliberately small: everything the annotated kernels
manipulate is either a symbolic scalar (:class:`~..symdims.SymDim`), an
array with symbolic dimensions (:class:`Arr`), one of three structured
facts (:class:`Geom` for :class:`repro.winograd.tiling.TileGrid`,
:class:`Xform` for :class:`repro.winograd.cook_toom.WinogradTransform`,
:class:`Obj` for other attribute bags), a list summary (:class:`Lst`),
a tuple (:class:`Tup`) — or ``None``, the unknown value.  Unknown is a
legitimate state (tags, dtypes, simulator handles); derivation only
fails when an unknown value reaches a construct whose cost depends on
it (a loop bound, an array extent).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..symdims import SymDim

ZERO = SymDim.const(0)
ONE = SymDim.const(1)


class Fail(Exception):
    """Cost derivation left the supported fragment (with a reason)."""


def bare_sym(expr: Optional[SymDim]) -> Optional[str]:
    """The symbol name when ``expr`` is exactly one bare symbol."""
    if expr is None:
        return None
    terms = expr.terms
    if len(terms) != 1:
        return None
    mono, coeff = terms[0]
    if coeff != 1 or len(mono) != 1:
        return None
    atom, exp = mono[0]
    if isinstance(atom, str) and exp == 1:
        return atom
    return None


class Arr:
    """An ndarray with symbolic dims.

    ``lead`` is the symbolic *product* of un-enumerated leading axes
    (contract ellipsis); ``dims`` are the explicit (trailing) axes.
    """

    __slots__ = ("dims", "lead")

    def __init__(
        self,
        dims: Tuple[Optional[SymDim], ...],
        lead: Optional[SymDim] = None,
    ) -> None:
        self.dims = tuple(dims)
        self.lead = lead

    def size(self) -> Optional[SymDim]:
        total = self.lead if self.lead is not None else ONE
        for d in self.dims:
            if d is None:
                return None
            total = total * d
        return total

    def __repr__(self) -> str:
        inner = ", ".join("?" if d is None else str(d) for d in self.dims)
        if self.lead is not None:
            inner = f"...{self.lead}, {inner}"
        return f"Arr({inner})"


class Geom:
    """A :class:`TileGrid` fact: symbolic geometry fields plus the
    derived properties the tiling kernels read."""

    __slots__ = ("height", "width", "pad", "m", "r")

    def __init__(self, height, width, pad, m, r) -> None:
        self.height = height
        self.width = width
        self.pad = pad
        self.m = m
        self.r = r

    def attr(self, name: str) -> Optional[SymDim]:
        base = {
            "height": self.height, "width": self.width, "pad": self.pad,
            "m": self.m, "r": self.r,
        }
        if name in base:
            return base[name]
        if any(v is None for v in base.values()):
            return None
        from ..symdims import ceildiv

        tile = self.m + self.r - 1
        out_h = self.height + 2 * self.pad - self.r + 1
        out_w = self.width + 2 * self.pad - self.r + 1
        tiles_h = ceildiv(out_h, self.m)
        tiles_w = ceildiv(out_w, self.m)
        derived = {
            "tile": tile,
            "out_height": out_h,
            "out_width": out_w,
            "tiles_high": tiles_h,
            "tiles_wide": tiles_w,
            "tiles_per_image": tiles_h * tiles_w,
            "padded_height": (tiles_h - 1) * self.m + tile,
            "padded_width": (tiles_w - 1) * self.m + tile,
        }
        return derived.get(name)

    #: Symbols a ``_`` contract entry holding a Geom can bind.
    BINDINGS = ("height", "width", "pad", "m", "r")
    BIND_SYMS = ("H", "W", "P", "M", "R")


class Xform:
    """A :class:`WinogradTransform` fact (``m``/``r`` symbolic)."""

    __slots__ = ("m", "r")

    def __init__(self, m, r) -> None:
        self.m = m
        self.r = r

    def attr(self, name: str):
        if name == "m":
            return self.m
        if name == "r":
            return self.r
        if self.m is None or self.r is None:
            return None
        tile = self.m + self.r - 1
        if name == "tile":
            return tile
        matrices = {
            "B": (tile, tile), "G": (tile, self.r), "A": (tile, self.m),
            "B_exact": (tile, tile), "G_exact": (tile, self.r),
            "A_exact": (tile, self.m),
        }
        if name in matrices:
            return Arr(matrices[name])
        return None


class Obj:
    """An attribute bag (class-instance fact or opaque object)."""

    __slots__ = ("cls", "attrs")

    def __init__(self, cls: Optional[str], attrs: Dict[str, object]) -> None:
        self.cls = cls
        self.attrs = attrs

    def attr(self, name: str):
        return self.attrs.get(name)


class Lst:
    """A list summary: symbolic length and per-component element sums.

    ``sums[i]`` is the symbolic sum of component ``i`` over the whole
    list (``None`` = unknown); a list of plain numbers has one
    component.  Produced by ``@cost(ret_len=..., ret_sum=...)``
    summaries of exec-verified helpers.
    """

    __slots__ = ("length", "sums")

    def __init__(self, length, sums) -> None:
        self.length = length
        self.sums = tuple(sums)


class Tup:
    """A tuple of abstract values."""

    __slots__ = ("items",)

    def __init__(self, items) -> None:
        self.items = tuple(items)


class Marker:
    """Named opaque markers (numpy module, bound callables)."""

    __slots__ = ("kind", "name", "recv")

    def __init__(self, kind: str, name: str = "", recv=None) -> None:
        self.kind = kind
        self.name = name
        self.recv = recv


#: The ``np``/``numpy`` module object.
NPMOD = Marker("npmod")

#: Numpy attribute chains that are still module-like, not functions.
NP_SUBMODULES = frozenset({"lib", "stride_tricks", "linalg", "random", "fft"})


def broadcast(a: Arr, b: Arr) -> Arr:
    """Elementwise result shape; trailing-aligned, constants-1 dropped,
    unknowns resolved toward the known side.  Two known dims are
    assumed equal: the operands' shapes come from contracts, which the
    call-site and return checks hold to account."""
    da, db = list(a.dims), list(b.dims)
    if len(da) < len(db):
        da, db = db, da
    out = list(da)
    for i in range(1, len(db) + 1):
        x, y = da[-i], db[-i]
        if x is None:
            out[-i] = y
        elif y is None or y == ONE:
            out[-i] = x
        elif x == ONE:
            out[-i] = y
        else:
            out[-i] = x  # assume equal (contract-checked elsewhere)
    lead = a.lead if a.lead is not None else b.lead
    return Arr(tuple(out), lead=lead)
