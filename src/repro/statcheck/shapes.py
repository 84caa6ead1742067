"""The non-interpreter checks of the shape & partition family (``SHAPE``).

The family consumes the ``@shaped``/``@partitioned`` contracts of
:mod:`repro.contracts` *statically*: contracts are collected from every
file of the enclosing package (:mod:`.registry`, pure AST, no imports).
SHAPE002 and SHAPE003 are checks on the shapes that the abstract
interpreter shared with the COST family derives (:mod:`.interp`: call
sites, returns and unpacking against the contracts, and every
``np.tensordot``'s contracted axes).  This module holds the rest, run by
the same per-file pass:

``SHAPE001``
    Contract well-formedness: the spec parses and its entry count
    matches the function's positional signature.
``SHAPE004``
    Tile-geometry arithmetic: classes with ``m``/``r`` fields and the
    standard geometry properties are *executed* over a battery of small
    concrete sizes and re-derived from the paper's formulas
    (``T = m + r - 1``, ``tiles = ceil((H + 2p - r + 1) / m)``, …).
``SHAPE005``
    Partition contracts: pure ``@partitioned`` functions are executed
    over a battery of ``(domain, parts)`` grids — including the
    non-divisible ones dynamic clustering produces — and checked for
    disjointness and exact coverage.
``SHAPE006``
    Collective slice conservation: ``slice_bytes = total // n``-style
    splits silently drop the remainder unless the function computes
    ragged bounds; flagged wherever no remainder handling is visible.

Dims are compared by :func:`dims_equivalent`: structurally, or by
evaluating both sides over a deterministic battery of integer
assignments, so semantically equal ``ceildiv``/``floordiv`` spellings
never false-positive.
"""

from __future__ import annotations

import ast
import math
import re
from typing import Dict, Iterable, Iterator, Optional

from ..contracts import PartitionContractError, validate_partition
from .registry import _decorator_name
from .symdims import SymDim

_SAMPLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def dims_equivalent(a: SymDim, b: SymDim) -> bool:
    """Whether two dims agree on every sampled integer assignment.

    Structural equality short-circuits; otherwise both sides are
    evaluated over several deterministic assignments of small primes to
    their free symbols, so different spellings of the same quantity
    (``ceildiv(x, m)`` vs ``floordiv(x + m - 1, m)``) compare equal
    while genuinely different expressions are told apart.
    """
    if a == b:
        return True
    names = sorted(a.free_symbols() | b.free_symbols())
    for shift in range(4):
        env = {
            name: _SAMPLE_PRIMES[(i + shift) % len(_SAMPLE_PRIMES)] + shift
            for i, name in enumerate(names)
        }
        try:
            if a.evaluate(env) != b.evaluate(env):
                return False
        except ZeroDivisionError:
            continue
    return True


def run_checks(cp) -> None:
    """Append the SHAPE001/004/005/006 events of the pass ``cp`` (a
    ``ContractPass``)."""
    _check_specs(cp)
    _check_tile_geometry(cp)
    _check_partitions(cp)
    _check_slice_conservation(cp)


# ---- SHAPE001: contract well-formedness ------------------------------------
def _check_specs(cp) -> None:
    for info in cp.defs:
        if info.error is not None:
            cp.events.append(
                ("SHAPE001", info.decorator,
                 f"bad contract on {info.qualname}: {info.error}")
            )
            continue
        if info.contract is not None and not info.has_varargs:
            declared = len(info.contract.args)
            actual = len(info.params)
            if declared != actual:
                cp.events.append(
                    ("SHAPE001", info.decorator,
                     f"contract on {info.qualname} declares {declared} "
                     f"parameter entries but the signature has {actual} "
                     f"positional parameters")
                )
        if info.partition is not None:
            for param in (info.partition.domain, info.partition.parts):
                if param not in info.params:
                    cp.events.append(
                        ("SHAPE001", info.decorator,
                         f"@partitioned on {info.qualname} names unknown "
                         f"parameter {param!r}")
                    )


# ---- SHAPE004: tile-geometry arithmetic ----------------------------------
#: Geometry property names whose values the checker re-derives.
_GEOM_PROPS = (
    "tile", "out_height", "out_width", "tiles_high", "tiles_wide",
    "tiles_per_image", "padded_height", "padded_width",
)


def _check_tile_geometry(cp) -> None:
    for node in cp.nodes:
        if isinstance(node, ast.ClassDef):
            _check_geometry_class(cp, node)


def _check_geometry_class(cp, cls: ast.ClassDef) -> None:
    fields = {
        n.target.id
        for n in cls.body
        if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
    }
    if not {"m", "r"} <= fields:
        return
    props = {
        n.name: n
        for n in cls.body
        if isinstance(n, ast.FunctionDef) and n.name in _GEOM_PROPS
        and any(_decorator_name(d) == "property" for d in n.decorator_list)
    }
    if not props:
        return
    if not _class_is_pure(cls):
        return
    namespace = _exec_sandbox()
    try:
        exec(  # noqa: S102 — purity-gated geometry class, sandboxed ns
            compile(ast.Module(body=[cls], type_ignores=[]), cp.path,
                    "exec"),
            namespace,
        )
        built = namespace[cls.name]
    except Exception:
        return
    failures: Dict[str, str] = {}
    for height in (4, 5, 6, 7, 12, 14, 31, 32):
        for pad in (0, 1, 2):
            for m in (1, 2, 4):
                for r in (1, 3, 5):
                    kwargs = {"m": m, "r": r}
                    if "height" in fields:
                        kwargs["height"] = height
                    if "width" in fields:
                        kwargs["width"] = height + 1
                    if "pad" in fields:
                        kwargs["pad"] = pad
                    elif pad:
                        continue
                    try:
                        inst = built(**kwargs)
                    except Exception:
                        continue
                    expected = _expected_geometry(
                        height, height + 1,
                        pad if "pad" in fields else 0, m, r,
                    )
                    for prop in props:
                        if prop in failures:
                            continue
                        try:
                            actual = getattr(inst, prop)
                        except Exception:
                            continue
                        if actual != expected[prop]:
                            failures[prop] = (
                                f"{cls.name}.{prop} = {actual} at "
                                f"{kwargs}, but the paper's formula "
                                f"gives {expected[prop]}"
                            )
    for prop, message in failures.items():
        cp.events.append(("SHAPE004", props[prop], message))


# ---- SHAPE005: partition disjointness + coverage -------------------------
_PARTITION_BATTERY = (
    (16, 1), (16, 4), (16, 16), (36, 16), (17, 4), (25, 4), (5, 8),
    (1, 1), (12, 5),
)


def _check_partitions(cp) -> None:
    for info in cp.defs:
        if info.partition is None or info.error is not None:
            continue
        if info.partition.domain not in info.params or \
                info.partition.parts not in info.params:
            continue  # SHAPE001 already reported
        fn = info.node
        impure = _function_impurity(fn)
        if impure is not None:
            cp.events.append(
                ("SHAPE005", fn,
                 f"cannot statically verify @partitioned "
                 f"{info.qualname}: non-whitelisted name {impure!r}; "
                 f"verify by hand and add a pragma with justification")
            )
            continue
        clean = _strip_decorators(fn)
        namespace = _exec_sandbox()
        try:
            exec(  # noqa: S102 — purity-gated partition fn, sandboxed ns
                compile(
                    ast.fix_missing_locations(
                        ast.Module(body=[clean], type_ignores=[])
                    ),
                    cp.path, "exec",
                ),
                namespace,
            )
            runner = namespace[fn.name]
        except Exception:
            continue
        for domain, parts in _PARTITION_BATTERY:
            kwargs = {
                info.partition.domain: domain,
                info.partition.parts: parts,
            }
            try:
                result = runner(**kwargs)
            except Exception:
                continue  # e.g. the fn validates parts <= domain
            try:
                validate_partition(
                    result, domain, parts, info.qualname
                )
            except PartitionContractError as exc:
                cp.events.append(
                    ("SHAPE005", fn,
                     f"partition contract violated for "
                     f"({info.partition.domain}={domain}, "
                     f"{info.partition.parts}={parts}): {exc}")
                )
                break


# ---- SHAPE006: collective slice conservation -----------------------------
_SLICE_TARGET = re.compile(r"slice|chunk|shard|part")
_SIZE_TARGET = re.compile(r"bytes|elems|elements|size|count")


def _split_name(stmt: ast.AST) -> Optional[str]:
    """The slice-size name ``stmt`` assigns a ``total // n`` split to."""
    target = stmt.targets[0] if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 else None
    name = target.id if isinstance(target, ast.Name) else ""
    if _SLICE_TARGET.search(name) and _SIZE_TARGET.search(name) and _find_floordiv_split(stmt.value):
        return name
    return None


def _check_slice_conservation(cp) -> None:
    # Each split is judged once, in its innermost function, against that
    # function's own remainder handling; a file with no split is done.
    if not any(_split_name(node) for node in cp.nodes):
        return
    for fn in cp.nodes:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_own_nodes(fn))
        if _has_remainder_handling(own):
            continue
        for stmt in own:
            name = _split_name(stmt)
            if name is not None:
                cp.events.append(
                    ("SHAPE006", stmt,
                     f"{name} = {ast.unparse(stmt.value)} drops the "
                     f"division remainder: the slices only sum back to the "
                     f"total when the count divides it exactly; use ragged "
                     f"bounds (round(i * total / n)) or account for the "
                     f"remainder explicitly")
                )


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``fn``'s body, nested function definitions excluded."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _expected_geometry(
    height: int, width: int, pad: int, m: int, r: int
) -> Dict[str, int]:
    """Independent derivation of every geometry property from the paper's
    formulas (Section II-B / III-A)."""
    tile = m + r - 1
    out_h = height + 2 * pad - r + 1
    out_w = width + 2 * pad - r + 1
    tiles_high = math.ceil(out_h / m)
    tiles_wide = math.ceil(out_w / m)
    return {
        "tile": tile,
        "out_height": out_h,
        "out_width": out_w,
        "tiles_high": tiles_high,
        "tiles_wide": tiles_wide,
        "tiles_per_image": tiles_high * tiles_wide,
        "padded_height": (tiles_high - 1) * m + tile,
        "padded_width": (tiles_wide - 1) * m + tile,
    }


#: Names an exec'd geometry class / partition function may reference.
_PURE_NAMES = frozenset(
    {
        "self", "math", "np", "numpy", "dataclass", "field", "property",
        "cached_property", "range", "len", "list", "tuple", "sorted",
        "min", "max", "sum", "abs", "enumerate", "zip", "divmod", "round",
        "int", "float", "bool", "set", "frozenset", "ValueError",
        "TypeError", "True", "False", "None",
    }
)


def _collect_free_names(node: ast.AST) -> set:
    """Names loaded in ``node`` that are not bound inside it."""
    bound = set()
    loaded = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            if isinstance(child.ctx, ast.Load):
                loaded.add(child.id)
            else:
                bound.add(child.id)
        elif isinstance(child, ast.arg):
            bound.add(child.arg)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
            bound.add(child.name)
        elif isinstance(child, ast.comprehension):
            for target in ast.walk(child.target):
                if isinstance(target, ast.Name):
                    bound.add(target.id)
    return loaded - bound


def _class_is_pure(cls: ast.ClassDef) -> bool:
    return _collect_free_names(cls) <= _PURE_NAMES


def _strip_decorators(fn: ast.FunctionDef) -> ast.FunctionDef:
    import copy

    clean = copy.deepcopy(fn)
    clean.decorator_list = []
    clean.returns = None
    return clean


def _function_impurity(fn: ast.FunctionDef) -> Optional[str]:
    """The first non-whitelisted free name of ``fn``, or ``None`` if pure."""
    extra = sorted(_collect_free_names(_strip_decorators(fn)) - _PURE_NAMES)
    return extra[0] if extra else None


def _exec_sandbox() -> Dict[str, object]:
    import dataclasses
    import functools

    namespace: Dict[str, object] = {
        "math": math,
        "dataclass": dataclasses.dataclass,
        "field": dataclasses.field,
        "property": property,
        "cached_property": functools.cached_property,
    }
    try:  # numpy is optional for exec'd partition helpers (np.arange)
        import numpy

        namespace["np"] = namespace["numpy"] = numpy
    except ImportError:
        pass
    return namespace


def _has_remainder_handling(nodes: Iterable[ast.AST]) -> bool:
    """Whether a function's nodes visibly account for a division
    remainder by computing ragged ``round(...)`` bounds.  (A bare ``%``
    does not count — ring-position arithmetic like ``(pos + 1) % n``
    says nothing about slice-size conservation.)"""
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "round"
        for node in nodes
    )


def _find_floordiv_split(expr: ast.expr) -> Optional[ast.BinOp]:
    """A ``total // n`` at the top of ``expr`` (possibly inside
    ``max(1, ...)``/``min(...)``), where the numerator looks like a
    message/total size."""
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.id in ("max", "min"):
        for arg in expr.args:
            found = _find_floordiv_split(arg)
            if found is not None:
                return found
        return None
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.FloorDiv):
        numerator = ast.unparse(expr.left)
        if re.search(r"bytes|elems|elements|size|total|message", numerator):
            return expr
    return None
