"""Config-invariant lint (``CFG001``–``CFG002``).

Every experiment sweep constructs config dataclasses from literals; an
out-of-range field or an inconsistent worker grid silently skews a whole
figure.  ``CFG001`` demands that every ``*Config`` dataclass validates
each numeric field in ``__post_init__`` (transitively through helper
properties).  ``CFG002`` checks literal worker grids: a collection of
``(num_groups, num_clusters)`` pairs must share one product (the paper's
``(16,16)/(4,64)/(1,256)`` all multiply to 256), and a literal
``GridConfig`` next to a literal ``workers=`` must match it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import Context, Rule, register

_NUMERIC_ANNOTATIONS = {"int", "float"}


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _numeric_fields(node: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign]]:
    fields = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(
            stmt.target, ast.Name
        ):
            continue
        annotation = stmt.annotation
        name: Optional[str] = None
        if isinstance(annotation, ast.Name):
            name = annotation.id
        elif isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            name = annotation.value
        if name in _NUMERIC_ANNOTATIONS:
            fields.append((stmt.target.id, stmt))
    return fields


def _self_attrs(func: ast.FunctionDef) -> Set[str]:
    attrs: Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            attrs.add(node.attr)
    return attrs


@register
class ConfigFieldValidation(Rule):
    id = "CFG001"
    name = "config-field-validation"
    description = (
        "A @dataclass whose name ends in 'Config' must define a "
        "__post_init__ that validates every int/float field (reading the "
        "field through a helper property/method counts)."
    )

    def check(self, ctx: Context) -> Iterator:
        for node in ctx.nodes:
            if not (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and _is_dataclass_decorated(node)
            ):
                continue
            fields = _numeric_fields(node)
            if not fields:
                continue
            methods: Dict[str, ast.FunctionDef] = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
            }
            post_init = methods.get("__post_init__")
            if post_init is None:
                for field_name, stmt in fields:
                    yield ctx.finding(
                        self,
                        stmt,
                        f"{node.name}.{field_name} is numeric but {node.name} "
                        "has no __post_init__ validator",
                    )
                continue
            # Transitive closure: __post_init__ may validate through
            # helper properties (e.g. steps_per_region reads levels).
            covered: Set[str] = set()
            frontier = _self_attrs(post_init)
            while frontier:
                attr = frontier.pop()
                if attr in covered:
                    continue
                covered.add(attr)
                helper = methods.get(attr)
                if helper is not None and helper.name != "__post_init__":
                    frontier |= _self_attrs(helper)
            for field_name, stmt in fields:
                if field_name not in covered:
                    yield ctx.finding(
                        self,
                        stmt,
                        f"{node.name}.{field_name} is numeric but "
                        "__post_init__ never reads it",
                    )


def _int_pair(node: ast.expr) -> Optional[Tuple[int, int]]:
    if (
        isinstance(node, (ast.Tuple, ast.List))
        and len(node.elts) == 2
        and all(
            isinstance(e, ast.Constant) and isinstance(e.value, int)
            and not isinstance(e.value, bool)
            for e in node.elts
        )
    ):
        return (node.elts[0].value, node.elts[1].value)  # type: ignore[union-attr]
    return None


def _grid_call_product(call: ast.Call) -> Optional[Tuple[int, int]]:
    """Literal (num_groups, num_clusters) of a GridConfig/GridLayout call."""
    if not (
        isinstance(call.func, ast.Name)
        and call.func.id in ("GridConfig", "GridLayout")
    ):
        return None
    values: Dict[str, int] = {}
    for position, arg in enumerate(call.args[:2]):
        if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
            values[("num_groups", "num_clusters")[position]] = arg.value
    for keyword in call.keywords:
        if (
            keyword.arg in ("num_groups", "num_clusters")
            and isinstance(keyword.value, ast.Constant)
            and isinstance(keyword.value.value, int)
        ):
            values[keyword.arg] = keyword.value.value
    if set(values) == {"num_groups", "num_clusters"}:
        return (values["num_groups"], values["num_clusters"])
    return None


@register
class GridProductInvariant(Rule):
    id = "CFG002"
    name = "grid-product-invariant"
    description = (
        "Literal worker grids must be consistent: every (num_groups, "
        "num_clusters) pair in a grid constant collection shares one "
        "product, and a literal GridConfig beside a literal workers= "
        "keyword multiplies out to it."
    )

    def check(self, ctx: Context) -> Iterator:
        # (a) literal collections of 2-int tuples bound to a grid-ish name.
        for node in ctx.nodes:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Name) and "grid" in target.id.lower()
            ):
                continue
            value = node.value
            if not isinstance(value, (ast.Tuple, ast.List)):
                continue
            pairs = [(_int_pair(e), e) for e in value.elts]
            literal_pairs = [(p, e) for p, e in pairs if p is not None]
            if len(literal_pairs) < 2 or len(literal_pairs) != len(value.elts):
                continue
            reference = literal_pairs[0][0]
            expected = reference[0] * reference[1]
            for (ng, nc), element in literal_pairs[1:]:
                if ng * nc != expected:
                    yield ctx.finding(
                        self,
                        element,
                        f"grid ({ng}, {nc}) gives {ng * nc} workers but "
                        f"'{target.id}' starts with {reference} = "
                        f"{expected} workers",
                    )
        # (b) a literal GridConfig and a literal workers= in one statement.
        # Only simple (non-compound) statements are scanned so a call is
        # never attributed to an enclosing block twice.
        simple = (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr,
                  ast.Return, ast.Raise, ast.Assert)
        for stmt in ctx.nodes:
            if not isinstance(stmt, simple):
                continue
            grids: List[Tuple[Tuple[int, int], ast.Call]] = []
            workers: Optional[int] = None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    pair = _grid_call_product(node)
                    if pair is not None:
                        grids.append((pair, node))
                    for keyword in node.keywords:
                        if (
                            keyword.arg == "workers"
                            and isinstance(keyword.value, ast.Constant)
                            and isinstance(keyword.value.value, int)
                        ):
                            workers = keyword.value.value
            if workers is None:
                continue
            for (ng, nc), call in grids:
                if ng * nc != workers:
                    yield ctx.finding(
                        self,
                        call,
                        f"GridConfig({ng}, {nc}) covers {ng * nc} workers but "
                        f"the same statement configures workers={workers}",
                    )
