"""The contract registry behind the SHAPE and COST analyses.

The shared abstract interpreter (:mod:`.interp`) resolves call sites
against the contracts declared across the *whole* enclosing package.
One :class:`ContractDef` per decorator carries the parsed
``@shaped``/``@partitioned`` contract *and* the function's ``@cost``
annotation; the package index (:mod:`.index`) collects them once per
file and builds the resolution table once per package.

Nothing here imports analyzed code — collection is pure AST.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..contracts import (
    ContractSyntaxError,
    CostContract,
    PartitionContract,
    ShapeContract,
    TILE_GEOMETRY,
    parse_cost,
    parse_spec,
)


@dataclass
class ContractDef:
    """One ``@shaped``/``@partitioned``/``@cost`` definition in a file."""

    name: str
    qualname: str
    params: Tuple[str, ...]  # positional params, ``self``/``cls`` dropped
    node: ast.AST  # the FunctionDef (only meaningful for the current file)
    decorator: ast.AST
    contract: Optional[ShapeContract] = None
    partition: Optional[PartitionContract] = None
    error: Optional[str] = None
    has_varargs: bool = False
    cost: Optional[CostContract] = None
    cost_error: Optional[str] = None
    cost_decorator: Optional[ast.AST] = None
    decorators: Tuple[str, ...] = ()


def _decorator_name(dec: ast.expr) -> Optional[str]:
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _positional_param_names(fn: ast.FunctionDef) -> Tuple[Tuple[str, ...], bool]:
    names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    has_varargs = fn.args.vararg is not None or fn.args.kwarg is not None
    return tuple(names), has_varargs


#: Names resolvable inside ``@cost`` keyword values (string constants).
_COST_STR_CONSTANTS = {"TILE_GEOMETRY": TILE_GEOMETRY}


def _literal_str(node: ast.expr) -> Optional[str]:
    """A string-valued decorator argument: literal, a known constant
    (``TILE_GEOMETRY``), or ``+``-concatenations of those."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return _COST_STR_CONSTANTS.get(node.id)
    if isinstance(node, ast.Attribute):
        return _COST_STR_CONSTANTS.get(node.attr)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _literal_str(node.left)
        right = _literal_str(node.right)
        if left is not None and right is not None:
            return left + right
    return None


def _parse_cost_decorator(dec: ast.expr) -> Tuple[Optional[CostContract], Optional[str]]:
    """Statically evaluate an ``@cost(...)`` decorator's keywords."""
    if not isinstance(dec, ast.Call):
        return None, "@cost needs keyword arguments"
    if dec.args:
        return None, "@cost takes keyword arguments only"
    kwargs: Dict[str, object] = {}
    for kw in dec.keywords:
        if kw.arg is None:
            return None, "@cost does not accept **kwargs"
        if kw.arg == "assume":
            if not (isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, bool)):
                return None, "@cost assume= needs a literal bool"
            kwargs["assume"] = kw.value.value
            continue
        text = _literal_str(kw.value)
        if text is None:
            return None, (
                f"@cost {kw.arg}= needs a literal string "
                f"(or TILE_GEOMETRY [+ literal])"
            )
        kwargs[kw.arg] = text
    try:
        return parse_cost(**kwargs), None
    except (ContractSyntaxError, TypeError) as exc:
        return None, str(exc)


def collect_contracts(tree: ast.Module) -> List[ContractDef]:
    """Every contracted function definition in a parsed module."""
    defs: List[ContractDef] = []

    def visit(node: ast.AST, class_name: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _collect_one(child, class_name)
                visit(child, None)
            elif isinstance(child, (ast.If, ast.Try)):
                visit(child, class_name)

    def _collect_one(fn: ast.FunctionDef, class_name: Optional[str]) -> None:
        dec_names = tuple(
            name for name in map(_decorator_name, fn.decorator_list)
            if name is not None
        )
        cost_contract: Optional[CostContract] = None
        cost_error: Optional[str] = None
        cost_dec: Optional[ast.AST] = None
        for dec in fn.decorator_list:
            if _decorator_name(dec) == "cost":
                cost_dec = dec
                cost_contract, cost_error = _parse_cost_decorator(dec)
                break
        emitted = False
        for dec in fn.decorator_list:
            kind = _decorator_name(dec)
            if kind not in ("shaped", "partitioned"):
                continue
            params, has_varargs = _positional_param_names(fn)
            qual = f"{class_name}.{fn.name}" if class_name else fn.name
            info = ContractDef(
                name=fn.name, qualname=qual, params=params, node=fn,
                decorator=dec, has_varargs=has_varargs,
                cost=cost_contract, cost_error=cost_error,
                cost_decorator=cost_dec, decorators=dec_names,
            )
            if kind == "shaped":
                spec = None
                if isinstance(dec, ast.Call) and dec.args and isinstance(
                    dec.args[0], ast.Constant
                ) and isinstance(dec.args[0].value, str):
                    spec = dec.args[0].value
                if spec is None:
                    info.error = "@shaped needs a literal string spec"
                else:
                    try:
                        info.contract = parse_spec(spec)
                    except ContractSyntaxError as exc:
                        info.error = str(exc)
            else:
                kw = {
                    k.arg: k.value.value
                    for k in (dec.keywords if isinstance(dec, ast.Call) else [])
                    if k.arg and isinstance(k.value, ast.Constant)
                }
                if "domain" not in kw or "parts" not in kw:
                    info.error = "@partitioned needs domain=/parts= literals"
                else:
                    info.partition = PartitionContract(
                        domain=kw["domain"], parts=kw["parts"]
                    )
            defs.append(info)
            emitted = True
        if cost_dec is not None and not emitted:
            # @cost without @shaped/@partitioned: emitted so the COST
            # rules can report it (the cost interpreter needs a shape
            # contract to bind symbols), but invisible to call resolution.
            params, has_varargs = _positional_param_names(fn)
            qual = f"{class_name}.{fn.name}" if class_name else fn.name
            defs.append(ContractDef(
                name=fn.name, qualname=qual, params=params, node=fn,
                decorator=cost_dec, has_varargs=has_varargs,
                cost=cost_contract, cost_error=cost_error,
                cost_decorator=cost_dec, decorators=dec_names,
            ))

    visit(tree, None)
    return defs


# ---------------------------------------------------------------------------
# cross-file contract registry
# ---------------------------------------------------------------------------

#: Marker for a bare name defined with >1 distinct contract.
AMBIGUOUS = object()


def build_resolution(defs: Iterable[ContractDef]) -> Dict[str, object]:
    """Map callable names to their (unambiguous) contract definitions.

    Both the bare function name and ``Class.method`` are registered; a
    bare name carrying two *different* specs becomes :data:`AMBIGUOUS`
    and is skipped at call sites.
    """
    table: Dict[str, object] = {}
    for info in defs:
        if info.error is not None or (
            info.contract is None and info.partition is None
        ):
            continue
        for key in dict.fromkeys((info.name, info.qualname)):
            prior = table.get(key)
            if prior is None:
                table[key] = info
            elif prior is not AMBIGUOUS and not _same_contract(prior, info):
                table[key] = AMBIGUOUS
    return table


def _same_contract(a: ContractDef, b: ContractDef) -> bool:
    spec_a = a.contract.spec if a.contract else None
    spec_b = b.contract.spec if b.contract else None
    return spec_a == spec_b and a.partition == b.partition and a.cost == b.cost
