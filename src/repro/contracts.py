"""Shape contracts for the Winograd pipeline.

:func:`shaped` declares an array-shape contract on a function::

    @shaped("(B,I,H,W), (J,I,T,T), _, P -> (B,J,H+2*P-R+1,W+2*P-R+1), _")
    def winograd_forward(x, weights_wd, transform, pad=0): ...

The spec lists one entry per parameter (``self``/``cls`` is skipped
automatically) and one entry per returned value:

* ``(A,B,C)``    — an array (or sequence) of that shape; dims are
  symbolic expressions in the :mod:`repro.statcheck.symdims` algebra
  (``H+2*P-R+1``, ``ceildiv(H-R+1, M)``, …), ``_`` is a wildcard dim and
  a leading ``...`` matches any leading axes.
* ``N``          — a scalar (int) value bound to symbol/expression ``N``.
* ``_``          — unconstrained (non-array parameters, opaque returns).

Contracts are **zero-cost by default**: the decorator only attaches the
parsed contract as ``__shape_contract__`` and returns the function
unchanged.  The contract is consumed *statically* by statcheck's
abstract interpreter, ``repro.statcheck.interp`` (rule families
``SHAPE001``–``SHAPE006`` and ``COST001``–``COST005``).  Set
``REPRO_CHECK_SHAPES=1`` in the environment **before import** to
additionally wrap every contracted function with a runtime checker that
unifies actual shapes against the spec on each call and raises
:class:`ShapeContractError` on mismatch.

:func:`partitioned` declares that a function returns a partition — a
sequence of ``parts`` index groups that are pairwise disjoint and
exactly cover ``range(domain)`` — which the static pass verifies over a
battery of small concrete models (``SHAPE005``).
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .statcheck.symdims import SymDim, SymDimError, parse_dim


class ContractSyntaxError(ValueError):
    """A malformed ``@shaped``/``@partitioned`` specification."""


class ShapeContractError(ValueError):
    """A runtime shape does not satisfy the declared contract."""


class PartitionContractError(ShapeContractError):
    """A runtime partition is not disjoint/covering."""


@dataclass(frozen=True)
class ArgSpec:
    """One parameter or return slot of a contract."""

    kind: str  # "skip" | "array" | "scalar"
    dims: Tuple[Optional[SymDim], ...] = ()
    ellipsis: bool = False
    expr: Optional[SymDim] = None

    def __str__(self) -> str:
        if self.kind == "skip":
            return "_"
        if self.kind == "scalar":
            return str(self.expr)
        inner = ["..."] if self.ellipsis else []
        inner += ["_" if d is None else str(d) for d in self.dims]
        return f"({', '.join(inner)})"


@dataclass(frozen=True)
class ShapeContract:
    """A parsed ``@shaped`` specification."""

    spec: str
    args: Tuple[ArgSpec, ...]
    returns: Tuple[ArgSpec, ...]


@dataclass(frozen=True)
class PartitionContract:
    """A parsed ``@partitioned`` specification."""

    domain: str
    parts: str


def _split_top_level(text: str) -> List[str]:
    """Split on commas that are not nested inside parentheses."""
    items, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ContractSyntaxError(f"unbalanced parentheses in {text!r}")
        elif ch == "," and depth == 0:
            items.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ContractSyntaxError(f"unbalanced parentheses in {text!r}")
    items.append(text[start:])
    return [item.strip() for item in items]


def _parse_entry(text: str, spec: str) -> ArgSpec:
    if text == "_":
        return ArgSpec(kind="skip")
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].strip()
        parts = _split_top_level(inner) if inner else []
        ellipsis = False
        dims: List[Optional[SymDim]] = []
        for i, part in enumerate(parts):
            if part == "...":
                if i != 0:
                    raise ContractSyntaxError(
                        f"'...' must lead a shape tuple in {spec!r}"
                    )
                ellipsis = True
            elif part == "_":
                dims.append(None)
            else:
                try:
                    dims.append(parse_dim(part))
                except SymDimError as exc:
                    raise ContractSyntaxError(
                        f"bad dimension {part!r} in {spec!r}: {exc}"
                    ) from exc
        return ArgSpec(kind="array", dims=tuple(dims), ellipsis=ellipsis)
    try:
        return ArgSpec(kind="scalar", expr=parse_dim(text))
    except SymDimError as exc:
        raise ContractSyntaxError(f"bad entry {text!r} in {spec!r}: {exc}") from exc


def parse_spec(spec: str) -> ShapeContract:
    """Parse a full ``"args -> returns"`` contract specification."""
    if spec.count("->") != 1:
        raise ContractSyntaxError(f"contract needs exactly one '->': {spec!r}")
    left, right = spec.split("->")
    left, right = left.strip(), right.strip()
    args = tuple(_parse_entry(t, spec) for t in _split_top_level(left)) if left else ()
    if not right:
        raise ContractSyntaxError(f"contract has an empty return side: {spec!r}")
    returns = tuple(_parse_entry(t, spec) for t in _split_top_level(right))
    return ShapeContract(spec=spec, args=args, returns=returns)


# ---- cost contracts ----------------------------------------------------------

#: Standard Winograd tile-geometry let-bindings, shared by most ``@cost``
#: ``where=`` clauses.  Symbols follow the repo-wide contract convention:
#: ``H``/``W`` input height/width, ``P`` padding, ``M`` output-tile size,
#: ``R`` kernel size.  Bindings are sequential: later entries may use
#: earlier names.
TILE_GEOMETRY = (
    "T=M+R-1; OH=H+2*P-R+1; OW=W+2*P-R+1; "
    "TH=ceildiv(OH, M); TW=ceildiv(OW, M); "
    "PH=(TH-1)*M+T; PW=(TW-1)*M+T"
)


@dataclass(frozen=True)
class CostContract:
    """A parsed ``@cost`` annotation.

    ``flops``/``mem`` default to zero when not declared (and the static
    checker verifies the derived quantity *is* zero).  ``ret`` declares
    the value of a scalar-returning function (traffic helpers); for
    list-returning helpers ``ret_len``/``ret_sum`` summarize the length
    and per-component element sums instead and are verified by executing
    the (pure) function over a battery of small inputs.  ``where`` is a
    sequential let-chain (``"T=M+R-1; OH=H+2*P-R+1"``) closing derived
    symbols over the function's contract symbols.  ``assume=True`` marks
    the summary as trusted (escape hatch): nothing is derived, callers
    substitute the declared polynomials as-is.
    """

    flops: Optional[SymDim] = None
    mem: Optional[SymDim] = None
    ret: Optional[SymDim] = None
    ret_sum: Optional[Tuple[Optional[SymDim], ...]] = None
    ret_len: Optional[SymDim] = None
    where: Tuple[Tuple[str, SymDim], ...] = ()
    assume: bool = False

    def where_env(self) -> Dict[str, SymDim]:
        """The let-chain closed into one substitution map."""
        env: Dict[str, SymDim] = {}
        for name, expr in self.where:
            env[name] = expr.subs(env)
        return env

    def closed(self, expr: SymDim) -> SymDim:
        """``expr`` with every ``where`` name replaced by its binding."""
        return expr.subs(self.where_env())

    def exec_only(self) -> bool:
        """Whether the contract is a list summary (``ret_len``/``ret_sum``)
        with no polynomial to derive — verified by execution instead."""
        return (self.ret_sum is not None or self.ret_len is not None) and (
            self.flops is None and self.mem is None and self.ret is None
        )


def _parse_cost_dim(text: str, slot: str) -> SymDim:
    try:
        return parse_dim(text)
    except SymDimError as exc:
        raise ContractSyntaxError(f"bad @cost {slot}={text!r}: {exc}") from exc


def parse_cost(
    flops: Optional[str] = None,
    mem: Optional[str] = None,
    ret: Optional[str] = None,
    ret_sum: Optional[str] = None,
    ret_len: Optional[str] = None,
    where: Optional[str] = None,
    assume: bool = False,
) -> CostContract:
    """Parse the keyword form of a ``@cost`` annotation."""
    parsed_where: List[Tuple[str, SymDim]] = []
    if where:
        for binding in where.split(";"):
            binding = binding.strip()
            if not binding:
                continue
            name, eq, expr = binding.partition("=")
            name = name.strip()
            if not eq or not name.isidentifier():
                raise ContractSyntaxError(
                    f"bad @cost where binding {binding!r}: need NAME=expr"
                )
            parsed_where.append((name, _parse_cost_dim(expr, f"where:{name}")))
    sums: Optional[Tuple[Optional[SymDim], ...]] = None
    if ret_sum is not None:
        sums = tuple(
            None if part.strip() == "_" else _parse_cost_dim(part, "ret_sum")
            for part in ret_sum.split(",")
        )
    return CostContract(
        flops=None if flops is None else _parse_cost_dim(flops, "flops"),
        mem=None if mem is None else _parse_cost_dim(mem, "mem"),
        ret=None if ret is None else _parse_cost_dim(ret, "ret"),
        ret_sum=sums,
        ret_len=None if ret_len is None else _parse_cost_dim(ret_len, "ret_len"),
        where=tuple(parsed_where),
        assume=assume,
    )


def cost(
    flops: Optional[str] = None,
    mem: Optional[str] = None,
    ret: Optional[str] = None,
    ret_sum: Optional[str] = None,
    ret_len: Optional[str] = None,
    where: Optional[str] = None,
    assume: bool = False,
) -> Callable:
    """Declare the symbolic cost of a kernel (see :class:`CostContract`).

    Zero-cost: the parsed contract is attached as ``__cost_contract__``
    and the function is returned unchanged.  The ``repro.statcheck``
    ``COST`` rule family derives each annotated function's actual cost
    polynomial from its AST and checks it against this declaration.
    Quantities: ``flops`` counts floating-point operations (2 per MAC),
    ``mem`` counts bytes materialized (4 bytes/element, fp32 model).
    """
    contract = parse_cost(
        flops=flops, mem=mem, ret=ret, ret_sum=ret_sum, ret_len=ret_len,
        where=where, assume=assume,
    )

    def decorate(fn: Callable) -> Callable:
        fn.__cost_contract__ = contract
        return fn

    return decorate


def _runtime_enabled() -> bool:
    return os.environ.get("REPRO_CHECK_SHAPES", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


#: Whether contracted functions are wrapped with runtime checkers.
#: Evaluated once at import so the disabled path costs nothing per call.
RUNTIME_CHECKS = _runtime_enabled()


def shaped(spec: str) -> Callable:
    """Declare an array-shape contract (see module docstring)."""
    contract = parse_spec(spec)

    def decorate(fn: Callable) -> Callable:
        fn.__shape_contract__ = contract
        if not RUNTIME_CHECKS:
            return fn
        return checked(fn, contract)

    return decorate


def partitioned(domain: str, parts: str) -> Callable:
    """Declare a disjoint-and-covering partition contract.

    ``domain``/``parts`` name integer parameters of the decorated
    function; the result must be a sequence of ``parts`` groups whose
    union is exactly ``range(domain)`` with no element owned twice.
    """
    contract = PartitionContract(domain=domain, parts=parts)

    def decorate(fn: Callable) -> Callable:
        fn.__partition_contract__ = contract
        names = set(inspect.signature(fn).parameters)
        for param in (domain, parts):
            if param not in names:
                raise ContractSyntaxError(
                    f"@partitioned names unknown parameter {param!r} of "
                    f"{fn.__qualname__}"
                )
        if not RUNTIME_CHECKS:
            return fn
        return checked_partition(fn, contract)

    return decorate


# ---- runtime checking --------------------------------------------------------


def _positional_params(fn: Callable) -> List[str]:
    sig = inspect.signature(fn)
    names = [
        p.name
        for p in sig.parameters.values()
        if p.kind
        in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    ]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def _value_shape(value: object) -> Optional[Tuple[int, ...]]:
    shape = getattr(value, "shape", None)
    if shape is not None:
        return tuple(int(d) for d in shape)
    if isinstance(value, (list, tuple)):
        return (len(value),)
    return None


def _unify_dim(
    dim: Optional[SymDim], actual: int, env: Dict[str, int], where: str
) -> None:
    if dim is None:
        return
    reduced = dim.subs(env)
    value = reduced.as_const()
    if value is not None:
        if value != actual:
            raise ShapeContractError(f"{where}: expected {dim} = {value}, got {actual}")
        return
    free = reduced.free_symbols()
    if len(free) != 1:
        return  # under-determined: cannot bind yet
    (name,) = free
    linear = reduced.linear_in(name)
    if linear is None:
        return
    coeff, offset = linear
    offset_value = offset.as_const()
    if offset_value is None:
        return
    solved = (Fraction(actual) - offset_value) / coeff
    if solved.denominator != 1 or solved < 0:
        raise ShapeContractError(
            f"{where}: dim {actual} does not satisfy {dim} for integer {name}"
        )
    env[name] = int(solved)


def _unify_entry(
    entry: ArgSpec, value: object, env: Dict[str, int], where: str
) -> None:
    if entry.kind == "skip":
        return
    if entry.kind == "scalar":
        if isinstance(value, bool) or not isinstance(value, int):
            return
        _unify_dim(entry.expr, value, env, where)
        return
    shape = _value_shape(value)
    if shape is None:
        raise ShapeContractError(
            f"{where}: expected an array of shape {entry}, got {type(value).__name__}"
        )
    if entry.ellipsis:
        if len(shape) < len(entry.dims):
            raise ShapeContractError(
                f"{where}: rank {len(shape)} < {len(entry.dims)} trailing dims "
                f"of {entry}"
            )
        shape = shape[len(shape) - len(entry.dims):]
    elif len(shape) != len(entry.dims):
        raise ShapeContractError(
            f"{where}: rank {len(shape)} != contract rank {len(entry.dims)} "
            f"({entry})"
        )
    for i, (dim, actual) in enumerate(zip(entry.dims, shape)):
        _unify_dim(dim, actual, env, f"{where}[dim {i}]")


def checked(fn: Callable, contract: Optional[ShapeContract] = None) -> Callable:
    """Wrap ``fn`` with per-call runtime contract checking (used by the
    decorator when ``REPRO_CHECK_SHAPES=1``, and directly by tests)."""
    import functools

    if contract is None:
        contract = fn.__shape_contract__
    param_names = _positional_params(fn)
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            return fn(*args, **kwargs)  # let the call site raise naturally
        env: Dict[str, int] = {}
        values = bound.arguments
        for entry, name in zip(contract.args, param_names):
            if name in values:
                _unify_entry(entry, values[name], env, f"{fn.__qualname__}({name})")
        result = fn(*args, **kwargs)
        returns = contract.returns
        if len(returns) == 1:
            _unify_entry(returns[0], result, env, f"{fn.__qualname__} return")
        else:
            if not isinstance(result, tuple) or len(result) != len(returns):
                raise ShapeContractError(
                    f"{fn.__qualname__} return: contract declares "
                    f"{len(returns)} values, got "
                    f"{len(result) if isinstance(result, tuple) else type(result).__name__}"
                )
            for i, (entry, value) in enumerate(zip(returns, result)):
                _unify_entry(entry, value, env, f"{fn.__qualname__} return[{i}]")
        return result

    wrapper.__shape_contract__ = contract
    return wrapper


def validate_partition(
    result: Sequence[Sequence[int]], domain: int, parts: int, where: str
) -> None:
    """Assert ``result`` is a disjoint, covering partition of
    ``range(domain)`` into ``parts`` groups."""
    if len(result) != parts:
        raise PartitionContractError(
            f"{where}: {len(result)} groups, contract says {parts}"
        )
    seen: Dict[int, int] = {}
    for g, group in enumerate(result):
        for element in group:
            if element in seen:
                raise PartitionContractError(
                    f"{where}: element {element} owned by groups {seen[element]} "
                    f"and {g}"
                )
            seen[element] = g
    missing = set(range(domain)) - set(seen)
    extra = set(seen) - set(range(domain))
    if missing or extra:
        raise PartitionContractError(
            f"{where}: partition does not cover range({domain}) exactly "
            f"(missing {sorted(missing)[:4]}, extra {sorted(extra)[:4]})"
        )


def checked_partition(
    fn: Callable, contract: Optional[PartitionContract] = None
) -> Callable:
    import functools

    if contract is None:
        contract = fn.__partition_contract__
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
        except TypeError:
            return result
        domain = int(bound.arguments[contract.domain])
        parts = int(bound.arguments[contract.parts])
        validate_partition(result, domain, parts, fn.__qualname__)
        return result

    wrapper.__partition_contract__ = contract
    return wrapper
