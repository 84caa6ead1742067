"""The COST001–COST005 checks of one file's ``@cost`` functions.

COST001 compares the FLOP/bytes-moved polynomials the shared abstract
interpreter (:mod:`repro.statcheck.interp`) derived for each annotated
kernel against its declaration, or verifies a ``ret_len=``/``ret_sum=``
list summary by executing the (pure) helper over a battery of small
inputs.  COST002–COST005 check the declarations themselves against the
analytical model (:mod:`.facts`), the complexity baseline
(:mod:`.baseline`) and the memo key.
"""

from __future__ import annotations

import ast
import itertools
import json
from pathlib import Path
from typing import Dict, List

from ..registry import ContractDef
from ..shapes import _exec_sandbox, _function_impurity, _strip_decorators, dims_equivalent
from ..symdims import SymDim
from . import facts
from .values import ZERO, Geom, Xform, bare_sym


def run_checks(cp) -> None:
    """Append the COST events of the pass ``cp`` (a ``ContractPass``)."""
    seen = set()
    costed: List[ContractDef] = []
    for info in cp.defs:
        if info.cost_decorator is None or info.qualname in seen:
            continue
        seen.add(info.qualname)
        costed.append(info)
    for info in costed:
        _check_one(cp, info)
    _check_traffic(cp, costed)
    _check_wire(cp, costed)
    _check_baseline(cp, costed)
    _check_memo_keys(cp, costed)


def _event(cp, rule: str, node: ast.AST, message: str) -> None:
    cp.events.append((rule, node, message))


def _side_by_side(label: str, derived: SymDim, declared: SymDim) -> str:
    return (
        f"\n    derived {label}:  {derived}"
        f"\n    declared {label}: {declared}"
    )


# ---- COST001 ---------------------------------------------------------
def _check_one(cp, info: ContractDef) -> None:
    node = info.cost_decorator or info.node
    if info.cost_error is not None:
        _event(cp, "COST001", node, f"{info.qualname}: {info.cost_error}")
        return
    cc = info.cost
    if cc is None or cc.assume:
        return
    if cc.exec_only():
        _verify_exec(cp, info)
        return
    if info.contract is None:
        _event(
            cp, "COST001", node,
            f"{info.qualname}: @cost needs a @shaped contract to bind "
            f"its symbols",
        )
        return
    derived = cp.walks[info.node]
    if derived.fails:
        _event(
            cp, "COST001", node,
            f"{info.qualname}: could not derive cost: {derived.fails[0]}",
        )
        return
    cp.derived[info.qualname] = derived
    wenv = cc.where_env()
    decl_flops = cc.closed(cc.flops) if cc.flops is not None else ZERO
    decl_mem = cc.closed(cc.mem) if cc.mem is not None else ZERO
    paths = [("", derived.flops, derived.mem, derived.ret)]
    for i, (af, am, ar) in enumerate(derived.alternatives, start=1):
        paths.append((f" (fast path {i})", af, am, ar))
    for suffix, flops, mem, ret in paths:
        got_flops = flops.subs(wenv)
        got_mem = mem.subs(wenv)
        if not dims_equivalent(got_flops, decl_flops):
            _event(
                cp, "COST001", node,
                f"{info.qualname}{suffix}: derived flop count disagrees "
                f"with the @cost declaration"
                + _side_by_side("flops", got_flops, decl_flops),
            )
        if not dims_equivalent(got_mem, decl_mem):
            _event(
                cp, "COST001", node,
                f"{info.qualname}{suffix}: derived bytes-moved disagrees "
                f"with the @cost declaration"
                + _side_by_side("mem", got_mem, decl_mem),
            )
        if cc.ret is not None:
            decl_ret = cc.closed(cc.ret)
            if not isinstance(ret, SymDim):
                _event(
                    cp, "COST001", node,
                    f"{info.qualname}{suffix}: @cost declares ret= but "
                    f"the derived return value is not a scalar "
                    f"polynomial",
                )
            elif not dims_equivalent(ret.subs(wenv), decl_ret):
                _event(
                    cp, "COST001", node,
                    f"{info.qualname}{suffix}: derived return value "
                    f"disagrees with the @cost declaration"
                    + _side_by_side("ret", ret.subs(wenv), decl_ret),
                )


# ---- exec-verified list summaries ------------------------------------
_BATTERY = (1, 2, 3, 4, 5, 8)


def _verify_exec(cp, info: ContractDef) -> None:
    node = info.cost_decorator or info.node
    cc = info.cost
    fn = info.node
    if not isinstance(fn, ast.FunctionDef):
        _event(
            cp, "COST001", node,
            f"{info.qualname}: exec-only summary on an unsupported "
            f"definition",
        )
        return
    impure = _function_impurity(fn)
    if impure is not None:
        _event(
            cp, "COST001", node,
            f"{info.qualname}: exec-only summary cannot be verified: "
            f"impure free name {impure!r}",
        )
        return
    syms: List[str] = []
    entries = info.contract.args if info.contract is not None else ()
    if len(entries) != len(info.params):
        _event(
            cp, "COST001", node,
            f"{info.qualname}: exec-only summary needs a full scalar "
            f"@shaped contract",
        )
        return
    for entry in entries:
        name = bare_sym(entry.expr) if entry.kind == "scalar" else None
        if name is None:
            _event(
                cp, "COST001", node,
                f"{info.qualname}: exec-only summary needs scalar "
                f"bare-symbol arguments",
            )
            return
        syms.append(name)
    module = ast.Module(body=[_strip_decorators(fn)], type_ignores=[])
    ast.fix_missing_locations(module)
    namespace = _exec_sandbox()
    try:
        exec(compile(module, "<statcheck-cost>", "exec"), namespace)
    except Exception as exc:  # pragma: no cover - defensive
        _event(
            cp, "COST001", node,
            f"{info.qualname}: exec-only summary failed to compile: {exc}",
        )
        return
    impl = namespace[fn.name]
    values = _BATTERY if len(syms) <= 2 else _BATTERY[:4]
    successes = 0
    for combo in itertools.product(values, repeat=len(syms)):
        env = dict(zip(syms, combo))
        try:
            result = impl(*combo)
        except Exception:
            continue
        if not isinstance(result, (list, tuple)):
            _event(
                cp, "COST001", node,
                f"{info.qualname}: exec-only summary did not return a "
                f"list for arguments {env}",
            )
            return
        if cc.ret_len is not None:
            want = cc.closed(cc.ret_len).evaluate(env)
            if len(result) != want:
                _event(
                    cp, "COST001", node,
                    f"{info.qualname}: length {len(result)} != declared "
                    f"ret_len {cc.ret_len} = {want} for {env}",
                )
                return
        for i, decl in enumerate(cc.ret_sum or ()):
            if decl is None:
                continue
            if result and isinstance(result[0], (list, tuple)):
                got = sum(item[i] for item in result)
            else:
                if i != 0 or (cc.ret_sum and len(cc.ret_sum) != 1):
                    _event(
                        cp, "COST001", node,
                        f"{info.qualname}: ret_sum declares "
                        f"{len(cc.ret_sum)} components but elements "
                        f"are scalars",
                    )
                    return
                got = sum(result)
            want = cc.closed(decl).evaluate(env)
            if got != want:
                _event(
                    cp, "COST001", node,
                    f"{info.qualname}: component {i} sums to {got} != "
                    f"declared {decl} = {want} for {env}",
                )
                return
        successes += 1
    if successes == 0:
        _event(
            cp, "COST001", node,
            f"{info.qualname}: exec-only summary could not be executed "
            f"on any battery input",
        )


# ---- COST002 ---------------------------------------------------------
def _check_traffic(cp, costed: List[ContractDef]) -> None:
    for info in costed:
        fact = facts.TRAFFIC_FACTS.get(info.name)
        if fact is None:
            continue
        cc = info.cost
        node = info.cost_decorator or info.node
        if cc is None or cc.ret is None:
            _event(
                cp, "COST002", node,
                f"{info.qualname}: traffic helper lacks a @cost ret= "
                f"declaration to check against the analytical model",
            )
            continue
        declared = cc.closed(cc.ret)
        if not dims_equivalent(declared, fact):
            _event(
                cp, "COST002", node,
                f"{info.qualname}: declared traffic polynomial disagrees "
                f"with the comm_model analytical factor"
                + _side_by_side("bytes", declared, fact),
            )
    for cls in cp.nodes:
        if not (
            isinstance(cls, ast.ClassDef)
            and cls.name == facts.TRAFFIC_MACHINE_CLASS
        ):
            continue
        called = set()
        for sub in ast.walk(cls):
            if isinstance(sub, ast.Call):
                fn = sub.func
                if isinstance(fn, ast.Name):
                    called.add(fn.id)
                elif isinstance(fn, ast.Attribute):
                    called.add(fn.attr)
        missing = sorted(set(facts.TRAFFIC_FACTS) - called)
        if missing:
            _event(
                cp, "COST002", cls,
                f"{cls.name}: traffic counters must route through the "
                f"checked helpers; missing calls to {missing}",
            )


# ---- COST004 ---------------------------------------------------------
def _check_wire(cp, costed: List[ContractDef]) -> None:
    for info in costed:
        fact = facts.WIRE_FACTS.get(info.name)
        if fact is None:
            continue
        cc = info.cost
        node = info.cost_decorator or info.node
        if cc is None or cc.ret is None:
            _event(
                cp, "COST004", node,
                f"{info.qualname}: collective wire-byte helper lacks a "
                f"@cost ret= declaration",
            )
            continue
        declared = cc.closed(cc.ret)
        if not dims_equivalent(declared, fact):
            _event(
                cp, "COST004", node,
                f"{info.qualname}: declared wire bytes disagree with the "
                f"collective's closed form"
                + _side_by_side("bytes", declared, fact),
            )
    defined: Dict[str, ast.AST] = {}  # name -> its first def
    for st in cp.nodes:
        if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.setdefault(st.name, st)
    for anchor, required in facts.WIRE_PRESENCE.items():
        if anchor not in defined:
            continue
        missing = sorted(set(required).difference(defined))
        if missing:
            _event(
                cp, "COST004", defined[anchor],
                f"{anchor}: module must define the checked wire-byte "
                f"helpers {missing}",
            )


# ---- COST003 ---------------------------------------------------------
def _check_baseline(cp, costed: List[ContractDef]) -> None:
    if not costed:
        return
    baseline, keyer = _load_baseline(cp)
    if baseline is None:
        return
    for info in costed:
        cc = info.cost
        if cc is None:
            continue
        key = keyer(info)
        entry = baseline.get(key)
        if entry is None:
            continue  # new function: recorded at the next baseline regen
        node = info.cost_decorator or info.node
        current = cost_signature(cc)
        for quantity, sig in current.items():
            old = entry.get(quantity, {})
            for name, degree in sig.items():
                prior = old.get(name, 0)
                if degree > prior:
                    _event(
                        cp, "COST003", node,
                        f"{info.qualname}: declared {quantity} grew from "
                        f"degree {prior} to {degree} in {name} vs the "
                        f"checked-in complexity baseline "
                        f"(statcheck/costs/baseline.json); regenerate it "
                        f"deliberately if the increase is intended",
                    )


def _load_baseline(cp):
    candidate = Path(cp.path)
    override = (
        candidate.parent / "statcheck-cost-baseline.json"
        if cp.path != "<string>"
        else Path("statcheck-cost-baseline.json")
    )
    if override.is_file():
        try:
            data = json.loads(override.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None, None
        functions = data.get("functions", {})
        fname = candidate.name
        return functions, lambda info: f"{fname}::{info.qualname}"
    root = cp.index.root
    if root is None:
        return None, None
    from .baseline import load_packaged_baseline

    functions = load_packaged_baseline()
    if functions is None:
        return None, None
    rel = candidate.resolve().relative_to(root).as_posix()
    return functions, lambda info: f"{rel}::{info.qualname}"


# ---- COST005 ---------------------------------------------------------
def _check_memo_keys(cp, costed: List[ContractDef]) -> None:
    for info in costed:
        if "memoize_sweep" not in info.decorators:
            continue
        cc = info.cost
        if cc is None:
            continue
        node = info.cost_decorator or info.node
        bindable = {"ELL"} if any(
            e.kind == "array" and e.ellipsis
            for e in (info.contract.args if info.contract else ())
        ) else set()
        entries = info.contract.args if info.contract is not None else ()
        for param, entry in itertools.zip_longest(info.params, entries):
            if entry is None or param is None:
                continue
            if entry.kind == "scalar":
                name = bare_sym(entry.expr)
                if name:
                    bindable.add(name)
            elif entry.kind == "array":
                for d in entry.dims:
                    name = bare_sym(d)
                    if name:
                        bindable.add(name)
            else:
                fact = facts.PARAM_FACTS.get(param)
                made = fact() if fact is not None else None
                if isinstance(made, Geom):
                    bindable |= set(Geom.BIND_SYMS)
                elif isinstance(made, Xform):
                    bindable |= {"M", "R", "T"}
        for quantity, expr in (
            ("flops", cc.flops), ("mem", cc.mem), ("ret", cc.ret),
        ):
            if expr is None:
                continue
            free = cc.closed(expr).free_symbols()
            leaked = sorted(free - bindable)
            if leaked:
                _event(
                    cp, "COST005", node,
                    f"{info.qualname}: memoized sweep cost depends on "
                    f"{leaked} which the memo key (the function "
                    f"arguments) cannot determine — cached results will "
                    f"be reused across different {leaked} values",
                )


def cost_signature(cc) -> Dict[str, Dict[str, int]]:
    """Per-quantity ``{symbol: degree}`` asymptotic signature."""
    out: Dict[str, Dict[str, int]] = {}
    for quantity, expr in (
        ("flops", cc.flops), ("mem", cc.mem), ("ret", cc.ret),
    ):
        if expr is None:
            continue
        closed = cc.closed(expr)
        sig = {
            name: closed.degree_in(name)
            for name in sorted(closed.free_symbols())
        }
        out[quantity] = {k: v for k, v in sig.items() if v > 0}
    return out
