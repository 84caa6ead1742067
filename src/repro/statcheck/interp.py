"""The symbolic abstract interpreter behind the SHAPE and COST families.

One walk per function, over the :class:`~.symdims.SymDim` algebra,
derives both the *shapes* of the arrays a function manipulates and its
*cost*:

* calls to ``@shaped`` functions are unified against the callee's
  contract: the callee's symbols bind to what the caller passes (first
  use wins), and a rank or fully bound dim that contradicts the
  contract is SHAPE002.  Return values and tuple unpacking are checked
  against the function's own contract (SHAPE002), and an
  ``np.tensordot``, ``np.matmul``/``np.dot`` or ``@`` whose contracted
  axes differ in size is SHAPE003 — a flipped Cook–Toom transpose in
  Equation 1 fails there;
* FLOP and bytes-moved polynomials, which the COST rules compare
  against ``@cost`` declarations (:mod:`.costs.checks`).  ``for`` loops
  over ``range(...)`` or summarized lists are evaluated symbolically —
  the body is interpreted once and its cost is summed in closed form
  (affine in the loop variables, with exact triangular sums for
  ``range`` index variables).  numpy intrinsics get costs from a
  per-call table (uniform fp32 model: 4 bytes/element; 2 flops/MAC;
  stores and array accumulation are memory-only, matching
  :mod:`repro.winograd.costs` which counts only transform flops and
  MACs).  Calls to annotated functions substitute the callee's
  *declared* (where-closed) polynomials under the same bindings that
  unified the call.

A construct outside the cost fragment makes its value unknown: the
walk records the first reason and keeps going, so every statement is
still checked for shapes.  Code the cost model skips — ``if`` tests,
guard branches ending in ``raise``/``continue``/``break``, dead code
after a ``return``, the operands of unmodeled calls — is walked in a
throwaway frame whose cost and failures are dropped.  For a ``@cost``
function the recorded reason is the COST001 finding "could not derive
cost: <reason>": the fragment is the set of constructs the repo's
kernels actually use, and staying inside it is what keeps the cost
analysis exact rather than approximate.

:class:`ContractPass` is the per-file pass: it resolves calls through
the package index's contract table (:mod:`.index`, built once per
package), walks every function once (nested functions included) and
adds the non-interpreter checks of :mod:`.shapes` and
:mod:`.costs.checks`.  Events are ``(rule_id, node, message)`` tuples
that the thin rule classes filter by id.
"""

from __future__ import annotations

import ast
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import shapes
from .costs import checks, facts
from .costs.values import (
    NP_SUBMODULES,
    NPMOD,
    ONE,
    ZERO,
    Arr,
    Fail,
    Geom,
    Lst,
    Marker,
    Obj,
    Tup,
    Xform,
    bare_sym,
    broadcast,
)
from .index import PackageIndex, index_of, source_index
from .registry import (
    AMBIGUOUS,
    ContractDef,
    _positional_param_names,
    collect_contracts,
)
from .shapes import dims_equivalent
from .symdims import SymDim, SymDimError, ceildiv, floordiv, sym

_UNSET = object()  # "has not returned yet" (None is a legal return value)

_FOUR = SymDim.const(4)
_HALF = Fraction(1, 2)

#: What ends one evaluation (its value becomes unknown) but not the walk.
_FAILURES = (Fail, SymDimError, ZeroDivisionError)

#: Definitions inside a body: walked on their own, never inline.
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Expressions with a scope of their own (bound names are unknown inside).
_SCOPES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.Lambda)

#: Child nodes that nothing is ever checked on.
_INERT = (
    ast.expr_context, ast.boolop, ast.operator, ast.unaryop, ast.cmpop,
    ast.Name, ast.Constant, ast.alias,
)


def _affine_split(
    expr: SymDim, name: str
) -> Tuple[Optional[SymDim], Optional[SymDim]]:
    """``(coeff, rest)`` with ``expr == coeff*name + rest`` and ``rest``
    of degree 0 in ``name`` — or ``(None, None)`` when ``expr`` is not
    affine in ``name`` (degree >= 2, or ``name`` inside a division)."""
    coeff: Dict[tuple, Fraction] = {}
    rest: Dict[tuple, Fraction] = {}
    for mono, c in expr.terms:
        deg = 0
        stripped = []
        for atom, e in mono:
            if isinstance(atom, str):
                if atom == name:
                    deg += e
                    continue
            elif name in atom.num.free_symbols() or name in atom.den.free_symbols():
                return None, None
            stripped.append((atom, e))
        if deg == 0:
            rest[mono] = rest.get(mono, Fraction(0)) + c
        elif deg == 1:
            key = tuple(stripped)  # removing one atom keeps the sort order
            coeff[key] = coeff.get(key, Fraction(0)) + c
        else:
            return None, None
    return SymDim(coeff), SymDim(rest)


def _module_int_env(tree: ast.Module) -> Dict[str, object]:
    """Module-level ``NAME = <int literal>`` constants (``BYTES = 4``)."""
    env: Dict[str, object] = {}
    for st in tree.body:
        target = None
        if isinstance(st, ast.Assign) and len(st.targets) == 1:
            target = st.targets[0]
        elif isinstance(st, ast.AnnAssign):
            target = st.target
        else:
            continue
        if not (isinstance(target, ast.Name) and isinstance(st.value, ast.Constant)):
            continue
        value = st.value.value
        if isinstance(value, bool) or not isinstance(value, int):
            continue
        env[target.id] = SymDim.const(value)
    return env


#: Builtins that are cost-free and whose value we do not track.
_FREE_CALLS = frozenset({
    "min", "max", "abs", "round", "isinstance", "sorted", "print",
    "str", "repr", "id", "phase",
})


def _new_axis(index: ast.expr) -> bool:
    """``None``/``np.newaxis`` in a subscript: a new axis of extent 1."""
    if isinstance(index, ast.Constant):
        return index.value is None
    return isinstance(index, ast.Attribute) and index.attr == "newaxis"


def _terminator(body: Sequence[ast.stmt]) -> str:
    if not body:
        return "absent"
    last = body[-1]
    if isinstance(last, (ast.Raise, ast.Continue, ast.Break)):
        return "guard"
    if isinstance(last, ast.Return):
        return "return"
    return "plain"


class _Shared:
    """State shared by every frame of one function's walk."""

    __slots__ = ("cp", "own", "qualname", "wenv", "counter", "seen")

    def __init__(
        self, cp: "ContractPass", own: Optional[ContractDef], qualname: str
    ) -> None:
        self.cp = cp
        #: the function's own shape contract (return checks), if any
        self.own = own
        self.qualname = qualname
        #: its ``@cost`` where-chain: the declared identities (``T=M+R-1``)
        #: between contract symbols and the structured facts' geometry
        cc = own.cost if own is not None and own.cost_error is None else None
        self.wenv = cc.where_env() if cc is not None else {}
        self.counter = 0
        #: every statement and expression node already walked
        self.seen: set = set()

    def fresh(self) -> str:
        self.counter += 1
        return f"__L{self.counter}"


class FnDeriver:
    """One interpretation frame (a function body, a loop body or a branch)."""

    def __init__(self, shared: _Shared, env: Dict[str, object]) -> None:
        self.shared = shared
        self.env = env
        self.flops = ZERO
        self.mem = ZERO
        self.ret = _UNSET
        self.stopped = False
        #: scalar ``name += delta`` totals in this frame (None = unknown)
        self.aug: Dict[str, Optional[SymDim]] = {}
        #: names plainly (re)assigned in this frame
        self.assigned: set = set()
        #: (flops, mem, ret) totals of early-``return`` fast paths
        self.alternatives: List[Tuple[SymDim, SymDim, object]] = []
        #: why the cost walk left the fragment, first reason first
        #: (shared with child frames; a throwaway frame keeps its own)
        self.fails: List[str] = []

    def _child(self) -> "FnDeriver":
        child = FnDeriver(self.shared, dict(self.env))
        child.fails = self.fails
        return child

    def _aside(self) -> "FnDeriver":
        """A throwaway frame: what it walks is checked for shapes, but its
        cost, bindings and failures are dropped."""
        return FnDeriver(self.shared, dict(self.env))

    def _fail(self, reason: object) -> None:
        self.fails.append(str(reason))

    def _event(self, rule: str, node: ast.AST, message: str) -> None:
        self.shared.cp.events.append((rule, node, message))

    def _same(self, a: SymDim, b: SymDim) -> bool:
        """Dim equality, up to the function's own where-chain."""
        wenv = self.shared.wenv
        return dims_equivalent(a.subs(wenv), b.subs(wenv))

    # ---- walking ---------------------------------------------------------

    def run_body(self, body: Sequence[ast.stmt]) -> None:
        for i, st in enumerate(body):
            if self.ret is not _UNSET or self.stopped:
                aside = self._aside()  # dead code: shape checks only
                for rest in body[i:]:
                    aside.stmt(rest)
                return
            self.stmt(st)

    def stmt(self, st: ast.stmt) -> None:
        """Walk one statement; one that leaves the cost fragment records
        the reason and is still walked to its end for shape checks."""
        self.shared.seen.add(st)
        try:
            self._stmt(st)
        except _FAILURES as exc:
            self._fail(exc)
            self._finish(st)
        else:
            if self._unwalked(st):
                self._aside()._finish(st)

    def eval(self, node: ast.expr) -> object:
        """The abstract value of ``node``: unknown (``None``) when it
        leaves the cost fragment, with the reason recorded."""
        self.shared.seen.add(node)
        try:
            value = self._value(node)
        except _FAILURES as exc:
            self._fail(exc)
            self._finish(node)
            return None
        if not isinstance(node, _INERT) and self._unwalked(node):
            self._aside()._finish(node)
        return value

    def _unwalked(self, node: ast.AST) -> bool:
        """Whether ``node`` holds a call or ``return`` not walked yet."""
        seen = self.shared.seen
        stack = list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop()
            if child in seen or isinstance(child, _DEFS):
                continue
            if isinstance(child, (ast.Call, ast.Return)):
                return True
            stack.extend(ast.iter_child_nodes(child))
        return False

    def _finish(self, node: ast.AST) -> None:
        """Walk the parts of ``node`` its evaluation did not reach, so
        they are still checked for shapes."""
        if isinstance(node, _DEFS):
            self.env[node.name] = None  # walked on their own
            return
        frame = self
        if isinstance(node, _SCOPES):
            frame = self._child()
            for sub in ast.walk(node):
                if isinstance(sub, ast.arg):
                    frame.env[sub.arg] = None
                elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    frame.env[sub.id] = None
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._forget(node.target)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            self.env[node.name] = None
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            self._forget(node.optional_vars)
        seen = self.shared.seen
        for child in ast.iter_child_nodes(node):
            if child in seen or isinstance(child, _INERT):
                continue
            if isinstance(child, ast.stmt):
                frame.stmt(child)
            elif isinstance(child, ast.expr) and not any(
                sub in seen for sub in ast.walk(child)
            ):
                frame.eval(child)
            else:
                frame._finish(child)

    def _forget(self, target: ast.expr) -> None:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                self.env[sub.id] = None

    # ---- statements ------------------------------------------------------

    def _stmt(self, st: ast.stmt) -> None:
        if isinstance(st, ast.Assign):
            value = self.eval(st.value)
            for target in st.targets:
                if isinstance(st.value, ast.Call):
                    self._check_unpack(target, value, st)
                self._assign(target, value)
        elif isinstance(st, ast.AnnAssign):
            if st.value is not None:
                self._assign(st.target, self.eval(st.value))
        elif isinstance(st, ast.AugAssign):
            self._aug_assign(st)
        elif isinstance(st, ast.Expr):
            self.eval(st.value)
        elif isinstance(st, ast.For):
            self._for(st)
        elif isinstance(st, ast.If):
            self._if(st)
        elif isinstance(st, ast.With):
            for item in st.items:
                self.eval(item.context_expr)  # e.g. phase("kernel"): free
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, None)
            self.run_body(st.body)
        elif isinstance(st, ast.Return):
            self.ret = self.eval(st.value) if st.value is not None else None
            if st.value is not None:
                self._check_return(st, self.ret)
        elif isinstance(st, ast.Raise):
            self.stopped = True
        elif isinstance(st, (ast.Pass, ast.Assert, ast.Import, ast.ImportFrom)):
            pass
        else:
            raise Fail(f"unsupported statement {type(st).__name__}")

    def _assign(self, target: ast.expr, value: object) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
            self.assigned.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            items: Sequence[object]
            if isinstance(value, Tup) and len(value.items) == len(target.elts):
                items = value.items
            elif isinstance(value, Arr) and value.lead is None and value.dims:
                # unpacking iterates axis 0: every target is one row
                row = Arr(value.dims[1:]) if len(value.dims) > 1 else None
                items = [row] * len(target.elts)
            else:
                items = [None] * len(target.elts)
            for sub, item in zip(target.elts, items):
                self._assign(sub, item)
        elif isinstance(target, ast.Subscript):
            self._store(target)
        elif isinstance(target, ast.Attribute):
            pass  # object-attribute bookkeeping, no array bytes
        elif isinstance(target, ast.Starred):
            raise Fail("starred assignment")
        else:
            raise Fail(f"unsupported assignment target {type(target).__name__}")

    def _store(self, target: ast.Subscript) -> None:
        """A subscript store costs the bytes of the written region."""
        base = self.eval(target.value)
        if not isinstance(base, Arr):
            raise Fail("subscript store into non-array")
        region = self._subscript_arr(base, target.slice)
        size = region.size()
        if size is None:
            raise Fail("subscript store of unknown extent")
        self.mem = self.mem + _FOUR * size

    def _aug_assign(self, st: ast.AugAssign) -> None:
        delta = self.eval(st.value)
        target = st.target
        if isinstance(target, ast.Subscript):
            # array accumulation: memory-only (see module docstring)
            self._store(target)
            return
        if isinstance(target, ast.Attribute):
            return
        if not isinstance(target, ast.Name):
            raise Fail(f"unsupported augment target {type(target).__name__}")
        name = target.id
        cur = self.env.get(name)
        if isinstance(cur, Arr):
            size = cur.size()
            if size is None:
                raise Fail("array accumulation of unknown extent")
            self.mem = self.mem + _FOUR * size
            return
        if (
            isinstance(st.op, ast.Add)
            and isinstance(cur, SymDim)
            and isinstance(delta, SymDim)
        ):
            self.env[name] = cur + delta
            prior = self.aug.get(name, ZERO)
            self.aug[name] = None if prior is None else prior + delta
        else:
            self.env[name] = None
            self.aug[name] = None

    # ---- SHAPE002: unpacking and returns vs the contracts ----------------

    def _check_unpack(self, target: ast.expr, value: object, st: ast.stmt) -> None:
        if not (
            isinstance(value, Tup)
            and isinstance(target, (ast.Tuple, ast.List))
            and len(target.elts) != len(value.items)
            and not any(isinstance(e, ast.Starred) for e in target.elts)
        ):
            return
        self._event(
            "SHAPE002", st,
            f"unpacking {len(target.elts)} values from a call whose "
            f"contract returns {len(value.items)}",
        )

    def _check_return(self, st: ast.Return, value: object) -> None:
        own = self.shared.own
        if own is None:
            return
        returns = own.contract.returns
        values: Sequence[object] = (value,)
        if len(returns) > 1:
            if not isinstance(value, Tup):
                return
            values = value.items
            if len(values) != len(returns):
                self._event(
                    "SHAPE002", st,
                    f"{own.qualname} returns {len(values)} values but its "
                    f"contract declares {len(returns)}",
                )
        for entry, got in zip(returns, values):
            if entry.kind != "array" or not isinstance(got, Arr):
                continue
            if got.lead is not None and not entry.ellipsis:
                continue  # rank unknown
            n = len(entry.dims)
            split = len(got.dims) - n
            if split < 0 or (split and not entry.ellipsis):
                if not entry.ellipsis:
                    self._event(
                        "SHAPE002", st,
                        f"{own.qualname} returns a rank-{len(got.dims)} value "
                        f"where its contract declares rank {n} ({entry})",
                    )
                continue
            for i, (want, dim) in enumerate(zip(entry.dims, got.dims[split:])):
                if want is not None and dim is not None and not self._same(
                    want, dim
                ):
                    self._event(
                        "SHAPE002", st,
                        f"{own.qualname} returns dim {i} = {dim} where its "
                        f"contract declares {want}",
                    )

    # ---- control flow ----------------------------------------------------

    def _fork(self, body: Sequence[ast.stmt]) -> "FnDeriver":
        child = self._child()
        child.run_body(body)
        return child

    def _if(self, st: ast.If) -> None:
        branches = [
            (st.body, _terminator(st.body)),
            (st.orelse, _terminator(st.orelse)),
        ]
        live = [(b, t) for b, t in branches if t != "guard" and t != "absent"]
        if not live:
            return  # pure guard (raise/continue/break): no cost
        if len(live) == 2 and live[0][1] == "plain" and live[1][1] == "plain":
            # both sides execute in the abstraction: upper bound on cost,
            # merge environments (unused by the repo's annotated kernels)
            forks = [self._fork(b) for b, _ in live]
            for fork in forks:
                if fork.ret is not _UNSET:
                    raise Fail("return in one arm of a two-arm conditional")
                self._absorb_fork_alternatives(fork)
                self.flops = self.flops + fork.flops
                self.mem = self.mem + fork.mem
            touched = set()
            for fork in forks:
                touched |= fork.assigned | set(fork.aug)
            for name in sorted(touched):
                self.env[name] = None
                self.assigned.add(name)
            return
        for body, term in live:
            if term == "return":
                fork = self._fork(body)
                self._absorb_fork_alternatives(fork)
                if fork.ret is _UNSET or fork.stopped:
                    continue
                ret = fork.ret
                if ret is None or (isinstance(ret, SymDim) and ret.is_const()):
                    continue  # edge guard (`return 0`) — not a real path
                self.alternatives.append((
                    self.flops + fork.flops, self.mem + fork.mem, ret,
                ))
            else:  # single live plain branch: adopt it (general path)
                self.run_body(body)

    def _absorb_fork_alternatives(self, fork: "FnDeriver") -> None:
        for alt_f, alt_m, alt_r in fork.alternatives:
            self.alternatives.append((self.flops + alt_f, self.mem + alt_m, alt_r))

    def _for(self, st: ast.For) -> None:
        if st.orelse:
            raise Fail("for/else")
        trip, binds = self._loop_iter(st)
        child = self._child()
        loop_names = []
        for var, fresh, _vsum in binds:
            child.env[var] = sym(fresh)
            loop_names.append(fresh)
        child.run_body(st.body)
        if child.ret is not _UNSET or child.stopped:
            raise Fail("return/raise inside a loop body")
        if child.alternatives:
            raise Fail("conditional fast path inside a loop body")
        sums = [(fresh, vsum) for _var, fresh, vsum in binds]
        self.flops = self.flops + self._summate(child.flops, sums, loop_names, trip)
        self.mem = self.mem + self._summate(child.mem, sums, loop_names, trip)
        both = set(child.assigned) & set(child.aug)
        for name in sorted(both):
            self.env[name] = None
            self.aug[name] = None
        for name, delta in child.aug.items():
            if name in both:
                continue
            total: Optional[SymDim]
            if delta is None:
                total = None
            else:
                try:
                    total = self._summate(delta, sums, loop_names, trip)
                except Fail:
                    total = None
            cur = self.env.get(name)
            if total is None or not isinstance(cur, SymDim):
                self.env[name] = None
                self.aug[name] = None
            else:
                self.env[name] = cur + total
                prior = self.aug.get(name, ZERO)
                self.aug[name] = None if prior is None else prior + total
        for name in sorted(set(child.assigned) - both - set(child.aug)):
            self.env[name] = None
            self.assigned.add(name)
        for var, _fresh, _vsum in binds:
            self.env[var] = None  # value after the loop is the last element

    def _loop_iter(
        self, st: ast.For
    ) -> Tuple[SymDim, List[Tuple[str, str, Optional[SymDim]]]]:
        """``(trip_count, [(target_name, fresh_sym, element_sum), ...])``."""
        it = st.iter
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
        ):
            if it.keywords or len(it.args) not in (1, 2, 3):
                raise Fail("unsupported range() form")
            if not isinstance(st.target, ast.Name):
                raise Fail("range loop needs a plain index variable")
            self.shared.seen.add(it)
            args = [self.eval(a) for a in it.args]
            if not all(isinstance(a, SymDim) for a in args):
                raise Fail("range() bound is not statically known")
            if len(args) == 1:
                lo, hi = ZERO, args[0]
            else:
                lo, hi = args[:2]
            if len(args) == 3:
                step = args[2].as_const()
                if step == -1:  # the elements of range(hi + 1, lo + 1)
                    lo, hi = hi + ONE, lo + ONE
                elif step != 1:
                    raise Fail("range() step other than 1 or -1")
            trip = hi - lo
            # sum_{i=lo}^{hi-1} i = (hi*(hi-1) - lo*(lo-1)) / 2
            vsum = (hi * (hi - ONE) - lo * (lo - ONE)) * _HALF
            return trip, [(st.target.id, self.shared.fresh(), vsum)]
        value = self.eval(it)
        if isinstance(value, Lst):
            if value.length is None:
                raise Fail("loop over a list of unknown length")
            if isinstance(st.target, ast.Name):
                if len(value.sums) != 1:
                    raise Fail("scalar loop target over a tuple-element list")
                return value.length, [
                    (st.target.id, self.shared.fresh(), value.sums[0])
                ]
            if isinstance(st.target, ast.Tuple) and all(
                isinstance(e, ast.Name) for e in st.target.elts
            ):
                if len(st.target.elts) != len(value.sums):
                    raise Fail("loop target arity disagrees with list summary")
                return value.length, [
                    (e.id, self.shared.fresh(), s)
                    for e, s in zip(st.target.elts, value.sums)
                ]
            raise Fail("unsupported loop target")
        raise Fail("loop over an unsupported iterable")

    def _summate(
        self,
        expr: SymDim,
        sums: List[Tuple[str, Optional[SymDim]]],
        loop_names: List[str],
        trip: SymDim,
    ) -> SymDim:
        """Close ``sum over the loop of expr`` given per-variable sums."""
        total = ZERO
        rest = expr
        for fresh, vsum in sums:
            coeff, new_rest = _affine_split(rest, fresh)
            if coeff is None or new_rest is None:
                raise Fail(f"loop cost is not affine in the index ({expr})")
            if coeff != ZERO:
                if any(n in coeff.free_symbols() for n in loop_names):
                    raise Fail("loop cost mixes index variables")
                if vsum is None:
                    raise Fail("loop cost depends on an unsummarized element")
                total = total + coeff * vsum
            rest = new_rest
        if any(n in rest.free_symbols() for n in loop_names):
            raise Fail("loop cost is not affine in the index")
        return total + rest * trip

    # ---- expressions -----------------------------------------------------

    def _value(self, node: ast.expr) -> object:
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, bool) or v is None or isinstance(v, (str, bytes)):
                return None
            if v is Ellipsis:
                return None
            if isinstance(v, int):
                return SymDim.const(v)
            if isinstance(v, float) and math.isfinite(v):
                return SymDim.const(Fraction(v))
            return None
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in ("np", "numpy"):
                return NPMOD
            return None
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand)
            if isinstance(node.op, ast.USub):
                if isinstance(operand, SymDim):
                    return -operand
                if isinstance(operand, Arr):
                    return self._elementwise([operand])
                return None
            if isinstance(node.op, ast.UAdd):
                return operand
            return None
        if isinstance(node, ast.Compare):
            vals = [self.eval(node.left)] + [self.eval(c) for c in node.comparators]
            if any(isinstance(v, Arr) for v in vals):
                return self._elementwise(vals)
            return None
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                self.eval(v)
            return None
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Tuple):
            return Tup([self.eval(e) for e in node.elts])
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.JoinedStr)):
            return None
        raise Fail(f"unsupported expression {type(node).__name__}")

    def _binop(self, node: ast.BinOp) -> object:
        a = self.eval(node.left)
        b = self.eval(node.right)
        if isinstance(a, Arr) or isinstance(b, Arr):
            if isinstance(node.op, ast.MatMult):
                return _in_matmul(self, node, node.left, a, node.right, b)
            return self._elementwise([a, b])
        if not (isinstance(a, SymDim) and isinstance(b, SymDim)):
            return None
        op = node.op
        if isinstance(op, ast.Add):
            return a + b
        if isinstance(op, ast.Sub):
            return a - b
        if isinstance(op, ast.Mult):
            return a * b
        if isinstance(op, ast.FloorDiv):
            return floordiv(a, b)
        if isinstance(op, ast.Div):
            quotient = a.exact_div(b)
            if quotient is None:
                raise Fail(f"inexact symbolic division {a} / {b}")
            return quotient
        if isinstance(op, ast.Pow):
            e = b.as_const()
            if e is None or e.denominator != 1 or e < 0:
                raise Fail("symbolic exponent")
            return a ** int(e)
        return None

    def _elementwise(self, vals: Sequence[object]) -> Optional[Arr]:
        arrs = [v for v in vals if isinstance(v, Arr)]
        if any(not isinstance(v, (Arr, SymDim)) for v in vals):
            raise Fail("elementwise operation with an unknown operand")
        if not arrs:
            return None  # scalar arithmetic
        out = arrs[0]
        for other in arrs[1:]:
            out = broadcast(out, other)
        size = out.size()
        if size is None:
            raise Fail("elementwise operation of unknown extent")
        self.flops = self.flops + size
        self.mem = self.mem + _FOUR * size
        return out

    # ---- attributes / subscripts ----------------------------------------

    def _attribute(self, node: ast.Attribute) -> object:
        base = self.eval(node.value)
        name = node.attr
        if isinstance(base, Marker) and base.kind == "npmod":
            if name in NP_SUBMODULES:
                return base
            return Marker("npfunc", name)
        if isinstance(base, Arr):
            if name == "shape":
                if base.lead is not None:
                    return None
                return Tup(base.dims)
            if name == "size":
                return base.size()
            if name == "ndim":
                return None if base.lead is not None else SymDim.const(len(base.dims))
            if name == "T":
                if base.lead is not None:
                    raise Fail(".T on an ellipsis-shaped array")
                return Arr(tuple(reversed(base.dims)))
            if name == "strides":
                return Tup((None,) * len(base.dims))
            return None
        if isinstance(base, (Geom, Xform, Obj)):
            return base.attr(name)
        return None

    def _subscript(self, node: ast.Subscript) -> object:
        base = self.eval(node.value)
        if isinstance(base, Arr):
            return self._subscript_arr(base, node.slice)
        if isinstance(base, Tup):
            idx_node = node.slice
            if isinstance(idx_node, ast.Slice):
                return None
            idx = self.eval(idx_node)
            if isinstance(idx, SymDim):
                c = idx.as_const()
                if c is not None and c.denominator == 1:
                    i = int(c)
                    if -len(base.items) <= i < len(base.items):
                        return base.items[i]
            return None
        return None

    def _subscript_arr(self, base: Arr, slice_node: ast.expr) -> Arr:
        if base.lead is not None:
            raise Fail("subscript on an ellipsis-shaped array")
        if isinstance(slice_node, ast.Tuple):
            indices = list(slice_node.elts)
        else:
            indices = [slice_node]
        dims = list(base.dims)
        out: List[Optional[SymDim]] = []
        pos = 0
        for nth, idx in enumerate(indices):
            if _new_axis(idx):
                out.append(ONE)
                continue
            if isinstance(idx, ast.Constant) and idx.value is Ellipsis:
                # keep axes until the remaining indices line up with the
                # trailing dims (at most one Ellipsis, numpy's own rule)
                after = sum(not _new_axis(i) for i in indices[nth + 1:])
                while len(dims) - pos > after:
                    out.append(dims[pos])
                    pos += 1
                continue
            if pos >= len(dims):
                raise Fail("subscript arity exceeds array rank")
            dim = dims[pos]
            if isinstance(idx, ast.Slice):
                out.append(self._slice_extent(dim, idx))
            else:
                self.eval(idx)  # an index: drops the axis
            pos += 1
        out.extend(dims[pos:])
        return Arr(tuple(out))

    def _slice_extent(
        self, dim: Optional[SymDim], sl: ast.Slice
    ) -> Optional[SymDim]:
        lo = self.eval(sl.lower) if sl.lower is not None else ZERO
        up = self.eval(sl.upper) if sl.upper is not None else dim
        step = self.eval(sl.step) if sl.step is not None else None
        if not isinstance(lo, SymDim) or (
            sl.upper is not None and not isinstance(up, SymDim)
        ):
            return None
        if step is not None:
            if not isinstance(step, SymDim):
                return None
            c = step.as_const()
            if c is not None:
                if c == -1 and sl.lower is None and sl.upper is None:
                    return dim
                if c <= 0:
                    raise Fail("unsupported negative slice step")
            # symbolic steps are assumed positive (dimension algebra)

        def position(index: Optional[SymDim]) -> Optional[SymDim]:
            """A slice bound; a negative constant counts from the end."""
            if index is None:
                return None
            c = index.as_const()
            if c is not None and c < 0:
                return None if dim is None else dim + index
            return index

        start, stop = position(lo), position(up)
        if start is None or stop is None:
            return None
        extent = stop - start
        if step is not None:
            c = step.as_const()
            if c is None or c > 1:
                extent = ceildiv(extent, step)
        return extent

    # ---- calls -----------------------------------------------------------

    def _call(self, node: ast.Call) -> object:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name == "len":
                return self._builtin_len(node)
            if name in ("int", "float"):
                if len(node.args) == 1:
                    value = self.eval(node.args[0])
                    return value if isinstance(value, SymDim) else None
                return None
            if name in _FREE_CALLS:
                for a in node.args:
                    self.eval(a)
                return None
            if name == "WinogradConvCache":
                return None
            if name == "TileGrid":
                return self._tile_grid_ctor(node)
            info = self.shared.cp.registry.get(name)
            if info is AMBIGUOUS:
                raise Fail(f"ambiguous callee {name!r}")
            if info is not None:
                return self._summary_call(node, info)
            raise Fail(f"call to uncosted function {name!r}")
        if isinstance(func, ast.Attribute):
            recv = self.eval(func.value)
            attr = func.attr
            if isinstance(recv, Marker) and recv.kind == "npmod":
                handler = _INTRINSICS.get(attr)
                if handler is None:
                    raise Fail(f"unmodeled numpy call np.{attr}")
                return handler(self, node)
            if isinstance(recv, Arr):
                handler = _ARR_METHODS.get(attr)
                if handler is None:
                    raise Fail(f"unmodeled array method .{attr}()")
                return handler(self, recv, node)
            if isinstance(recv, Xform):
                prebind = {"M": recv.m, "R": recv.r}
                if recv.m is not None and recv.r is not None:
                    prebind["T"] = recv.m + recv.r - 1
                return self._method_summary(node, "WinogradTransform", attr, prebind)
            if isinstance(recv, Geom):
                return self._method_summary(node, "TileGrid", attr, {})
            if isinstance(recv, Obj):
                return self._method_summary(node, recv.cls, attr, {})
            if isinstance(recv, Lst):
                if attr in ("append", "extend", "sort"):
                    raise Fail("list mutation is outside the costed fragment")
                return None
            # an unknown receiver: resolve the method by its bare name
            self._fail(f"method call .{attr}() on an unknown receiver")
            info = self.shared.cp.registry.get(attr)
            if isinstance(info, ContractDef):
                return self._summary_call(node, info)
            return None
        raise Fail("unsupported call form")

    def _builtin_len(self, node: ast.Call) -> Optional[SymDim]:
        if len(node.args) != 1:
            return None
        value = self.eval(node.args[0])
        if isinstance(value, Arr):
            return value.dims[0] if value.lead is None and value.dims else None
        if isinstance(value, Lst):
            return value.length
        if isinstance(value, Tup):
            return SymDim.const(len(value.items))
        return None

    def _tile_grid_ctor(self, node: ast.Call) -> Geom:
        fields = ["height", "width", "pad", "m", "r"]
        values: Dict[str, object] = {}
        for name, arg in zip(fields, node.args):
            values[name] = self.eval(arg)
        for kw in node.keywords:
            if kw.arg in fields:
                values[kw.arg] = self.eval(kw.value)
        def _dim(v):
            return v if isinstance(v, SymDim) else None
        return Geom(*(_dim(values.get(f)) for f in fields))

    def _method_summary(
        self, node: ast.Call, cls: Optional[str], attr: str, prebind: Dict
    ) -> object:
        registry = self.shared.cp.registry
        info = registry.get(f"{cls}.{attr}") if cls else None
        if info is None or info is AMBIGUOUS:
            info = registry.get(attr)
        if info is AMBIGUOUS:
            raise Fail(f"ambiguous callee {attr!r}")
        if info is None:
            raise Fail(f"method call to uncosted function .{attr}()")
        clean = {k: v for k, v in prebind.items() if v is not None}
        return self._summary_call(node, info, prebind=clean)

    # ---- interprocedural summaries ---------------------------------------

    def _summary_call(
        self,
        node: ast.Call,
        info: ContractDef,
        prebind: Optional[Dict[str, SymDim]] = None,
    ) -> object:
        """A call to a contracted function: unify it with the contract,
        charge the callee's ``@cost`` summary under the same bindings,
        and return the contract's result."""
        cc = info.cost if info.cost_error is None else None
        if cc is None:
            self._fail(f"callee {info.qualname!r} lacks a usable @cost summary")
        params = info.params
        actuals: Dict[str, Tuple[ast.expr, object]] = {}
        complete = True
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                self._fail("starred call argument")
                complete = False
                continue
            value = self.eval(arg)
            if i < len(params):
                actuals[params[i]] = (arg, value)
        for kw in node.keywords:
            if kw.arg is None:
                self._fail("**kwargs call argument")
                complete = False
                continue
            value = self.eval(kw.value)
            if kw.arg in params:
                actuals[kw.arg] = (kw.value, value)
        if not complete:
            return None  # arguments cannot be paired with the contract
        bindings: Dict[str, SymDim] = dict(prebind or {})
        lead_product: object = _UNSET
        lead_explicit: Optional[Tuple[Optional[SymDim], ...]] = None
        if info.contract is not None:
            self.shared.cp.stats.calls_resolved += 1
            lead_product, lead_explicit = self._bind(node, info, actuals, bindings)
        if "ELL" not in bindings and lead_product is not _UNSET:
            if lead_product is None:
                self._fail(f"cannot bind leading extent for callee {info.qualname!r}")
            else:
                bindings["ELL"] = lead_product
        if cc is not None:
            wenv = cc.where_env()
            for quantity, attr in ((cc.flops, "flops"), (cc.mem, "mem")):
                closed = quantity.subs(wenv) if quantity is not None else ZERO
                missing = closed.free_symbols() - set(bindings)
                if missing:
                    self._fail(
                        f"unbound symbols {sorted(missing)} in {info.qualname!r} "
                        f"{attr} summary"
                    )
                else:
                    setattr(self, attr, getattr(self, attr) + closed.subs(bindings))
        return self._summary_return(info, cc, bindings, lead_explicit)

    def _bind(
        self,
        node: ast.Call,
        info: ContractDef,
        actuals: Dict[str, Tuple[ast.expr, object]],
        bindings: Dict[str, SymDim],
    ) -> Tuple[object, Optional[Tuple[Optional[SymDim], ...]]]:
        """Unify the call's arguments with the callee's contract entries.

        Each callee symbol binds to what the caller passes (first use
        wins); a rank, or a dim whose symbols are all bound, that
        contradicts the contract is SHAPE002.  Only argument dims are
        unified: the receiver's and skip entries' structured facts
        (``TileGrid``, ``WinogradTransform``) feed ``bindings`` for the
        cost summary but are never checked.  Returns the leading-axes
        product of the first ellipsis argument and, when the argument
        enumerates them, its explicit leading dims.
        """
        unified: Dict[str, SymDim] = {}
        lead_product: object = _UNSET
        lead_explicit: Optional[Tuple[Optional[SymDim], ...]] = None
        for param, entry in zip(info.params, info.contract.args):
            if param not in actuals:
                continue
            arg, value = actuals[param]
            where = f"call to {info.qualname}: argument {ast.unparse(arg)}"
            if entry.kind == "scalar":
                if isinstance(value, SymDim) and entry.expr is not None:
                    self._unify(entry.expr, value, unified, bindings, node, where)
            elif entry.kind == "array":
                if not isinstance(value, Arr) or (
                    value.lead is not None and not entry.ellipsis
                ):
                    continue
                n = len(entry.dims)
                split = len(value.dims) - n
                if split < 0 or (split and not entry.ellipsis):
                    if value.lead is None:
                        least = "at least " if entry.ellipsis else ""
                        self._event(
                            "SHAPE002", node,
                            f"{where} has rank {len(value.dims)} where the "
                            f"contract declares {least}rank {n} ({entry})",
                        )
                    continue
                if entry.ellipsis and lead_product is _UNSET:
                    prod: Optional[SymDim]
                    prod = value.lead if value.lead is not None else ONE
                    for d in value.dims[:split]:
                        if d is None or prod is None:
                            prod = None
                            break
                        prod = prod * d
                    lead_product = prod
                    if value.lead is None:
                        lead_explicit = value.dims[:split]
                for j, (dexpr, dval) in enumerate(zip(entry.dims, value.dims[split:])):
                    if dexpr is not None and dval is not None:
                        self._unify(
                            dexpr, dval, unified, bindings, node,
                            f"{where} dim {j - n}",
                        )
            else:  # skip entry: structured facts still bind geometry
                if isinstance(value, Obj):
                    # an attribute bag carrying a grid (e.g. the conv
                    # cache) exposes that grid's geometry symbols
                    for attr_value in value.attrs.values():
                        if isinstance(attr_value, Geom):
                            value = attr_value
                            break
                if isinstance(value, Geom):
                    for s, field in zip(Geom.BIND_SYMS, Geom.BINDINGS):
                        fv = getattr(value, field)
                        if s not in bindings and fv is not None:
                            bindings[s] = fv
                elif isinstance(value, Xform):
                    if "M" not in bindings and value.m is not None:
                        bindings["M"] = value.m
                    if "R" not in bindings and value.r is not None:
                        bindings["R"] = value.r
                    if (
                        "T" not in bindings
                        and value.m is not None
                        and value.r is not None
                    ):
                        bindings["T"] = value.m + value.r - 1
        return lead_product, lead_explicit

    def _unify(
        self,
        dexpr: SymDim,
        dval: SymDim,
        unified: Dict[str, SymDim],
        bindings: Dict[str, SymDim],
        node: ast.AST,
        where: str,
    ) -> None:
        stats = self.shared.cp.stats
        name = bare_sym(dexpr)
        if name is not None and name not in unified:
            unified[name] = dval
            bindings.setdefault(name, dval)
            stats.dims_unified += 1
        elif dexpr.free_symbols() <= unified.keys():
            want = dexpr.subs(unified)
            if self._same(want, dval):
                stats.dims_unified += 1
            else:
                self._event(
                    "SHAPE002", node,
                    f"{where}: caller passes {dval} where the contract "
                    f"requires {want}",
                )
        # composite dims with unbound symbols stay unconstrained

    def _summary_return(
        self,
        info: ContractDef,
        cc,
        bindings: Dict[str, SymDim],
        lead_explicit: Optional[Tuple[Optional[SymDim], ...]],
    ) -> object:
        wenv = cc.where_env() if cc is not None else {}
        if cc is not None and cc.ret is not None:
            closed = cc.ret.subs(wenv)
            missing = closed.free_symbols() - set(bindings)
            if missing:
                raise Fail(
                    f"unbound symbols {sorted(missing)} in {info.qualname!r} "
                    f"ret summary"
                )
            return closed.subs(bindings)
        if cc is not None and cc.exec_only():
            length = cc.ret_len.subs(wenv) if cc.ret_len is not None else None
            if length is not None:
                if length.free_symbols() - set(bindings):
                    raise Fail(
                        f"unbound symbols in {info.qualname!r} ret_len summary"
                    )
                length = length.subs(bindings)
            sums: List[Optional[SymDim]] = []
            for s in cc.ret_sum or (None,):
                if s is None:
                    sums.append(None)
                else:
                    closed = s.subs(wenv)
                    if closed.free_symbols() - set(bindings):
                        sums.append(None)
                    else:
                        sums.append(closed.subs(bindings))
            return Lst(length, sums)
        contract = info.contract
        if contract is None:
            return None

        def bound(expr: Optional[SymDim]) -> Optional[SymDim]:
            if expr is None:
                return None
            closed = expr.subs(wenv)
            if closed.free_symbols() - set(bindings):
                return None
            return closed.subs(bindings)

        outs: List[object] = []
        for entry in contract.returns:
            if entry.kind == "scalar":
                outs.append(bound(entry.expr))
            elif entry.kind == "array":
                dims = tuple(bound(dexpr) for dexpr in entry.dims)
                if not entry.ellipsis:
                    outs.append(Arr(dims))
                elif lead_explicit is not None:
                    outs.append(Arr(tuple(lead_explicit) + dims))
                elif "ELL" in bindings:
                    outs.append(Arr(dims, lead=bindings["ELL"]))
                else:
                    outs.append(None)
            else:
                fact = facts.RETURN_FACTS.get(info.name)
                outs.append(None if fact is None else _bound_fact(fact(), bound))
        if len(outs) == 1:
            return outs[0]
        return Tup(outs)


def _bound_fact(value: object, bound) -> object:
    """A callee-side fact with a call's bindings substituted (``bound``
    maps a callee dim to the caller's, or ``None`` when unbound)."""
    if isinstance(value, Arr):
        return Arr(tuple(bound(d) for d in value.dims))
    if isinstance(value, Geom):
        return Geom(*(bound(getattr(value, f)) for f in Geom.BINDINGS))
    if isinstance(value, Obj):
        return Obj(value.cls, {k: _bound_fact(v, bound) for k, v in value.attrs.items()})
    return None


# ---------------------------------------------------------------------------
# numpy intrinsic cost table
# ---------------------------------------------------------------------------


def _need_arr(value: object, what: str) -> Arr:
    if not isinstance(value, Arr):
        raise Fail(f"{what} is not a tracked array")
    return value


def _prod(dims: Sequence[Optional[SymDim]], what: str) -> SymDim:
    total = ONE
    for d in dims:
        if d is None:
            raise Fail(f"{what} has an unknown extent")
        total = total * d
    return total


def _charge_out(dr: FnDeriver, out: Arr, flops: Optional[SymDim]) -> Arr:
    size = out.size()
    if size is None:
        raise Fail("result of unknown extent")
    if flops is not None:
        dr.flops = dr.flops + flops
    dr.mem = dr.mem + _FOUR * size
    return out


def _kwarg(node: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _shape_to_dims(value: object) -> Tuple[Optional[SymDim], ...]:
    if isinstance(value, Tup):
        return tuple(
            d if isinstance(d, SymDim) else None for d in value.items
        )
    if isinstance(value, SymDim):
        return (value,)
    raise Fail("allocation shape is not statically known")


def _in_matmul(
    dr: FnDeriver,
    node: ast.AST,
    a_node: ast.expr,
    a: object,
    b_node: ast.expr,
    b: object,
) -> Arr:
    arr_a = _need_arr(a, "matmul operand")
    arr_b = _need_arr(b, "matmul operand")
    if arr_a.lead is not None or arr_b.lead is not None:
        raise Fail("matmul on ellipsis-shaped arrays")
    if len(arr_a.dims) < 2 or len(arr_b.dims) < 2:
        raise Fail("matmul needs rank >= 2 operands")
    m, k = arr_a.dims[-2], arr_a.dims[-1]
    k_b, n = arr_b.dims[-2], arr_b.dims[-1]
    if k is not None and k_b is not None and not dr._same(k, k_b):
        dr._event(
            "SHAPE003", node,
            f"{dr.shared.qualname}: matmul contracts axis -1 of "
            f"{ast.unparse(a_node)} (size {k}) against axis -2 of "
            f"{ast.unparse(b_node)} (size {k_b})",
        )
    batch = broadcast(Arr(arr_a.dims[:-2]), Arr(arr_b.dims[:-2])).dims
    if m is None or k is None or n is None:
        raise Fail("matmul extent unknown")
    flops = 2 * _prod(batch, "matmul batch") * m * k * n
    return _charge_out(dr, Arr(tuple(batch) + (m, n)), flops)


def _i_matmul(dr: FnDeriver, node: ast.Call) -> Arr:
    args = [dr.eval(a) for a in node.args]
    if len(args) != 2:
        raise Fail("matmul needs two arguments")
    return _in_matmul(dr, node, node.args[0], args[0], node.args[1], args[1])


def _axes_list(node: ast.expr, dr: FnDeriver) -> List[int]:
    items: Sequence[object]
    if isinstance(node, (ast.List, ast.Tuple)):
        items = [dr.eval(e) for e in node.elts]
    else:
        value = dr.eval(node)
        if isinstance(value, Tup):
            items = value.items
        elif isinstance(value, SymDim):
            items = [value]
        else:
            raise Fail("tensordot axes are not literal")
    out = []
    for item in items:
        if not isinstance(item, SymDim):
            raise Fail("tensordot axis is not a constant")
        c = item.as_const()
        if c is None or c.denominator != 1:
            raise Fail("tensordot axis is not a constant")
        out.append(int(c))
    return out


def _i_tensordot(dr: FnDeriver, node: ast.Call) -> Arr:
    if len(node.args) < 2:
        raise Fail("tensordot needs two array arguments")
    a = _need_arr(dr.eval(node.args[0]), "tensordot operand")
    b = _need_arr(dr.eval(node.args[1]), "tensordot operand")
    if b.lead is not None:
        raise Fail("tensordot on ellipsis-shaped right operand")
    axes_node = node.args[2] if len(node.args) > 2 else _kwarg(node, "axes")
    if axes_node is None or not isinstance(axes_node, ast.Tuple) or len(
        axes_node.elts
    ) != 2:
        raise Fail("tensordot needs explicit axes=([...], [...])")
    raw_a = _axes_list(axes_node.elts[0], dr)
    if a.lead is not None:
        # Only negative axes resolve unambiguously against the explicit
        # trailing dims of an ellipsis-shaped array.
        if any(ax >= 0 for ax in raw_a):
            raise Fail("tensordot on ellipsis lead needs negative axes")
        ax_a = [len(a.dims) + ax for ax in raw_a]
        if any(ax < 0 for ax in ax_a):
            raise Fail("tensordot axis reaches into ellipsis lead")
    else:
        ax_a = [ax % len(a.dims) for ax in raw_a]
    raw_b = _axes_list(axes_node.elts[1], dr)
    ax_b = [ax % len(b.dims) for ax in raw_b]
    contracted = [a.dims[ax] for ax in ax_a]
    for ra, rb, x, y in zip(raw_a, raw_b, contracted, [b.dims[ax] for ax in ax_b]):
        if x is not None and y is not None and not dr._same(x, y):
            dr._event(
                "SHAPE003", node,
                f"{dr.shared.qualname}: tensordot contracts axis {ra} of "
                f"{ast.unparse(node.args[0])} (size {x}) against axis {rb} "
                f"of {ast.unparse(node.args[1])} (size {y})",
            )
    out_dims = tuple(
        d for i, d in enumerate(a.dims) if i not in ax_a
    ) + tuple(d for i, d in enumerate(b.dims) if i not in ax_b)
    out = Arr(out_dims, lead=a.lead)
    size = out.size()
    if size is None:
        raise Fail("tensordot extent unknown")
    flops = 2 * size * _prod(contracted, "tensordot contraction")
    return _charge_out(dr, out, flops)


def _i_einsum(dr: FnDeriver, node: ast.Call) -> Arr:
    if not node.args or not (
        isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        raise Fail("einsum needs a literal subscript string")
    spec = node.args[0].value.replace(" ", "")
    if "->" not in spec:
        raise Fail("einsum needs an explicit '->' output")
    lhs, rhs = spec.split("->")
    subscripts = lhs.split(",")
    arrays = [
        _need_arr(dr.eval(a), "einsum operand") for a in node.args[1:]
    ]
    if len(arrays) != len(subscripts):
        raise Fail("einsum subscript/operand arity mismatch")
    letters: Dict[str, SymDim] = {}
    for sub, arr in zip(subscripts, arrays):
        if arr.lead is not None or len(sub) != len(arr.dims):
            raise Fail("einsum operand rank mismatch")
        for letter, dim in zip(sub, arr.dims):
            if letter not in letters and dim is not None:
                letters[letter] = dim
    distinct = set("".join(subscripts))
    missing = distinct - set(letters)
    if missing:
        raise Fail(f"einsum extent unknown for {sorted(missing)}")
    flops = 2 * _prod([letters[x] for x in sorted(distinct)], "einsum")
    out_dims = tuple(letters[x] for x in rhs)
    return _charge_out(dr, Arr(out_dims), flops)


def _i_alloc(dr: FnDeriver, node: ast.Call) -> Arr:
    if not node.args:
        raise Fail("allocation without a shape")
    dims = _shape_to_dims(dr.eval(node.args[0]))
    return _charge_out(dr, Arr(dims), None)


def _i_alloc_like(dr: FnDeriver, node: ast.Call) -> Arr:
    if not node.args:
        raise Fail("*_like without a prototype")
    proto = _need_arr(dr.eval(node.args[0]), "*_like prototype")
    return _charge_out(dr, Arr(proto.dims, lead=proto.lead), None)


def _i_copy(dr: FnDeriver, node: ast.Call) -> Arr:
    if not node.args:
        raise Fail("copy without an argument")
    src = _need_arr(dr.eval(node.args[0]), "copy source")
    return _charge_out(dr, Arr(src.dims, lead=src.lead), None)


def _i_pad(dr: FnDeriver, node: ast.Call) -> Arr:
    if len(node.args) < 2:
        raise Fail("pad needs explicit widths")
    src = _need_arr(dr.eval(node.args[0]), "pad source")
    if src.lead is not None:
        raise Fail("pad on an ellipsis-shaped array")
    widths = dr.eval(node.args[1])
    if not isinstance(widths, Tup):
        raise Fail("pad widths are not a literal tuple")
    dims = list(src.dims)
    items = widths.items
    if len(items) != len(dims):
        raise Fail("pad widths arity mismatch")
    out: List[Optional[SymDim]] = []
    for dim, pair in zip(dims, items):
        if not (isinstance(pair, Tup) and len(pair.items) == 2):
            raise Fail("pad widths must be (lo, hi) pairs")
        lo, hi = pair.items
        if dim is None or not isinstance(lo, SymDim) or not isinstance(hi, SymDim):
            out.append(None)
        else:
            out.append(dim + lo + hi)
    return _charge_out(dr, Arr(tuple(out)), None)


def _i_elementwise(dr: FnDeriver, node: ast.Call) -> Arr:
    vals = [dr.eval(a) for a in node.args]
    return dr._elementwise(vals)


def _i_transpose(dr: FnDeriver, node: ast.Call) -> Arr:
    if not node.args:
        raise Fail("transpose without an argument")
    src = _need_arr(dr.eval(node.args[0]), "transpose source")
    return _m_transpose(dr, src, node, arg_offset=1)


def _i_sliding_window(dr: FnDeriver, node: ast.Call) -> Arr:
    if len(node.args) < 2:
        raise Fail("sliding_window_view needs a window shape")
    src = _need_arr(dr.eval(node.args[0]), "sliding_window_view source")
    if src.lead is not None:
        raise Fail("sliding_window_view on an ellipsis-shaped array")
    window = dr.eval(node.args[1])
    windows: Sequence[object]
    if isinstance(window, Tup):
        windows = window.items
    else:
        windows = [window]
    axis_node = node.args[2] if len(node.args) > 2 else _kwarg(node, "axis")
    if axis_node is not None:
        axis_val = dr.eval(axis_node)
        if isinstance(axis_val, Tup):
            axes = []
            for item in axis_val.items:
                c = item.as_const() if isinstance(item, SymDim) else None
                if c is None:
                    raise Fail("sliding_window_view axis is not constant")
                axes.append(int(c))
        else:
            c = axis_val.as_const() if isinstance(axis_val, SymDim) else None
            if c is None:
                raise Fail("sliding_window_view axis is not constant")
            axes = [int(c)]
    else:
        axes = list(range(len(src.dims) - len(windows), len(src.dims)))
    if len(axes) != len(windows):
        raise Fail("sliding_window_view window/axis arity mismatch")
    dims = list(src.dims)
    appended: List[Optional[SymDim]] = []
    for ax, w in zip(axes, windows):
        ax %= len(dims)
        if not isinstance(w, SymDim) or dims[ax] is None:
            raise Fail("sliding_window_view extent unknown")
        dims[ax] = dims[ax] - w + ONE
        appended.append(w)
    return Arr(tuple(dims) + tuple(appended))  # a view: free


def _i_as_strided(dr: FnDeriver, node: ast.Call) -> Arr:
    shape_node = node.args[1] if len(node.args) > 1 else _kwarg(node, "shape")
    if shape_node is None:
        raise Fail("as_strided needs an explicit shape")
    dims = _shape_to_dims(dr.eval(shape_node))
    return Arr(dims)  # a view: free (strides deliberately not evaluated)


def _i_prod(dr: FnDeriver, node: ast.Call) -> Optional[SymDim]:
    if len(node.args) != 1:
        return None
    value = dr.eval(node.args[0])
    if isinstance(value, Tup) and all(
        isinstance(v, SymDim) for v in value.items
    ):
        total = ONE
        for v in value.items:
            total = total * v
        return total
    if isinstance(value, Arr):
        return value.size()
    return None


_ELEMENTWISE_UFUNCS = (
    "maximum", "minimum", "abs", "exp", "sqrt", "sign", "tanh", "where",
    "clip", "square", "add", "subtract", "multiply",
)

_INTRINSICS = {
    "matmul": _i_matmul,
    "dot": _i_matmul,
    "tensordot": _i_tensordot,
    "einsum": _i_einsum,
    "zeros": _i_alloc,
    "ones": _i_alloc,
    "empty": _i_alloc,
    "full": _i_alloc,
    "zeros_like": _i_alloc_like,
    "ones_like": _i_alloc_like,
    "empty_like": _i_alloc_like,
    "full_like": _i_alloc_like,
    "copy": _i_copy,
    "ascontiguousarray": _i_copy,
    "asarray": _i_copy,
    "array": _i_copy,
    "pad": _i_pad,
    "transpose": _i_transpose,
    "sliding_window_view": _i_sliding_window,
    "as_strided": _i_as_strided,
    "prod": _i_prod,
}
for _name in _ELEMENTWISE_UFUNCS:
    _INTRINSICS[_name] = _i_elementwise


def _m_transpose(
    dr: FnDeriver, src: Arr, node: ast.Call, arg_offset: int = 0
) -> Arr:
    if src.lead is not None:
        raise Fail("transpose on an ellipsis-shaped array")
    perm_args = node.args[arg_offset:]
    if not perm_args:
        return Arr(tuple(reversed(src.dims)))
    if len(perm_args) == 1:
        value = dr.eval(perm_args[0])
        items = value.items if isinstance(value, Tup) else [value]
    else:
        items = [dr.eval(a) for a in perm_args]
    perm = []
    for item in items:
        c = item.as_const() if isinstance(item, SymDim) else None
        if c is None or c.denominator != 1:
            raise Fail("transpose permutation is not constant")
        perm.append(int(c))
    if sorted(perm) != list(range(len(src.dims))):
        raise Fail("transpose permutation does not match rank")
    return Arr(tuple(src.dims[i] for i in perm))


def _m_transpose_method(dr: FnDeriver, src: Arr, node: ast.Call) -> Arr:
    return _m_transpose(dr, src, node, arg_offset=0)


def _m_reshape(dr: FnDeriver, src: Arr, node: ast.Call) -> Arr:
    # view semantics assumed: reshape of a contiguous result is free (a
    # deliberate under-approximation, documented in docs/statcheck.md)
    if src.lead is not None:
        raise Fail("reshape on an ellipsis-shaped array")
    if len(node.args) == 1:
        value = dr.eval(node.args[0])
        items = value.items if isinstance(value, Tup) else [value]
    else:
        items = [dr.eval(a) for a in node.args]
    total = src.size()
    dims: List[Optional[SymDim]] = []
    hole = None
    for i, item in enumerate(items):
        if not isinstance(item, SymDim):
            raise Fail("reshape extent unknown")
        c = item.as_const()
        if c is not None and c == -1:
            if hole is not None:
                raise Fail("reshape with two -1 extents")
            hole = i
            dims.append(None)
        else:
            dims.append(item)
    if hole is not None:
        if total is None:
            raise Fail("reshape -1 with unknown total")
        known = ONE
        for d in dims:
            if d is not None:
                known = known * d
        missing = total.exact_div(known)
        if missing is None:
            raise Fail("reshape -1 does not divide the total extent")
        dims[hole] = missing
    return Arr(tuple(dims))


def _m_copy(dr: FnDeriver, src: Arr, node: ast.Call) -> Arr:
    return _charge_out(dr, Arr(src.dims, lead=src.lead), None)


def _m_ravel(dr: FnDeriver, src: Arr, node: ast.Call) -> Arr:
    size = src.size()
    if size is None:
        raise Fail("ravel of unknown extent")
    return Arr((size,))


def _m_flatten(dr: FnDeriver, src: Arr, node: ast.Call) -> Arr:
    size = src.size()
    if size is None:
        raise Fail("flatten of unknown extent")
    return _charge_out(dr, Arr((size,)), None)


_ARR_METHODS = {
    "transpose": _m_transpose_method,
    "reshape": _m_reshape,
    "astype": _m_copy,
    "copy": _m_copy,
    "ravel": _m_ravel,
    "flatten": _m_flatten,
}




# ---------------------------------------------------------------------------
# the per-file pass
# ---------------------------------------------------------------------------


@dataclass
class ShapeStats:
    """What the pass consumed in one file (used by the propagation test)."""

    contracts_defined: int = 0
    partitions_defined: int = 0
    calls_resolved: int = 0
    dims_unified: int = 0


class ContractPass:
    """The SHAPE and COST analysis of one file; the rules filter events.

    Calls resolve against ``index``, the file's package; without one,
    ``tree``'s facts overlay the package of ``path``.  ``nodes`` is
    ``tree``'s node list in ``ast.walk`` order (walked here when not given).
    """

    def __init__(
        self, path: str, tree: ast.Module, *, index: Optional[PackageIndex] = None,
        nodes: Optional[List[ast.AST]] = None,
    ) -> None:
        self.path = path
        self.tree = tree
        self.nodes = list(ast.walk(tree)) if nodes is None else nodes
        self.index = source_index(path, tree) if index is None else index
        self.events: List[Tuple[str, ast.AST, str]] = []
        self.defs = collect_contracts(tree)
        self.registry = self.index.resolution
        self.base_env = _module_int_env(tree)
        self.stats = ShapeStats(
            contracts_defined=sum(d.contract is not None for d in self.defs),
            partitions_defined=sum(d.partition is not None for d in self.defs),
        )
        #: the top frame of every function's walk, by definition node
        self.walks: Dict[ast.AST, FnDeriver] = {}
        #: successful derivations of ``@cost`` functions, by qualname
        self.derived: Dict[str, FnDeriver] = {}
        self._walk_all()
        shapes.run_checks(self)
        checks.run_checks(self)

    def _walk_all(self) -> None:
        own = {d.node: d for d in self.defs if d.contract is not None}

        def visit(node: ast.AST, cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.walks[child] = self._walk(child, cls, own.get(child))
                    visit(child, None)
                elif isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                else:
                    visit(child, cls)

        visit(self.tree, None)

    def _walk(
        self, fn: ast.FunctionDef, cls: Optional[str], own: Optional[ContractDef]
    ) -> FnDeriver:
        qualname = f"{cls}.{fn.name}" if cls else fn.name
        deriver = FnDeriver(_Shared(self, own, qualname), self._entry_env(fn, cls, own))
        try:
            deriver.run_body(fn.body)
        except RecursionError as exc:
            deriver.fails.append(str(exc))
        if deriver.ret is _UNSET:
            deriver.ret = None
        return deriver

    def _entry_env(
        self, fn: ast.FunctionDef, cls: Optional[str], own: Optional[ContractDef]
    ) -> Dict[str, object]:
        env: Dict[str, object] = dict(self.base_env)
        all_params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        if all_params and all_params[0] in ("self", "cls"):
            fact = facts.CLASS_SELF_FACTS.get(cls or "")
            env[all_params[0]] = fact() if fact is not None else None
        if own is None:
            for param in _positional_param_names(fn)[0]:
                env[param] = None
            return env
        for param, entry in itertools.zip_longest(own.params, own.contract.args):
            if param is None:
                break
            if entry is None:
                env[param] = None
            elif entry.kind == "scalar":
                env[param] = entry.expr
            elif entry.kind == "array":
                lead = sym("ELL") if entry.ellipsis else None
                env[param] = Arr(entry.dims, lead=lead)
            else:
                fact = facts.PARAM_FACTS.get(param)
                env[param] = fact() if fact is not None else None
        return env


def contract_pass(ctx) -> ContractPass:
    """The per-file pass, computed once and shared by every SHAPE and
    COST rule."""
    cached = ctx.cache.get("contract_pass")
    if cached is None:
        cached = ctx.cache["contract_pass"] = ContractPass(
            ctx.path, ctx.tree, index=index_of(ctx), nodes=ctx.nodes
        )
    return cached


def collect_stats(paths: Sequence[Union[str, Path]]) -> Dict[str, ShapeStats]:
    """Run the pass standalone over files/trees; per-file statistics.

    Used by the test asserting that the static pass actually consumes
    contracts in every annotated subsystem.
    """
    from .engine import Context, iter_contexts

    return {
        ctx.path: contract_pass(ctx).stats
        for ctx in iter_contexts([Path(p) for p in paths])
        if isinstance(ctx, Context)
    }
