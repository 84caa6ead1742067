"""EFF003: fault-hook dereferences escaping the ``faults`` guard.

The fault subsystem promises *zero cost when disabled*: a simulator
built with ``faults=None`` must execute exactly the fault-free fast
path.  The netsim engine upholds this by loading ``self.sim.faults``
once and branching::

    faults = self.sim.faults
    if faults is not None:
        faults.on_send(...)        # slow path, guarded
    ...
    if faults is None:
        <fast loop with no hook calls>

This pass checks the discipline statically inside ``netsim/`` sources:
any *dereference* of a faults value — attribute access, method call or
subscript on it — must be dominated by an ``is not None`` check (or
follow an ``if ... is None: return/raise/continue/break`` early exit).
Bare loads, ``is None`` comparisons and passing the value along as an
argument are not dereferences.  Parameters *named* ``faults`` are
exempt: a helper that takes the hooks explicitly documents that its
caller already guarded.

The analysis is name/chain-based, not type-based: tracked values are
local names assigned from a ``*.faults`` chain (or from another tracked
name) and pure attribute chains ending in ``.faults``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from .collect import _dotted


@dataclass(frozen=True)
class GuardFinding:
    lineno: int
    col: int
    chain: str  #: the dereferenced faults expression, dotted
    attr: str   #: the attribute/subscript accessed on it


def _terminates(body: Sequence[ast.stmt]) -> bool:
    """True when every path through ``body`` leaves the enclosing suite."""
    if not body:
        return False
    last = body[-1]
    if isinstance(last, (ast.Return, ast.Raise, ast.Continue, ast.Break)):
        return True
    if isinstance(last, ast.If):
        return _terminates(last.body) and _terminates(last.orelse)
    return False


class _FunctionGuards:
    def __init__(self, fn: ast.FunctionDef) -> None:
        self.findings: List[GuardFinding] = []
        args = fn.args
        params = [
            a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs
        ]
        #: local names holding a (possibly-None) faults value
        self.aliases: Set[str] = set()
        #: names/chains exempt or proven non-None for the whole function
        self.entry_guarded: Set[str] = {p for p in params if p == "faults"}

    # -- faults-value recognition ------------------------------------------
    def _key(self, node: ast.expr) -> Optional[str]:
        """Dotted key when ``node`` evaluates to a tracked faults value."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        if "." not in dotted:
            if dotted in self.aliases or dotted in self.entry_guarded:
                return dotted
            return None
        if dotted.rsplit(".", 1)[-1] == "faults":
            return dotted
        return None

    def _guard_test(self, test: ast.expr) -> Optional[tuple]:
        """Recognise ``K is not None`` / ``K is None`` / bare ``K`` tests.

        Returns ``(key, positive)`` where *positive* means the true
        branch has the value non-None.
        """
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, (op, right) = test.left, (test.ops[0], test.comparators[0])
            if isinstance(right, ast.Constant) and right.value is None:
                key = self._key(left)
                if key is not None:
                    if isinstance(op, ast.IsNot):
                        return key, True
                    if isinstance(op, ast.Is):
                        return key, False
            return None
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            # `if faults is not None and ...:` guards the body too.
            return self._guard_test(test.values[0])
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            # `if faults is None or ...:` — the *false* branch implies
            # the value is non-None (short-circuit: the first operand
            # was false there).
            first = self._guard_test(test.values[0])
            if first is not None and not first[1]:
                return first
            return None
        key = self._key(test)
        if key is not None:
            return key, True  # truthiness: hooks objects are truthy
        return None

    def _scan_test(self, test: ast.expr, guarded: Set[str]) -> None:
        """Scan a condition with short-circuit semantics: in
        ``K is not None and K.attr`` (or ``K is None or K.attr``) the
        later operands only evaluate with ``K`` proven non-None."""
        if isinstance(test, ast.BoolOp):
            narrowed = set(guarded)
            for value in test.values:
                self._scan_test(value, narrowed)
                guard = self._guard_test(value)
                if guard is not None:
                    key, positive = guard
                    # ``and`` keeps evaluating while operands are true;
                    # ``or`` while they are false.
                    if positive == isinstance(test.op, ast.And):
                        narrowed.add(key)
            return
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._scan_test(test.operand, guarded)
            return
        self._scan_expr(test, guarded)

    # -- expression scanning ------------------------------------------------
    def _scan_expr(self, node: ast.expr, guarded: Set[str]) -> None:
        # Any ctx counts: storing/deleting an attribute *on* a faults
        # value dereferences it just as much as loading one.
        if isinstance(node, ast.Attribute):
            key = self._key(node.value)
            if key is not None and key not in guarded:
                self.findings.append(
                    GuardFinding(node.lineno, node.col_offset, key, node.attr)
                )
                return  # one finding per chain; children are the chain itself
        if isinstance(node, ast.Subscript):
            key = self._key(node.value)
            if key is not None and key not in guarded:
                self.findings.append(
                    GuardFinding(node.lineno, node.col_offset, key, "[...]")
                )
                return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan_expr(child, guarded)

    def _scan_stmt_exprs(self, stmt: ast.stmt, guarded: Set[str]) -> None:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, guarded)

    # -- suite walking ------------------------------------------------------
    def visit_suite(self, body: Sequence[ast.stmt], guarded: Set[str]) -> None:
        guarded = set(guarded)
        for stmt in body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and (
                isinstance(stmt.targets[0], ast.Name)
            ):
                self._scan_expr(stmt.value, guarded)
                name = stmt.targets[0].id
                src = self._key(stmt.value)
                if src is not None:
                    self.aliases.add(name)
                    # The alias is non-None only if its source was known
                    # non-None at this point.
                    if src in guarded:
                        guarded.add(name)
                    else:
                        guarded.discard(name)
                elif name in self.aliases:
                    self.aliases.discard(name)
                    guarded.discard(name)
                continue
            if isinstance(stmt, ast.If):
                self._scan_test(stmt.test, guarded)
                guard = self._guard_test(stmt.test)
                if guard is not None:
                    key, positive = guard
                    then_g = guarded | {key} if positive else set(guarded)
                    else_g = guarded | {key} if not positive else set(guarded)
                    self.visit_suite(stmt.body, then_g)
                    self.visit_suite(stmt.orelse, else_g)
                    # Early exit on the None branch guards the rest of
                    # this suite.
                    none_body = stmt.orelse if positive else stmt.body
                    if _terminates(none_body):
                        guarded.add(key)
                else:
                    self.visit_suite(stmt.body, guarded)
                    self.visit_suite(stmt.orelse, guarded)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(stmt.iter, guarded)
                self.visit_suite(stmt.body, guarded)
                self.visit_suite(stmt.orelse, guarded)
                continue
            if isinstance(stmt, ast.While):
                guard = self._guard_test(stmt.test)
                self._scan_test(stmt.test, guarded)
                if guard is not None and guard[1]:
                    self.visit_suite(stmt.body, guarded | {guard[0]})
                else:
                    self.visit_suite(stmt.body, guarded)
                self.visit_suite(stmt.orelse, guarded)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan_expr(item.context_expr, guarded)
                self.visit_suite(stmt.body, guarded)
                continue
            if isinstance(stmt, ast.Try):
                self.visit_suite(stmt.body, guarded)
                for handler in stmt.handlers:
                    self.visit_suite(handler.body, guarded)
                self.visit_suite(stmt.orelse, guarded)
                self.visit_suite(stmt.finalbody, guarded)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Closures defined under a guard inherit it (they are
                # invoked from the guarded region in this codebase); a
                # nested `faults` parameter is exempt like a top-level one.
                nested_args = stmt.args
                nested_exempt = {
                    a.arg
                    for a in (
                        nested_args.posonlyargs
                        + nested_args.args
                        + nested_args.kwonlyargs
                    )
                    if a.arg == "faults"
                }
                self.visit_suite(stmt.body, guarded | nested_exempt)
                continue
            self._scan_stmt_exprs(stmt, guarded)


def _outermost_functions(tree: ast.Module):
    """Module- and class-level defs only; nested defs are handled by
    their parent's suite walk (they inherit its guard context)."""
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child
            elif isinstance(child, (ast.ClassDef, ast.If, ast.Try)):
                stack.append(child)


def check_guards(tree: ast.Module) -> List[GuardFinding]:
    """All unguarded faults dereferences in one module."""
    findings: List[GuardFinding] = []
    for node in _outermost_functions(tree):
        checker = _FunctionGuards(node)
        checker.visit_suite(node.body, set(checker.entry_guarded))
        findings.extend(checker.findings)
    return findings
