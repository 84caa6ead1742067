"""Performance lint (``PERF001``, ``PERF002``).

The Winograd kernels and the performance model sit on every sweep's hot
path, and their per-tile-element work is vectorized: the ``T x T``
Winograd-domain GEMMs run as one batched ``np.matmul`` over the
element-major ``(T**2, N, C)`` operands, not ``T**2`` separate Python
iterations.  ``PERF001`` keeps that invariant — a Python-level
``for`` loop over ``range(T*T)`` (or any ``x**2`` / ``x*x`` element
count) in ``repro.winograd`` or ``repro.core`` reintroduces exactly the
interpreter overhead the vectorization removed.

``PERF002`` polices the analogous invariant one layer down, in the
netsim event engine: scheduling one event per item from a Python loop
is the per-packet slow path the batching fast paths exist to avoid
(``_LinkServer._serve_next`` serialises a whole uncontended batch under
one completion event; the collective shortcuts price a whole
collective without scheduling an event).  A ``for``/``while``
loop in ``repro.netsim`` whose body calls ``*.schedule(...)`` /
``*._schedule(...)`` / ``heappush(...)`` per iteration reintroduces the
heap-traffic scaling the fast paths removed.  The batching primitive
itself — ``_serve_next``, whose per-packet arrival events *are* the
reference semantics — is allowlisted, as is the flit-level wormhole
``_try_send`` tier if it ever grows a loop.

Deliberate scalar implementations (the golden-reference kernels) opt
out per file with ``# statcheck: ignore-file[PERF001]`` (same syntax
for ``PERF002``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

from ..engine import Context, Rule, register

#: Packages whose Python-level tile-element loops are hot-path bugs.
_HOT_PACKAGES = ("winograd", "core")


def _squared_operand(node: ast.expr) -> Optional[str]:
    """The source text of ``x`` if ``node`` is ``x**2`` or ``x*x``."""
    if not isinstance(node, ast.BinOp):
        return None
    if (
        isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 2
    ):
        return ast.unparse(node.left)
    if isinstance(node.op, ast.Mult) and ast.dump(node.left) == ast.dump(
        node.right
    ):
        return ast.unparse(node.left)
    return None


def _range_call(node: ast.expr) -> Optional[ast.Call]:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
    ):
        return node
    return None


@register
class TileElementLoop(Rule):
    id = "PERF001"
    name = "python-loop-over-tile-elements"
    description = (
        "Python-level `for` loop over range(T*T) / tile**2 elements in "
        "repro.winograd or repro.core; the T x T Winograd-domain work "
        "must stay batched (batched matmul / stride tricks), not "
        "per-element."
    )

    def check(self, ctx: Context) -> Iterator:
        parts = Path(ctx.path).parts
        if not any(pkg in parts for pkg in _HOT_PACKAGES):
            return
        for node in ctx.nodes:
            if not isinstance(node, (ast.For, ast.comprehension)):
                continue
            call = _range_call(node.iter)
            if call is None or not call.args:
                continue
            # range(n), range(start, n) — the loop count is the last
            # positional bound that could be a squared element count.
            for arg in call.args[:2]:
                squared = _squared_operand(arg)
                if squared is not None:
                    yield ctx.finding(
                        self,
                        node if isinstance(node, ast.For) else node.iter,
                        f"Python loop over range({ast.unparse(arg)}) "
                        f"iterates all {squared}^2 tile elements; batch "
                        "the per-element work (a batched matmul over the "
                        "tile axes or stride tricks) instead",
                    )
                    break


#: Functions whose per-item event scheduling is the reference semantics
#: itself, not a missed batching opportunity.
_SCHEDULING_PRIMITIVES = frozenset({"_serve_next", "_try_send"})

#: Callee names that enqueue one event on the simulator's queue: the
#: simulator scheduling API, whether called as ``sim.schedule(...)`` or
#: through a hoisted local alias.  Deliberately *not* ``heappush`` /
#: ``.push`` — bare heap use also serves Dijkstra frontiers and the
#: event consumer's deferred push-back, which are not per-item event
#: scheduling.
_SCHEDULE_CALLEES = frozenset({"schedule", "_schedule"})


def _schedule_calls(body: list) -> Iterator[ast.Call]:
    """Event-scheduling calls lexically inside ``body``, not counting
    nested function bodies (a callback *definition* inside a loop is not
    a per-iteration schedule; it runs later, once per event)."""
    stack: list = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in _SCHEDULE_CALLEES:
                yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class PerPacketScheduleLoop(Rule):
    id = "PERF002"
    name = "per-packet-schedule-loop"
    description = (
        "Python loop in repro.netsim scheduling one event per iteration "
        "(schedule/_schedule); batch the run under one bulk event like "
        "_serve_next, or route it through an allowlisted scheduling "
        "primitive."
    )

    def check(self, ctx: Context) -> Iterator:
        if "netsim" not in Path(ctx.path).parts:
            return
        for fn in ctx.nodes:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name in _SCHEDULING_PRIMITIVES:
                continue
            # Only this def's own loops: nested defs are visited as
            # their own ``fn`` by the outer scan (and checked against
            # the allowlist there), so don't descend into them here.
            stack: list = list(fn.body)
            while stack:
                node = stack.pop()
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                if isinstance(node, (ast.For, ast.While)):
                    for call in _schedule_calls(node.body):
                        yield ctx.finding(
                            self,
                            call,
                            f"loop in {fn.name!r} schedules one event "
                            "per iteration; serialise the batch under a "
                            "single completion event (see "
                            "_LinkServer._serve_next) or add the "
                            "function to the scheduling-primitive "
                            "allowlist",
                        )
                        break
                    continue  # one finding per outermost loop
                stack.extend(ast.iter_child_nodes(node))
