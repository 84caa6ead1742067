"""Determinism lint (``DET001``–``DET006``).

The event engine, the collectives and the task scheduler all assume a
bit-reproducible run: every tie-break, iteration order and random draw
must be fixed by the inputs.  These rules flag the constructs that break
that silently across processes (hash-randomised set order, ``id()``
values, unseeded generators) or across refactors (shared constant-seed
fallbacks, float equality on accumulated simulated time).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set

from ..effects.collect import (
    _NUMPY_LEGACY,
    _STDLIB_RANDOM,
    _canonical,
    _dotted,
    module_aliases,
)
from ..engine import Context, Rule, register
from .units import unit_pass


def _aliases(ctx: Context) -> Dict[str, str]:
    """The file's import aliases, computed once for all DET rules."""
    cached = ctx.cache.get("module_aliases")
    if cached is None:
        cached = ctx.cache["module_aliases"] = module_aliases(ctx.nodes)
    return cached


def _is_constant_seed(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, int)


@register
class UnseededRandom(Rule):
    id = "DET001"
    name = "unseeded-random"
    description = (
        "Unseeded np.random.default_rng()/SeedSequence(), legacy "
        "np.random.* global-state calls, or stdlib random.* calls — all "
        "draw from process-global or entropy-seeded state."
    )

    def check(self, ctx: Context) -> Iterator:
        aliases = _aliases(ctx)
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            canonical = _canonical(dotted, aliases)
            if canonical in (
                "numpy.random.default_rng",
                "numpy.random.SeedSequence",
            ):
                unseeded = not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if unseeded and not node.keywords:
                    yield ctx.finding(
                        self,
                        node,
                        f"{canonical.rsplit('.', 1)[1]}() without a seed draws "
                        "OS entropy; thread a seeded generator instead",
                    )
            elif (
                canonical.startswith("numpy.random.")
                and canonical.rsplit(".", 1)[1] in _NUMPY_LEGACY
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"legacy global-state call {dotted}(); use a seeded "
                    "np.random.Generator",
                )
            elif (
                canonical.startswith("random.")
                and canonical.rsplit(".", 1)[1] in _STDLIB_RANDOM
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"stdlib {dotted}() uses process-global state; use a "
                    "seeded np.random.Generator",
                )


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "difference", "union", "intersection", "symmetric_difference",
        ):
            return _is_set_expr(node.func.value, set_names) or any(
                _is_set_expr(arg, set_names) for arg in node.args
            )
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


@register
class SetIterationOrder(Rule):
    id = "DET002"
    name = "set-iteration-order"
    description = (
        "Iterating (or materialising) a set in an order-sensitive "
        "position; set order depends on hashing, which is randomised for "
        "strings — sort first when the order feeds scheduling."
    )

    def check(self, ctx: Context) -> Iterator:
        set_names: Set[str] = set()
        for node in ctx.nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if _is_set_expr(node.value, set_names):
                        set_names.add(target.id)
                    else:
                        set_names.discard(target.id)
        for node in ctx.nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(
                node.iter, set_names
            ):
                yield ctx.finding(
                    self, node, "for-loop iterates a set in hash order; "
                    "wrap the iterable in sorted()"
                )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for comp in node.generators:
                    if _is_set_expr(comp.iter, set_names):
                        yield ctx.finding(
                            self, node, "comprehension iterates a set in hash "
                            "order; wrap the iterable in sorted()"
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and node.args
                and _is_set_expr(node.args[0], set_names)
            ):
                yield ctx.finding(
                    self, node, f"{node.func.id}() of a set materialises hash "
                    "order; use sorted() instead"
                )


@register
class FloatTimeEquality(Rule):
    id = "DET003"
    name = "float-time-equality"
    description = (
        "== / != between two seconds-dimension expressions; accumulated "
        "float simulated time must be compared with tolerances or event "
        "ordering, never exact equality."
    )

    def check(self, ctx: Context) -> Iterator:
        for node in unit_pass(ctx).time_eq_nodes:
            yield ctx.finding(
                self,
                node,
                "float equality between simulated-time expressions; use an "
                "epsilon or compare event ordering instead",
            )


@register
class IdentityOrdering(Rule):
    id = "DET004"
    name = "identity-ordering"
    description = (
        "id() used as a dict/set key or ordering tie-break; CPython "
        "addresses change run to run, so any ordering or serialisation "
        "derived from them is process-nondeterministic."
    )

    def check(self, ctx: Context) -> Iterator:
        for node in ctx.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and len(node.args) == 1
                and not node.keywords
            ):
                yield ctx.finding(
                    self,
                    node,
                    "id()-derived keys/ordering differ between runs; key on a "
                    "stable index or name instead",
                )


#: Packages whose results must be pure functions of their inputs: the
#: event engine and the fault subsystem both promise bit-reproducible
#: replays, so the wall clock may never leak into them.
_SIMULATED_TIME_PACKAGES = ("netsim", "faults")

#: `time.<fn>` entry points that read the host clock.
_WALL_CLOCK = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}


@register
class WallClockInSimulation(Rule):
    id = "DET006"
    name = "wall-clock-in-simulation"
    description = (
        "time.time()/time.perf_counter()-style host-clock reads inside "
        "repro.netsim or repro.faults; these packages run on the "
        "simulated clock and must replay bit-identically, so timestamps "
        "must come from the event engine, never the host."
    )

    def check(self, ctx: Context) -> Iterator:
        parts = Path(ctx.path).parts
        if not any(pkg in parts for pkg in _SIMULATED_TIME_PACKAGES):
            return
        aliases = _aliases(ctx)
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            canonical = _canonical(dotted, aliases)
            head, _, fn = canonical.rpartition(".")
            if head == "time" and fn in _WALL_CLOCK:
                yield ctx.finding(
                    self,
                    node,
                    f"{dotted}() reads the host clock inside a "
                    "simulated-time package; use the event engine's "
                    "`now` instead",
                )
            elif canonical in ("datetime.datetime.now", "datetime.datetime.utcnow"):
                yield ctx.finding(
                    self,
                    node,
                    f"{dotted}() reads the host clock inside a "
                    "simulated-time package; thread timestamps in as data",
                )


@register
class ConstantSeedFallback(Rule):
    id = "DET005"
    name = "constant-seed-fallback"
    description = (
        "`rng or np.random.default_rng(0)`-style fallback: every caller "
        "that omits rng silently shares one constant seed, making "
        "'independent' components identical. Thread one seeded generator "
        "from the constructor instead."
    )

    def check(self, ctx: Context) -> Iterator:
        aliases = _aliases(ctx)

        def is_const_default_rng(node: ast.expr) -> bool:
            if not isinstance(node, ast.Call):
                return False
            dotted = _dotted(node.func)
            if dotted is None:
                return False
            return (
                _canonical(dotted, aliases) == "numpy.random.default_rng"
                and len(node.args) == 1
                and _is_constant_seed(node.args[0])
            )

        for node in ctx.nodes:
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                for value in node.values[1:]:
                    if is_const_default_rng(value):
                        yield ctx.finding(
                            self,
                            node,
                            "constant-seed default_rng fallback shares one "
                            "stream across callers; require/thread a generator",
                        )
            elif isinstance(node, ast.IfExp):
                for branch in (node.body, node.orelse):
                    if is_const_default_rng(branch):
                        yield ctx.finding(
                            self,
                            node,
                            "constant-seed default_rng fallback shares one "
                            "stream across callers; require/thread a generator",
                        )
