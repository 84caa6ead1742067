"""Effect rules (``EFF001``-``EFF003``, ``COMM001``).

Built on the interprocedural effect inference in
:mod:`repro.statcheck.effects`:

``EFF001``
    A function registered with ``memoize_sweep`` (or anything it
    reaches) must be pure modulo its canonicalized arguments — the
    cache key *is* the claim that nothing else influences the result.
    Argument mutation, mutable-global reads/writes, ``os.environ``,
    unseeded RNG, wall-clock and filesystem access are findings, each
    attributed to the definition that introduced the effect.

``EFF002``
    ``@shaped``/``@partitioned`` contracts assume value semantics: the
    checked function must not mutate its (transitively reached)
    arguments.

``EFF003``
    Fault hooks must stay behind the ``faults is not None`` guard in
    ``netsim``/``faults`` sources — the zero-cost-when-disabled
    promise of the resilience layer (see
    :mod:`repro.statcheck.effects.guards`).

``COMM001``
    Collective entry points are executed over a node/size battery and
    must conserve wire bytes (``2(n-1)·M`` ring/tree, ``n(n-1)·B``
    all-to-all) with terminating callback chains (see
    :mod:`repro.statcheck.effects.comm`).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List

from ..effects import describe, effect_pass
from ..effects.comm import check_collectives
from ..effects.guards import check_guards
from ..engine import Context, Rule, register
from ..index import file_key, index_of
from ..registry import _decorator_name


def _memoized_defs(nodes: List[ast.AST]) -> Iterator[ast.FunctionDef]:
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if _decorator_name(dec) == "memoize_sweep":
                    yield node
                    break


@register
class MemoizedFunctionImpurity(Rule):
    id = "EFF001"
    name = "memoized-function-impurity"
    description = (
        "A `memoize_sweep` function (or anything it reaches) depends on "
        "or modifies state outside its canonicalized arguments — the "
        "cached value can go stale or corrupt downstream sweeps."
    )

    def check(self, ctx: Context) -> Iterator:
        memoized = list(_memoized_defs(ctx.nodes))
        if not memoized:
            return
        analysis, key = effect_pass(ctx), file_key(ctx.path)
        for fn in memoized:
            summary = analysis.summary(key, fn.name)
            if summary is None:
                # Method-qualified memoized defs (unused today): fall
                # back on a qualname scan within this file.
                candidates = [
                    s for s in analysis.functions_in(key)
                    if s.qualname.rsplit(".", 1)[-1] == fn.name
                    and s.lineno == fn.lineno
                ]
                summary = candidates[0] if candidates else None
            if summary is None:
                continue
            for atom in summary.transitive.impure:
                origin = summary.origin_of(atom)
                via = "" if origin == summary.qualname else f" (via `{origin}`)"
                yield ctx.finding(
                    self, fn,
                    f"memoized `{fn.name}` {describe(atom)}{via}; the "
                    "sweep cache key cannot see this, so entries go "
                    "stale or alias",
                )


@register
class ContractArgumentMutation(Rule):
    id = "EFF002"
    name = "contract-argument-mutation"
    description = (
        "A `@shaped`/`@partitioned` function mutates one of its "
        "arguments; shape/partition contracts assume value semantics."
    )

    def check(self, ctx: Context) -> Iterator:
        key = file_key(ctx.path)
        contracts = index_of(ctx).facts(key).contracts
        if not contracts:
            return
        analysis = effect_pass(ctx)
        for contract in contracts:
            summary = analysis.summary(key, contract.qualname)
            if summary is None:
                continue
            # `_` slots in a @shaped spec are explicitly uncontracted
            # (simulator handles, grids, config records); only params
            # the contract actually describes promise value semantics.
            if contract.contract is not None:
                covered = {
                    p
                    for p, spec in zip(contract.params, contract.contract.args)
                    if spec.kind != "skip"
                }
            else:
                covered = set(contract.params)
            for kind, detail in summary.transitive.impure:
                if kind != "mutates" or detail not in covered:
                    continue
                origin = summary.origin_of((kind, detail))
                via = (
                    "" if origin == summary.qualname
                    else f" (via `{origin}`)"
                )
                yield ctx.finding(
                    self, contract.node,
                    f"contracted `{contract.qualname}` mutates argument "
                    f"`{detail}`{via}; the contract promises value "
                    "semantics for its operands",
                )


@register
class FaultHookEscapesGuard(Rule):
    id = "EFF003"
    name = "fault-hook-escapes-guard"
    description = (
        "A faults value is dereferenced outside an `is not None` guard; "
        "fault hooks must be zero-cost when disabled."
    )

    def check(self, ctx: Context) -> Iterator:
        parts = Path(ctx.path).parts
        if "netsim" not in parts and "faults" not in parts:
            return
        for finding in check_guards(ctx.tree):
            anchor = ast.Pass()
            anchor.lineno = finding.lineno
            anchor.col_offset = finding.col
            yield ctx.finding(
                self, anchor,
                f"`{finding.chain}.{finding.attr}` dereferenced without "
                "an `is not None` guard; when faults are disabled this "
                "path must not exist",
            )


@register
class CollectiveStepConservation(Rule):
    id = "COMM001"
    name = "collective-step-conservation"
    description = (
        "A collective's send/recv callback chains must terminate and "
        "put exactly the conserved byte volume on the wire "
        "(2(n-1)·M ring/tree, n(n-1)·B all-to-all), verified by "
        "execution over a node/size battery."
    )

    def check(self, ctx: Context) -> Iterator:
        for finding in check_collectives(ctx.tree, ctx.path):
            anchor = ast.Pass()
            anchor.lineno = finding.lineno
            anchor.col_offset = 0
            yield ctx.finding(
                self, anchor,
                f"collective `{finding.name}`: {finding.message}",
            )
