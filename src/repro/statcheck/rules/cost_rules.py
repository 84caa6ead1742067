"""Symbolic cost rule family (``COST001``–``COST005``).

Thin filters over the per-file
:class:`repro.statcheck.interp.ContractPass` (cached in
``Context.cache`` and shared with the SHAPE rules), whose single walk
per function derives FLOP/bytes-moved polynomials for every
``@cost``-annotated kernel; :mod:`repro.statcheck.costs.checks` checks
them against the declarations and the paper's analytical model.
"""

from __future__ import annotations

from typing import Iterator

from ..engine import Context, Rule, register
from ..interp import contract_pass


class _CostRule(Rule):
    """Base: yield the pass events carrying this rule's id."""

    def check(self, ctx: Context) -> Iterator:
        for rule_id, node, message in contract_pass(ctx).events:
            if rule_id == self.id:
                yield ctx.finding(self, node, message)


@register
class CostDeclaration(_CostRule):
    id = "COST001"
    name = "cost-declaration-conformance"
    description = (
        "@cost-annotated kernel whose FLOP, bytes-moved or return "
        "polynomial, derived by abstract interpretation of the body "
        "(loops summed in closed form, numpy intrinsics from the cost "
        "table, callees by declared summary), disagrees with the "
        "declaration — or whose body leaves the derivable fragment."
    )


@register
class TrafficModelConformance(_CostRule):
    id = "COST002"
    name = "traffic-model-conformance"
    description = (
        "Communication-volume helper whose declared byte polynomial "
        "disagrees with the comm_model analytical factors (the "
        "(n_g-1)/n_g remote fraction of scatter/gather traffic, the "
        "2*(n_c-1) per-slice ring all-reduce volume), or a layer "
        "machine counting traffic without routing through the checked "
        "helpers."
    )


@register
class ComplexityBaseline(_CostRule):
    id = "COST003"
    name = "cost-complexity-baseline"
    description = (
        "Declared cost polynomial whose asymptotic degree in some "
        "symbol grew versus the checked-in complexity baseline "
        "(statcheck/costs/baseline.json) — complexity-class regressions "
        "must regenerate the baseline deliberately."
    )


@register
class CollectiveWireBytes(_CostRule):
    id = "COST004"
    name = "collective-wire-bytes"
    description = (
        "Collective wire-byte helper whose declared polynomial "
        "disagrees with the algorithm's closed form (ring all-reduce "
        "moves 2*(n-1) slices of M/n bytes; all-to-all moves n*(n-1) "
        "pair payloads), or a simulator module missing the checked "
        "helper."
    )


@register
class MemoKeyCoverage(_CostRule):
    id = "COST005"
    name = "memo-key-cost-coverage"
    description = (
        "@memoize_sweep function whose declared cost depends on a "
        "symbol the memo key (the function arguments) cannot determine "
        "— cached results would be silently reused across inputs with "
        "different cost."
    )
