"""Shape-contract rule family (``SHAPE001``–``SHAPE006``).

All six rules are thin filters over the per-file
:class:`repro.statcheck.interp.ContractPass` (cached in
``Context.cache`` and shared with the COST rules), which collects
contracts from the whole enclosing package and abstractly interprets
every function once — see :mod:`repro.statcheck.interp` for the
interpreter, :mod:`repro.statcheck.shapes` for the other checks and
:mod:`repro.contracts` for the ``@shaped``/``@partitioned`` decorators
the pass consumes.
"""

from __future__ import annotations

from typing import Iterator

from ..engine import Context, Rule, register
from ..interp import contract_pass


class _ShapeRule(Rule):
    """Base: yield the pass events carrying this rule's id."""

    def check(self, ctx: Context) -> Iterator:
        for rule_id, node, message in contract_pass(ctx).events:
            if rule_id == self.id:
                yield ctx.finding(self, node, message)


@register
class ContractSpec(_ShapeRule):
    id = "SHAPE001"
    name = "shape-contract-spec"
    description = (
        "@shaped/@partitioned contract that does not parse, whose entry "
        "count disagrees with the function's positional signature, or "
        "that names unknown parameters."
    )


@register
class ShapeConflict(_ShapeRule):
    id = "SHAPE002"
    name = "shape-propagation-conflict"
    description = (
        "Interprocedural shape conflict: a call site passes a rank or "
        "symbolic dimension that contradicts the callee's @shaped "
        "contract, a return value contradicts the function's own "
        "contract, or tuple unpacking disagrees with a multi-value "
        "contract's arity."
    )


@register
class TransformConformance(_ShapeRule):
    id = "SHAPE003"
    name = "winograd-transform-conformance"
    description = (
        "np.tensordot whose contracted axes differ in size — e.g. a "
        "Cook-Toom chain contracting the wrong axis of B (T x T), "
        "G (T x r) or A (T x m): a flipped transpose in Equation 1 "
        "fails here."
    )


@register
class TileGeometry(_ShapeRule):
    id = "SHAPE004"
    name = "tile-geometry-arithmetic"
    description = (
        "Tile-geometry property (tile/out_*/tiles_*/padded_*) whose "
        "value, executed over a battery of small concrete layer sizes, "
        "disagrees with the paper's formulas (T = m + r - 1, "
        "tiles = ceil((H + 2p - r + 1) / m), ...)."
    )


@register
class PartitionContractRule(_ShapeRule):
    id = "SHAPE005"
    name = "partition-disjoint-cover"
    description = (
        "@partitioned function whose result, executed over a battery of "
        "(domain, parts) grids including the non-divisible ones dynamic "
        "clustering produces, is not a disjoint exact cover of "
        "range(domain) — or that cannot be statically verified at all."
    )


@register
class SliceConservation(_ShapeRule):
    id = "SHAPE006"
    name = "collective-slice-conservation"
    description = (
        "slice/chunk size computed as `total // n` without ragged "
        "bounds: the slices do not sum back to the message unless n "
        "divides it, so the collective silently moves fewer bytes than "
        "the plan's shape algebra says exist."
    )
