"""Tests for the SHAPE001-SHAPE006 rule family.

Two layers of coverage: inline snippets exercising each rule's trigger
and clean cases, and *seeded mutations* — copies of the real kernel
sources with one classic Winograd bug injected (a flipped transform
transpose, an off-by-one tile count, overlapping group slices, a
remainder-dropping slice split), each of which must produce the
expected finding.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.statcheck import check_source

REPO = Path(__file__).resolve().parents[2]
COOK_TOOM = REPO / "src" / "repro" / "winograd" / "cook_toom.py"
TILING = REPO / "src" / "repro" / "winograd" / "tiling.py"
PARTITION = REPO / "src" / "repro" / "core" / "partition.py"
COLLECTIVES = REPO / "src" / "repro" / "netsim" / "collectives.py"


def rules_of(findings):
    return [f.rule for f in findings]


def mutate(path: Path, old: str, new: str, count: int = 1) -> str:
    """Return the file's source with ``old`` replaced ``count`` times,
    asserting the anchor still exists (so mutations fail loudly when the
    kernel is refactored rather than silently testing nothing)."""
    source = path.read_text()
    assert source.count(old) >= count, f"mutation anchor gone from {path.name}: {old!r}"
    return source.replace(old, new, count)


class TestShape001ContractSpec:
    def test_unparseable_spec_flagged(self):
        findings = check_source(
            "from repro.contracts import shaped\n"
            '@shaped("(N,C -> (N)")\n'
            "def f(x):\n"
            "    return x\n",
            select=["SHAPE001"],
        )
        assert rules_of(findings) == ["SHAPE001"]

    def test_arity_mismatch_flagged(self):
        findings = check_source(
            "from repro.contracts import shaped\n"
            '@shaped("(N), (N) -> (N)")\n'
            "def f(x):\n"
            "    return x\n",
            select=["SHAPE001"],
        )
        assert rules_of(findings) == ["SHAPE001"]
        assert "entries" in findings[0].message or "positional" in findings[0].message

    def test_unknown_partition_param_flagged(self):
        findings = check_source(
            "from repro.contracts import partitioned\n"
            '@partitioned(domain="n", parts="k")\n'
            "def f(total, k):\n"
            "    return [[i] for i in range(total)]\n",
            select=["SHAPE001"],
        )
        assert rules_of(findings) == ["SHAPE001"]

    def test_valid_spec_clean(self):
        findings = check_source(
            "from repro.contracts import shaped\n"
            '@shaped("(N,C), _ -> (N)")\n'
            "def f(x, axis):\n"
            "    return x.sum(axis=axis)\n",
            select=["SHAPE001"],
        )
        assert findings == []


class TestShape002Propagation:
    GOOD = """
from repro.contracts import shaped

@shaped("(B,C,H,W) -> (B,C,H,W)")
def ident(x):
    return x

@shaped("(B,C,H,W) -> (B,C)")
def pool(x):
    y = ident(x)
    return pool_impl(y)

def pool_impl(y):
    return y
"""

    def test_consistent_chain_clean(self):
        assert check_source(self.GOOD, select=["SHAPE002"]) == []

    def test_swapped_arguments_flagged(self):
        source = """
from repro.contracts import shaped

@shaped("(B,I,H,W), (J,I,R,R) -> (B,J,H,W)")
def conv(x, w):
    return x

@shaped("(B,I,H,W), (J,I,R,R) -> (B,J,H,W)")
def model(x, w):
    return conv(w, x)
"""
        findings = check_source(source, select=["SHAPE002"])
        assert "SHAPE002" in rules_of(findings)

    def test_tuple_unpack_arity_flagged(self):
        source = """
from repro.contracts import shaped

@shaped("(N) -> (N), (N)")
def pair(x):
    return x, x

def use(x):
    a, b, c = pair(x)
    return a
"""
        findings = check_source(source, select=["SHAPE002"])
        assert "SHAPE002" in rules_of(findings)

    SWAPPED_CALLEE = """
from repro.contracts import shaped

@shaped("(B,I,H,W), (J,I,R,R) -> (B,J,H,W)")
def conv(x, w):
    return x
"""

    def test_swapped_arguments_in_while_body_flagged(self):
        source = self.SWAPPED_CALLEE + """
@shaped("(B,I,H,W), (J,I,R,R), S -> (B,I,H,W)")
def model(x, w, steps):
    while steps:
        conv(w, x)
        steps -= 1
    return x
"""
        findings = check_source(source, select=["SHAPE002"])
        assert "SHAPE002" in rules_of(findings)

    def test_swapped_arguments_after_comprehension_flagged(self):
        source = self.SWAPPED_CALLEE + """
@shaped("(B,I,H,W), (J,I,R,R) -> (B,I,H,W)")
def model(x, w):
    sizes = [n for n in range(3)]
    conv(w, x)
    return x
"""
        findings = check_source(source, select=["SHAPE002"])
        assert "SHAPE002" in rules_of(findings)

    def test_flipped_weight_transform_return_dims_flagged(self):
        # The flipped-G chain ends in (..., R, T) where the contract
        # declares (..., T, T): an ellipsis operand's trailing dims.
        mutated = mutate(
            COOK_TOOM,
            "out = np.tensordot(w, self.G, axes=([-2], [1]))",
            "out = np.tensordot(w, self.G, axes=([-2], [0]))",
        )
        findings = check_source(mutated, select=["SHAPE002"])
        assert rules_of(findings) == ["SHAPE002"]
        assert "returns dim 0 = R" in findings[0].message

    def test_real_tree_is_clean(self):
        for path in (COOK_TOOM, TILING, PARTITION, COLLECTIVES):
            findings = check_source(
                path.read_text(), path=str(path), select=["SHAPE002"]
            )
            assert findings == [], f"{path.name}: {findings}"


class TestShape003TransformConformance:
    def test_real_cook_toom_clean(self):
        findings = check_source(
            COOK_TOOM.read_text(), path=str(COOK_TOOM), select=["SHAPE003"]
        )
        assert findings == []

    def test_flipped_weight_transform_flagged(self):
        # Classic Eq. 1 bug: G w G^T applied as if G were square — the
        # contraction takes G's T-axis instead of its r-axis.
        mutated = mutate(
            COOK_TOOM,
            "out = np.tensordot(w, self.G, axes=([-2], [1]))",
            "out = np.tensordot(w, self.G, axes=([-2], [0]))",
        )
        findings = check_source(mutated, select=["SHAPE003"])
        assert "SHAPE003" in rules_of(findings)
        assert any("G" in f.message for f in findings)

    def test_any_tensordot_with_mismatched_axes_flagged(self):
        # Not a Cook-Toom matrix: the contracted sizes K and M differ.
        source = """
import numpy as np
from repro.contracts import shaped

@shaped("(N,K), (M,J) -> (N,J)")
def project(a, b):
    return np.tensordot(a, b, axes=([1], [0]))
"""
        findings = check_source(source, select=["SHAPE003"])
        assert rules_of(findings) == ["SHAPE003"]
        assert "(size K)" in findings[0].message
        assert "(size M)" in findings[0].message

    def test_flipped_inverse_transform_flagged(self):
        mutated = mutate(
            COOK_TOOM,
            "out = np.tensordot(Y, self.A, axes=([-2], [0]))",
            "out = np.tensordot(Y, self.A, axes=([-2], [1]))",
        )
        findings = check_source(mutated, select=["SHAPE003"])
        assert "SHAPE003" in rules_of(findings)


class TestShape004TileGeometry:
    def test_real_tile_grid_clean(self):
        findings = check_source(
            TILING.read_text(), path=str(TILING), select=["SHAPE004"]
        )
        assert findings == []

    def test_floor_division_tile_count_flagged(self):
        # Off-by-one tile count: floor instead of ceil drops the ragged
        # final tile whenever m does not divide the output size.
        mutated = mutate(
            TILING,
            "return math.ceil(self.out_height / self.m)",
            "return self.out_height // self.m",
        )
        findings = check_source(mutated, select=["SHAPE004"])
        assert "SHAPE004" in rules_of(findings)
        assert any("tiles_high" in f.message for f in findings)

    def test_output_size_off_by_one_flagged(self):
        mutated = mutate(
            TILING,
            "return self.height + 2 * self.pad - self.r + 1",
            "return self.height + 2 * self.pad - self.r",
        )
        findings = check_source(mutated, select=["SHAPE004"])
        assert "SHAPE004" in rules_of(findings)


class TestShape005Partition:
    def test_real_partitions_clean(self):
        findings = check_source(
            PARTITION.read_text(), path=str(PARTITION), select=["SHAPE005"]
        )
        assert findings == []

    def test_overlapping_slices_flagged(self):
        # Overlap: group g grabs every element with residue <= g, so all
        # elements with residue 0 are owned by every group.
        mutated = mutate(
            PARTITION,
            "return [[e for e in range(t2) if e % ng == g] for g in range(ng)]",
            "return [[e for e in range(t2) if e % ng <= g] for g in range(ng)]",
        )
        findings = check_source(mutated, select=["SHAPE005"])
        assert "SHAPE005" in rules_of(findings)

    def test_dropped_remainder_flagged(self):
        # Coverage gap: floor-divided shards lose batch % nc samples.
        mutated = mutate(
            PARTITION,
            """    if batch % nc:
        raise ValueError(f"batch {batch} not divisible by {nc} clusters")
    per = batch // nc""",
            "    per = batch // nc",
        )
        findings = check_source(mutated, select=["SHAPE005"])
        assert "SHAPE005" in rules_of(findings)

    def test_impure_partition_reported_unverifiable(self):
        source = """
from repro.contracts import partitioned
import os

@partitioned(domain="n", parts="k")
def f(n, k):
    os.urandom(1)
    return [[i for i in range(n)]] + [[] for _ in range(k - 1)]
"""
        findings = check_source(source, select=["SHAPE005"])
        assert "SHAPE005" in rules_of(findings)
        assert any("statically" in f.message for f in findings)


class TestShape006SliceConservation:
    def test_real_collectives_clean(self):
        findings = check_source(
            COLLECTIVES.read_text(), path=str(COLLECTIVES), select=["SHAPE006"]
        )
        assert findings == []

    def test_remainder_dropping_split_flagged(self):
        # The pre-fix slicing: floor-divided equal slices inside the
        # ring_slice_sizes helper that ring_allreduce now delegates to.
        mutated = mutate(
            COLLECTIVES,
            """    bounds = [round(i * message_bytes / n) for i in range(n + 1)]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]""",
            "    slice_bytes = max(1, message_bytes // n)\n"
            "    return [slice_bytes] * n",
        )
        findings = check_source(mutated, select=["SHAPE006"])
        assert "SHAPE006" in rules_of(findings)

    def test_ragged_bounds_clean(self):
        source = """
def split(message_bytes, n):
    bounds = [round(i * message_bytes / n) for i in range(n + 1)]
    slice_sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    return slice_sizes
"""
        assert check_source(source, select=["SHAPE006"]) == []

    def test_ring_index_modulo_not_confused_with_remainder(self):
        # `(pos + 1) % n` is ring arithmetic, not remainder handling — it
        # must NOT suppress the finding.
        source = """
def relay(message_bytes, n, pos):
    slice_bytes = message_bytes // n
    nxt = (pos + 1) % n
    return slice_bytes, nxt
"""
        findings = check_source(source, select=["SHAPE006"])
        assert rules_of(findings) == ["SHAPE006"]


class TestPropagationStats:
    """The acceptance bar: the pass actually consumes contracts across
    every annotated subsystem, not just defines them."""

    def test_contract_counts(self):
        from repro.statcheck.interp import collect_stats

        stats = collect_stats([str(REPO / "src" / "repro")])
        by_subsystem = {}
        for path, st in stats.items():
            rel = Path(path).relative_to(REPO / "src" / "repro")
            sub = rel.parts[0] if len(rel.parts) > 1 else rel.name
            agg = by_subsystem.setdefault(sub, [0, 0, 0])
            agg[0] += st.contracts_defined + st.partitions_defined
            agg[1] += st.calls_resolved
            agg[2] += st.dims_unified

        total_defined = sum(v[0] for v in by_subsystem.values())
        assert total_defined >= 25, by_subsystem

        for sub in ("winograd", "nn", "core", "netsim"):
            defined, resolved, _ = by_subsystem[sub]
            assert defined > 0, f"{sub} defines no contracts"
            assert resolved > 0, f"{sub} resolves no contracted calls"

        assert sum(v[2] for v in by_subsystem.values()) > 50


class TestSuppression:
    def test_pragma_suppresses_shape_finding(self):
        source = (
            "from repro.contracts import shaped\n"
            '@shaped("(N), (N) -> (N)")  # statcheck: ignore[SHAPE001]\n'
            "def f(x):\n"
            "    return x\n"
        )
        assert check_source(source, select=["SHAPE001"]) == []
