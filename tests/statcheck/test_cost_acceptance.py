"""Acceptance gates for the COST family over the real source tree.

The annotation-coverage floor, the no-escape-hatch guarantee for the
core Winograd kernels, family cleanliness, and baseline freshness (the
same staleness check CI runs).
"""

from __future__ import annotations

from pathlib import Path

from repro.statcheck import check_paths, render_text
from repro.statcheck.costs.baseline import compute_baseline, load_packaged_baseline
from repro.statcheck.index import file_facts

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
COST_FAMILY = ["COST001", "COST002", "COST003", "COST004", "COST005"]


def test_cost_family_clean_on_source_tree():
    findings = check_paths([SRC], select=COST_FAMILY)
    assert not findings, "\n" + render_text(findings)


def test_annotation_coverage_floor():
    # The tentpole ships with the hot kernels annotated — a refactor
    # that drops @cost coverage below the floor fails here.
    assert len(compute_baseline(SRC)) >= 25


def test_no_assume_in_winograd_kernels():
    # assume=True is the escape hatch for opaque externals; the core
    # Winograd kernels must all be fully derived.
    assumed = [
        f"{path.name}::{info.qualname}"
        for path in sorted((SRC / "winograd").rglob("*.py"))
        for info in file_facts(path).contracts
        if info.cost is not None and info.cost.assume
    ]
    assert assumed == []


def test_packaged_baseline_is_fresh():
    # Mirrors the CI staleness step: regenerating the baseline from the
    # tree must be a no-op against the checked-in file.
    packaged = load_packaged_baseline()
    assert packaged is not None, "statcheck/costs/baseline.json missing"
    assert packaged == compute_baseline(SRC), (
        "baseline.json is stale — run "
        "`python -m repro statcheck --update-cost-baseline`"
    )
