"""compare.py verdicts on synthetic runs."""

import pytest

from bench.compare import compare, verdict

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


def test_unchanged_within_bound():
    change = [v * 1.02 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.10)["verdict"] == "unchanged"


def test_better_needs_nine_of_ten_pairs_and_a_gap_beyond_the_iqr():
    change = [v * 0.8 for v in PARENT]
    row = verdict(PARENT, change, "lower", 0.10)
    assert row["verdict"] == "better" and row["wins"] == 10
    # Higher-is-better metrics flip the direction.
    assert verdict(PARENT, change, "higher", 0.10)["verdict"] == "worse"


def test_worse_beyond_bound():
    change = [v * 1.2 for v in PARENT]
    row = verdict(PARENT, change, "lower", 0.10)
    assert row["verdict"] == "worse"
    assert row["delta"] > 0.19


def test_unresolved_when_spread_exceeds_bound():
    noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
    assert verdict(PARENT, noisy, "lower", 0.10)["verdict"] == "unresolved"


def test_clear_win_despite_spread_is_not_unresolved():
    parent = [2.0, 3.0, 2.2, 2.8, 2.4, 2.6, 2.1, 2.9, 2.5, 2.5]
    change = [1.0, 1.5, 1.1, 1.4, 1.2, 1.3, 1.0, 1.5, 1.2, 1.3]
    assert verdict(parent, change, "lower", 0.10)["verdict"] == "better"


SPEC = {"workloads": [{"name": "plan"}],
        "end_to_end": [{"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
                       {"name": "ops_per_s", "unit": "ops/s", "better": "higher",
                        "bound": 0.1}]}


def _runs(scale):
    return {"plan": [{"metrics": {"op_p50_s": {"value": v * scale},
                                  "ops_per_s": {"value": 1 / (v * scale)}}}
                     for v in PARENT]}


def test_compare_rows_per_workload_and_metric():
    rows = compare(_runs(1.0), _runs(1.5), SPEC)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("plan", "op_p50_s", "worse"), ("plan", "ops_per_s", "worse")]


def test_compare_needs_every_workload_on_both_sides():
    with pytest.raises(ValueError, match="no change results"):
        compare(_runs(1.0), {}, SPEC)
