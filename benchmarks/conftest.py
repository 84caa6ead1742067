"""Shared helpers for the figure-regeneration benchmarks.

Each ``bench_figNN`` module regenerates the data of one paper figure or
table and prints it (with the paper's reported values for comparison);
``pytest benchmarks/ --benchmark-only`` times the regeneration itself.

A session hook also runs the repo's static-analysis suite over the
source tree and records the finding count in the benchmark machine-info
blob, so saved benchmark JSON ties every perf number to the lint state
of the tree that produced it.
"""

from pathlib import Path
from typing import Dict, Iterable, List

import pytest

from repro.analysis import format_table
from repro.statcheck import check_paths

_REPO = Path(__file__).resolve().parents[1]


def statcheck_summary() -> Dict[str, int]:
    """Finding counts of the statcheck suite over the source tree."""
    findings = check_paths([_REPO / "src" / "repro"])
    return {
        "statcheck_findings": len(findings),
        "statcheck_errors": sum(1 for f in findings if f.severity.value == "error"),
    }


def pytest_benchmark_update_machine_info(config, machine_info):
    """pytest-benchmark hook: stamp lint state into saved benchmark JSON."""
    machine_info.update(statcheck_summary())


@pytest.fixture(scope="session", autouse=True)
def report_statcheck_state(request):
    """Print the lint state once per benchmark session so interactive
    runs see drift immediately (saved JSON carries it via machine_info)."""
    summary = statcheck_summary()
    yield
    print(
        f"\nstatcheck over src/repro: {summary['statcheck_findings']} findings "
        f"({summary['statcheck_errors']} errors)"
    )


def print_figure(title: str, rows: Iterable[Dict], note: str = "") -> None:
    rows = list(rows)
    print()
    print("=" * 78)
    print(title)
    if note:
        print(note)
    print("=" * 78)
    if not rows:
        print("(no rows)")
        return
    keys: List[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    table_rows = [[row.get(k, "") for k in keys] for row in rows]
    print(format_table(keys, table_rows))
