"""Checked-in complexity baseline for COST003.

``baseline.json`` (next to this module) records, for every
``@cost``-annotated function in the package, the asymptotic degree of
each declared quantity in each symbol.  COST003 fires only on
*increases* against this file — an annotation whose declared flops grow
from ``O(T**2)`` to ``O(T**3)`` must regenerate the baseline
deliberately (``python -m repro statcheck --update-cost-baseline``),
which makes complexity-class regressions reviewable in diffs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

_BASELINE_PATH = Path(__file__).parent / "baseline.json"


def load_packaged_baseline() -> Optional[Dict[str, dict]]:
    """The ``functions`` table of the packaged baseline, or ``None``."""
    try:
        data = json.loads(_BASELINE_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data.get("functions", {})


def compute_baseline(root: Path) -> Dict[str, dict]:
    """The current signature table for every annotated function of the
    package rooted at ``root`` (keys are ``relpath::qualname``)."""
    from ..index import package_index
    from .checks import cost_signature

    index = package_index(root)
    functions: Dict[str, dict] = {}
    for path in index.files:
        rel = path.relative_to(index.root).as_posix()
        for info in index.facts(path).contracts:
            if info.cost is None:
                continue
            key = f"{rel}::{info.qualname}"
            if key in functions:
                continue
            functions[key] = cost_signature(info.cost)
    return functions


def write_baseline(root: Path, out: Optional[Path] = None) -> Path:
    """Regenerate ``baseline.json`` from the package under ``root``."""
    target = out or _BASELINE_PATH
    payload = {"version": 1, "functions": compute_baseline(root)}
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target
