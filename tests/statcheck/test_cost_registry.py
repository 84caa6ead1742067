"""Regression: the SHAPE and COST families share one contract registry.

Both families' rules read the one per-file
:class:`~repro.statcheck.interp.ContractPass`, which resolves call sites
through :mod:`repro.statcheck.registry` (the shared, cached contract table);
this pins that the table is built once per analysed file, so neither
family can silently regrow its own collection logic.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.statcheck import check_source, interp
from repro.statcheck.interp import ContractPass
from repro.statcheck.registry import AMBIGUOUS, _file_contracts

REPO = Path(__file__).resolve().parents[2]
FILES = [
    REPO / "src" / "repro" / "winograd" / "conv.py",
    REPO / "src" / "repro" / "core" / "functional.py",
    REPO / "src" / "repro" / "netsim" / "collectives.py",
]


def _pass(path: Path) -> ContractPass:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ContractPass(str(path), tree)


def test_both_families_build_the_registry_once(monkeypatch):
    calls = []
    real = interp.registry_for

    def counting(path, own):
        calls.append(path)
        return real(path, own)

    monkeypatch.setattr(interp, "registry_for", counting)
    path = FILES[1]
    findings = check_source(
        path.read_text(encoding="utf-8"),
        path=str(path),
        select=["SHAPE001", "SHAPE002", "SHAPE003", "COST001", "COST002"],
    )
    assert findings == []
    assert calls == [str(path)]


def test_registry_carries_cost_contracts():
    # The interpreter resolves callee summaries through the same table
    # SHAPE002 unifies against — the entries must carry the @cost payloads.
    contracts = _pass(FILES[0])  # winograd/conv.py
    entry = contracts.registry["extract_tiles"]
    assert entry is not AMBIGUOUS
    assert entry.cost is not None and entry.cost.mem is not None


def test_file_collection_is_cached():
    path = FILES[2]
    first = _file_contracts(path)
    second = _file_contracts(path)
    assert first is second  # mtime/size-keyed cache: parsed exactly once
