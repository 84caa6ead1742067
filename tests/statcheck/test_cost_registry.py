"""Regression: one package index serves the SHAPE, COST and EFF families.

Both interpreter families read the one per-file
:class:`~repro.statcheck.interp.ContractPass`, which resolves call sites
through the package index (:mod:`repro.statcheck.index`); the effect
rules read the same index's effect link.  These tests pin that a run
builds each table once per package and collects each file's facts once,
so no family can silently regrow its own walker or cache.
"""

from __future__ import annotations

import ast
import os
import shutil
from collections import Counter
from pathlib import Path

from repro.statcheck import check_paths, index, iter_python_files
from repro.statcheck.index import file_facts
from repro.statcheck.interp import ContractPass
from repro.statcheck.registry import AMBIGUOUS

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
FILES = [
    REPO / "src" / "repro" / "winograd" / "conv.py",
    REPO / "src" / "repro" / "core" / "functional.py",
    REPO / "src" / "repro" / "netsim" / "collectives.py",
]


def _pass(path: Path) -> ContractPass:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ContractPass(str(path), tree)


def _counting(counts: Counter, fn, key):
    def wrapper(*args, **kwargs):
        counts[key(*args, **kwargs)] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_one_index_per_run(monkeypatch):
    monkeypatch.setattr(index, "_FACTS", {})
    monkeypatch.setattr(index, "_INDEXES", {})
    tables, collected, parses = Counter(), Counter(), Counter()
    monkeypatch.setattr(index, "build_resolution", _counting(
        tables, index.build_resolution, lambda defs: "resolution"))
    monkeypatch.setattr(index, "link_package", _counting(
        tables, index.link_package, lambda modules, root: "link"))
    monkeypatch.setattr(index, "collect_module", _counting(
        collected, index.collect_module, lambda tree, key: key))
    # Every parsed tree remembers its file, so a walk rooted at a module
    # is charged to the file it came from.
    owners, module_walks = {}, Counter()
    real_parse, real_walk = ast.parse, ast.walk

    def parse(source, filename="<unknown>", *rest, **kw):
        parses[filename] += 1
        tree = real_parse(source, filename, *rest, **kw)
        owners[tree] = filename
        return tree

    def walk(node):
        if isinstance(node, ast.Module):
            module_walks[owners.get(node)] += 1
        return real_walk(node)

    monkeypatch.setattr(ast, "parse", parse)
    monkeypatch.setattr(ast, "walk", walk)

    assert check_paths([SRC]) == []

    files = {str(path) for path in iter_python_files([SRC])}
    assert tables == {"resolution": 1, "link": 1}
    assert set(collected) == files
    assert {k: n for k, n in collected.items() if n != 1} == {}
    assert max(parses[name] for name in files) == 2
    # One traversal per parsed tree (the index's and the engine's): the
    # rules share the engine's node list instead of walking again.
    assert {k: n for k, n in module_walks.items() if n > 2} == {}
    assert set(module_walks) <= files


def test_registry_carries_cost_contracts():
    # The interpreter resolves callee summaries through the same table
    # SHAPE002 unifies against — the entries must carry the @cost payloads.
    contracts = _pass(FILES[0])  # winograd/conv.py
    entry = contracts.registry["extract_tiles"]
    assert entry is not AMBIGUOUS
    assert entry.cost is not None and entry.cost.mem is not None


def test_file_facts_are_cached_per_stamp(tmp_path):
    path = tmp_path / "collectives.py"
    shutil.copyfile(FILES[2], path)
    first = file_facts(path)
    assert file_facts(path) is first  # parsed exactly once
    assert first.contracts and first.module is not None

    stat = path.stat()
    path.write_text(path.read_text() + "\n\ndef added():\n    return 0\n")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    second = file_facts(path)
    assert second is not first
    assert "added" in {fn.name for fn in second.module.functions}
