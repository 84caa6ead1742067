"""Repo-specific static analysis (``python -m repro.statcheck``).

The whole reproduction is a chain of arithmetic over physical quantities
(``*_bytes``, ``*_seconds``, ``*_flops``, ``*_pj``, ``*_bytes_per_s``)
plus a deterministic event engine.  A single mixed-unit expression or a
nondeterministic tie-break silently corrupts every figure without
failing a numeric test, so this package lints the source tree for eight
repo-specific hazard families:

* **Unit dimensions** (``UNIT0xx``), inferred from the naming convention;
* **Determinism** (``DET0xx``): unseeded RNGs, constant-seed fallbacks,
  unordered iteration, ``id()`` keys, float time equality, host clocks;
* **Config invariants** (``CFG0xx``): validated ``*Config`` fields and
  ``num_groups * num_clusters == num_workers`` grid constants;
* **Performance** (``PERF0xx``): per-tile and per-packet Python loops;
* **Shapes** (``SHAPE0xx``) and **costs** (``COST0xx``): ``@shaped`` and
  ``@cost`` contracts checked by one abstract interpreter;
* **Effects** (``EFF0xx``) and **collectives** (``COMM0xx``): memoized
  sweeps stay pure, fault hooks stay guarded, collectives conserve bytes.

The package-wide facts the SHAPE, COST and effect families share come
from one package index per run (:mod:`.index`).  Findings can be
suppressed per line with ``# statcheck: ignore[RULE]`` or per file with
``# statcheck: ignore-file[RULE]``; see ``docs/statcheck.md`` for the
rule catalogue.
"""

from __future__ import annotations

from .engine import (
    Context,
    Rule,
    all_rules,
    check_file,
    check_paths,
    check_source,
    iter_python_files,
)
from .findings import Finding, Severity, render_json, render_text

__all__ = [
    "Context",
    "Finding",
    "Rule",
    "Severity",
    "all_rules",
    "check_file",
    "check_paths",
    "check_source",
    "iter_python_files",
    "render_json",
    "render_text",
]
