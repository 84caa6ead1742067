"""``# statcheck: ignore[...]`` suppression comments.

Two forms, mirroring the usual lint pragmas:

* ``# statcheck: ignore[RULE1,RULE2]`` — suppresses the listed rules on
  the physical line carrying the comment; when the comment stands on a
  line of its own it applies to the next non-blank source line instead.
* ``# statcheck: ignore-file[RULE]`` — suppresses the rule in the whole
  file, wherever the comment appears.

``*`` suppresses every rule.  Suppressions are deliberately explicit —
there is no bare ``ignore`` — so each one documents which invariant is
being waived.

When the file's AST nodes are available the pragma targeting is
statement aware rather than purely physical:

* a pragma on a decorator line also suppresses findings reported at the
  ``def``/``class`` line it decorates (rules anchor findings at the
  definition, not the decorator), and
* a pragma on any continuation line of a multiline statement also
  suppresses findings anchored at the statement's first line.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .findings import Finding

_PRAGMA = re.compile(
    r"#\s*statcheck:\s*(?P<scope>ignore-file|ignore)\[(?P<rules>[^\]]*)\]"
)


def _statement_anchors(nodes: Iterable[ast.AST]) -> Dict[int, List[int]]:
    """Map each physical line of a statement to the line(s) findings for
    that statement are anchored at.

    Covers two cases line-based targeting misses: decorator lines (the
    decorated ``def``/``class`` reports at its own line, below the
    pragma) and continuation lines of multiline statements (findings
    anchor at ``stmt.lineno``, the first line).
    """
    anchors: Dict[int, List[int]] = {}

    def add(line: int, anchor: int) -> None:
        if line != anchor:
            anchors.setdefault(line, []).append(anchor)

    for node in nodes:
        if isinstance(node, ast.stmt):
            end = getattr(node, "end_lineno", None) or node.lineno
            # Compound statements (def/if/for/...) span their whole body;
            # only map the header lines, not every body line, so a pragma
            # deep inside a function does not silence its signature.
            if isinstance(
                node,
                (
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                    ast.If,
                    ast.For,
                    ast.AsyncFor,
                    ast.While,
                    ast.With,
                    ast.AsyncWith,
                    ast.Try,
                ),
            ):
                body = getattr(node, "body", None)
                if body:
                    end = min(end, body[0].lineno - 1)
            for line in range(node.lineno, end + 1):
                add(line, node.lineno)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            for deco in node.decorator_list:
                deco_end = getattr(deco, "end_lineno", None) or deco.lineno
                for line in range(deco.lineno, deco_end + 1):
                    add(line, node.lineno)
    return anchors


class SuppressionIndex:
    """Parsed suppression pragmas of one file; ``nodes`` are its AST
    nodes (:attr:`~.engine.Context.nodes`)."""

    def __init__(self, source: str, nodes: Optional[Iterable[ast.AST]] = None) -> None:
        self.file_rules: Set[str] = set()
        self.line_rules: Dict[int, Set[str]] = {}
        anchors = _statement_anchors(nodes) if nodes is not None else {}
        lines = source.splitlines()
        for lineno, line in enumerate(lines, start=1):
            match = _PRAGMA.search(line)
            if match is None:
                continue
            rules = {r.strip() for r in match.group("rules").split(",") if r.strip()}
            if not rules:
                continue
            if match.group("scope") == "ignore-file":
                self.file_rules |= rules
                continue
            target = lineno
            if line.lstrip().startswith("#"):
                # Comment-only line: applies to the next non-blank line.
                for ahead in range(lineno + 1, len(lines) + 1):
                    if lines[ahead - 1].strip():
                        target = ahead
                        break
            targets = [target] + anchors.get(target, [])
            for where in targets:
                self.line_rules.setdefault(where, set()).update(rules)

    def is_suppressed(self, finding: Finding) -> bool:
        if "*" in self.file_rules or finding.rule in self.file_rules:
            return True
        rules = self.line_rules.get(finding.line, ())
        return "*" in rules or finding.rule in rules

    def apply(self, findings: Sequence[Finding]) -> List[Finding]:
        return [f for f in findings if not self.is_suppressed(f)]
