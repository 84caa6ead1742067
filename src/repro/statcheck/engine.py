"""AST walker, rule registry and the file/tree entry points."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from .findings import Finding, Severity, sort_findings
from .suppress import SuppressionIndex

#: Directory names never descended into when walking a tree.
EXCLUDED_DIRS = {
    ".git",
    "__pycache__",
    ".egg-info",
    "repro.egg-info",
    ".venv",
    "build",
    "dist",
    ".mypy_cache",
    ".ruff_cache",
}


@dataclass
class Context:
    """Everything a rule gets to see about one file.

    ``cache`` is shared by all rules on the same file so expensive
    analyses (the dimension-inference pass) run once even when several
    rules consume their results.  ``index`` is the file's package
    (:class:`~.index.PackageIndex`): :func:`check_paths` passes one per
    package, otherwise :func:`~.index.index_of` resolves it on first use.
    """

    path: str
    source: str
    tree: ast.Module
    cache: Dict[str, Any] = field(default_factory=dict)
    index: Any = None

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of ``tree`` in ``ast.walk`` order, walked once on
        first use: rules iterate this, never ``ast.walk(ctx.tree)``."""
        return list(ast.walk(self.tree))

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        return Finding(
            rule=rule.id,
            message=message,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            severity=severity,
        )


class Rule:
    """Base class: subclasses set ``id``/``name``/``description`` and
    implement :meth:`check`."""

    id: str = ""
    name: str = ""
    description: str = ""

    def check(self, ctx: Context) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Callable[[], Rule]) -> Callable[[], Rule]:
    """Class decorator adding one rule instance to the global registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls!r} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Registered rules, importing the built-in rule modules on first
    use (registration happens at import time)."""
    from . import rules  # noqa: F401  (imported for registration side effect)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def _selected_rules(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> List[Rule]:
    rules = all_rules()
    if select:
        wanted = set(select)
        unknown = wanted - {r.id for r in rules}
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        rules = [r for r in rules if r.id in wanted]
    if ignore:
        rules = [r for r in rules if r.id not in set(ignore)]
    return rules


def _context(source: str, path: str, index: Any = None) -> Union[Context, Finding]:
    """The context of one source, or its ``SYNT001`` finding when it does
    not parse."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            rule="SYNT001",
            message=f"file does not parse: {exc.msg}",
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
        )
    return Context(path=path, source=source, tree=tree, index=index)


def _run(ctx: Union[Context, Finding], rules: Sequence[Rule]) -> List[Finding]:
    """The unsuppressed findings of ``rules`` on one file."""
    if isinstance(ctx, Finding):
        return [ctx]
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(ctx))
    return SuppressionIndex(ctx.source, ctx.nodes).apply(findings)


def check_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run the (selected) rules over one source string."""
    return sort_findings(_run(_context(source, path), _selected_rules(select, ignore)))


def check_file(
    path: Path,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    source = Path(path).read_text(encoding="utf-8")
    return check_source(source, path=str(path), select=select, ignore=ignore)


def walk_python_files(root: Path) -> List[Path]:
    """Every ``.py`` file under the directory ``root``, sorted.  Excluded
    directories are matched below ``root`` only, so a checkout or install
    that itself lives under ``build/`` or ``.venv/`` is still walked."""
    return sorted(
        p
        for p in root.rglob("*.py")
        if not any(
            part in EXCLUDED_DIRS or part.endswith(".egg-info")
            for part in p.relative_to(root).parts
        )
    )


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            candidates = walk_python_files(entry)
        elif entry.suffix == ".py":
            candidates = [entry]
        else:
            candidates = []
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def iter_contexts(paths: Sequence[Path]) -> Iterator[Union[Context, Finding]]:
    """A :class:`Context` for every ``.py`` file under ``paths``, or its
    ``SYNT001`` finding when it does not parse; the files of one package
    share one package index."""
    from .index import indexed_files

    for path, index in indexed_files(iter_python_files(paths)):
        yield _context(path.read_text(encoding="utf-8"), str(path), index)


def check_paths(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run the suite over files and directory trees, resolving each
    package's index once for all of its files."""
    rules = _selected_rules(select, ignore)
    return sort_findings([f for ctx in iter_contexts(paths) for f in _run(ctx, rules)])
