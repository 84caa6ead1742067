"""One package index per statcheck run, shared by every rule family.

The SHAPE and COST interpreter resolves calls against every contract of
the enclosing package, and the effect analysis links every definition of
it.  Both read a :class:`PackageIndex`: the package root, its files from
the engine's one walker (:func:`~.engine.walk_python_files`), and each
file's facts — its contract definitions and its effect facts — collected
once per ``(mtime_ns, size)`` for the whole process.  The index keeps
facts, never parse trees, and builds the contract resolution table and
the effect link once per package.

The overlay rule: a source checked under a real file's path that differs
from the file on disk replaces that file's facts for both families.  A
file outside any package, or a path that is not a file (``<string>``),
is a one-file package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .effects.analysis import PackageAnalysis, link_package
from .effects.collect import ModuleInfo, collect_module
from .engine import walk_python_files
from .registry import ContractDef, build_resolution, collect_contracts


@dataclass(frozen=True)
class FileFacts:
    """What the rules need from one file; ``module`` is None when the
    file does not parse."""

    contracts: Tuple[ContractDef, ...]
    module: Optional[ModuleInfo]

    @classmethod
    def of(cls, tree: ast.Module, key: str) -> "FileFacts":
        return cls(tuple(collect_contracts(tree)), collect_module(tree, key))


#: str(path) -> ((mtime_ns, size), facts) for every file read so far
_FACTS: Dict[str, Tuple[Optional[Tuple[int, int]], FileFacts]] = {}
#: package key -> (its files' stamps, the index built from them)
_INDEXES: Dict[str, Tuple[tuple, "PackageIndex"]] = {}


def _stamp(path: Path) -> Optional[Tuple[int, int]]:
    try:
        stat = path.stat()
    except OSError:
        return None
    return stat.st_mtime_ns, stat.st_size


def file_facts(path: Path) -> FileFacts:
    """The facts of the file ``path``, collected once per stamp."""
    stamp = _stamp(path)
    cached = _FACTS.get(str(path))
    if cached is not None and cached[0] == stamp:
        return cached[1]
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except (OSError, SyntaxError):
        facts = FileFacts((), None)
    else:
        facts = FileFacts.of(tree, str(path))
    _FACTS[str(path)] = (stamp, facts)
    return facts


def file_key(path: str) -> str:
    """Where the facts and effect summaries of ``path`` are kept: the
    resolved file, or ``path`` itself when it is not a file."""
    file = Path(path)
    return str(file.resolve()) if file.is_file() else str(file)


def package_root(path: Path) -> Optional[Path]:
    """The top directory of the package enclosing the file ``path``
    (None outside any package)."""
    parent = path.resolve().parent
    if not (parent / "__init__.py").is_file():
        return None
    while (parent.parent / "__init__.py").is_file():
        parent = parent.parent
    return parent


class PackageIndex:
    """One package: ``root`` (None for a one-file package), its sorted
    ``files``, their facts (``overlay`` replaces some files' by key), and
    the two lookup tables built from them."""

    def __init__(
        self,
        root: Optional[Path],
        files: List[Path],
        overlay: Optional[Dict[str, FileFacts]] = None,
    ) -> None:
        self.root = root
        self.files = files
        self._overlay = overlay or {}

    def facts(self, path: Union[str, Path]) -> FileFacts:
        overlaid = self._overlay.get(str(path))
        return file_facts(Path(path)) if overlaid is None else overlaid

    @cached_property
    def resolution(self) -> Dict[str, object]:
        """The contract resolution table (:func:`~.registry.build_resolution`)."""
        return build_resolution(
            info for file in self.files for info in self.facts(file).contracts
        )

    @cached_property
    def effects(self) -> PackageAnalysis:
        """The effect analysis, modules linked in path order."""
        modules: Dict[str, ModuleInfo] = {}
        for file in self.files:
            module = self.facts(file).module
            if module is not None:
                modules[str(file)] = module
        return link_package(modules, None if self.root is None else str(self.root))


def package_index(path: Path) -> PackageIndex:
    """The index of the package enclosing ``path``, reused until one of
    its files changes.  A directory means its enclosing package, or the
    directory itself when it has no ``__init__.py``."""
    path = Path(path).resolve()
    if path.is_dir():
        root: Optional[Path] = package_root(path / "__init__.py") or path
        files = walk_python_files(root)
    else:
        root = package_root(path)
        files = [path] if root is None else walk_python_files(root)
    key = str(root or path)
    stamps = tuple((str(file), _stamp(file)) for file in files)
    cached = _INDEXES.get(key)
    if cached is None or cached[0] != stamps:
        cached = _INDEXES[key] = (stamps, PackageIndex(root, files))
    return cached[1]


def indexed_files(files: Iterable[Path]) -> Iterator[Tuple[Path, PackageIndex]]:
    """Pair every file with its package's index, resolved once per
    package."""
    indexes: Dict[Path, PackageIndex] = {}
    for file in files:
        root = package_root(file)
        if root is None:
            yield file, package_index(file)
            continue
        if root not in indexes:
            indexes[root] = package_index(root)
        yield file, indexes[root]


def source_index(
    path: str, tree: ast.Module, source: Optional[str] = None
) -> PackageIndex:
    """The index ``tree``, parsed from ``source`` at ``path``, is checked
    against: the package's own when ``source`` is the file on disk, else
    the package with ``tree``'s facts overlaid."""
    key = file_key(path)
    if Path(path).is_file():
        index = package_index(Path(path))
        if source == Path(path).read_text(encoding="utf-8"):
            return index
        root, files = index.root, index.files
    else:
        root, files = None, [Path(key)]
    return PackageIndex(root, files, {key: FileFacts.of(tree, key)})


def index_of(ctx) -> PackageIndex:
    """The package index of a rule's context, resolved on first use when
    the run did not pass one."""
    if ctx.index is None:
        ctx.index = source_index(ctx.path, ctx.tree, ctx.source)
    return ctx.index
