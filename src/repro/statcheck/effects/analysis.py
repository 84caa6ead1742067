"""Package-wide interprocedural effect inference.

Builds a call graph over every definition of the enclosing package (the
per-file facts of :mod:`repro.statcheck.index`, collected with no
imports from the AST alone), then solves a bottom-up fixpoint over its
strongly connected components:

    transitive(f) = direct(f)  JOIN  translate(transitive(g), site)
                               for every call site f -> g

``translate`` maps a callee's ``("mutates", param)`` atoms through the
call's argument alias roots into the caller's namespace (an argument
rooted at a caller parameter becomes a caller mutation; one rooted at a
module global becomes a global write; a fresh argument drops the atom).
All other atoms propagate unchanged.  Every transfer function is
monotone on the finite per-package atom universe, so the iteration
terminates (the Hypothesis suite checks both properties on random
graphs via :func:`solve_fixpoint`).

Call-site resolution order, per site:

1. package registry — module-level functions and class constructors for
   plain names; ``C.__init__(self, ...)`` / ``super().__init__(...)`` to
   the ``__init__`` of ``C`` / the enclosing class's bases; methods
   (joined across same-named defs) for other attributes;
2. method-name tables (:mod:`.intrinsics`) for attribute calls the
   registry misses (``.append`` mutates, ``.items`` is pure, ...);
3. class-field callbacks (``message.on_complete(...)`` where
   ``on_complete`` is an annotated dataclass field) become
   ``dynamic-call`` atoms — visibly dynamic dispatch, not a resolution
   failure;
4. anything left is an ``unknown-call`` atom; the coverage acceptance
   test keeps ``winograd/``, ``perf/`` and ``netsim/`` free of them.

Functions decorated ``@effect_free`` (:func:`repro.perf.effect_free`)
are vouched: their summary is forced to bottom and their body is not
consulted — the explicit purity registration surface for
observability-only helpers like the profiler's ``counter_add``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .collect import CallDesc, FunctionInfo, ModuleInfo, collect_module
from .intrinsics import (
    ALIAS_METHODS,
    IO_METHODS,
    MUTATOR_METHODS,
    PURE_BUILTINS,
    PURE_METHODS,
    RNG_STATE_METHODS,
)
from .lattice import (
    DYNAMIC_CALL,
    GLOBAL_WRITE,
    IO,
    MUTATES,
    UNKNOWN_CALL,
    Effect,
    EffectSet,
    FunctionSummary,
)

TransferFn = Callable[[EffectSet], EffectSet]


# ---------------------------------------------------------------------------
# generic SCC fixpoint (also the Hypothesis test surface)
# ---------------------------------------------------------------------------


def strongly_connected_components(
    nodes: Sequence[str], edges: Dict[str, List[str]]
) -> List[List[str]]:
    """Tarjan's algorithm, iterative.  Components are emitted callees
    first (every edge leaving an emitted component targets an earlier
    one), which is exactly the order a bottom-up fixpoint wants."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work.pop()
            if child_i == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = edges.get(node, [])
            for i in range(child_i, len(children)):
                child = children[i]
                if child not in index:
                    work.append((node, i + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def solve_fixpoint(
    direct: Dict[str, EffectSet],
    edges: Dict[str, List[Tuple[str, TransferFn]]],
) -> Tuple[Dict[str, EffectSet], int]:
    """Bottom-up fixpoint: ``solution[k] = direct[k] JOIN transfer(
    solution[callee])`` over all edges, solved SCC by SCC.

    Returns ``(solution, sweeps)`` where ``sweeps`` counts whole-SCC
    iteration passes — the Hypothesis termination property bounds it by
    ``|SCC| * |atom universe|`` per component.
    """
    nodes = list(direct)
    plain_edges = {
        k: [callee for callee, _ in targets] for k, targets in edges.items()
    }
    solution: Dict[str, EffectSet] = dict(direct)
    sweeps = 0
    for component in strongly_connected_components(nodes, plain_edges):
        members = set(component)
        changed = True
        while changed:
            changed = False
            sweeps += 1
            for node in component:
                acc = direct[node]
                for callee, transfer in edges.get(node, ()):  # noqa: B007
                    callee_set = solution.get(callee)
                    if callee_set is not None:
                        acc = acc.join(transfer(callee_set))
                if acc != solution[node]:
                    solution[node] = acc
                    changed = True
            if not (members & {c for t in (edges.get(n, ()) for n in component)
                               for c, _ in t}):
                break  # acyclic singleton: one sweep suffices
    return solution, sweeps


# ---------------------------------------------------------------------------
# call-site resolution and translation
# ---------------------------------------------------------------------------


@dataclass
class _Node:
    key: str
    path: str
    info: FunctionInfo
    direct: Set[Effect] = field(default_factory=set)
    #: resolved edges: (callee key, call site, mode) with mode in
    #: {"func", "method", "ctor"}.
    edges: List[Tuple[str, CallDesc, str]] = field(default_factory=list)


def _arg_map(
    desc: CallDesc, callee: FunctionInfo, mode: str
) -> Dict[str, FrozenSet[Tuple[str, str]]]:
    """Callee parameter name -> caller alias roots for one call site."""
    params = list(callee.params)
    mapping: Dict[str, FrozenSet[Tuple[str, str]]] = {}
    positional = params
    if callee.is_method and params:
        if mode == "method":
            mapping[params[0]] = desc.recv_roots
            positional = params[1:]
        elif mode == "ctor":
            positional = params[1:]
    for i, roots in enumerate(desc.arg_roots):
        if i < len(positional):
            mapping.setdefault(positional[i], roots)
    for name, roots in desc.kw_roots:
        if name in params:
            mapping[name] = roots
    return mapping


def _binds(desc: CallDesc, callee: FunctionInfo, mode: str) -> bool:
    """Whether a call without ``*``/``**`` can bind to ``callee``: no
    surplus positional, no unknown keyword, every required positional
    parameter given."""
    given = len(desc.arg_roots) + (mode == "method" and callee.is_method)
    if given > callee.positional and not callee.varargs:
        return False
    keywords = {name for name, _ in desc.kw_roots}
    if not callee.varkw and not keywords.issubset(callee.params):
        return False
    return all(name in keywords for name in callee.params[given:callee.required])


def _translate(
    atoms: EffectSet,
    desc: CallDesc,
    callee: FunctionInfo,
    mode: str,
) -> EffectSet:
    """Map a callee summary into the caller's namespace at one site."""
    mapping = _arg_map(desc, callee, mode)
    out: Set[Effect] = set()
    for kind, detail in atoms:
        if kind == MUTATES:
            roots = mapping.get(detail)
            if not roots:
                continue  # fresh/unmapped argument: mutation stays local
            for base, name in roots:
                out.add((MUTATES, name) if base == "param"
                        else (GLOBAL_WRITE, name))
        else:
            out.add((kind, detail))
    return EffectSet(out)


# ---------------------------------------------------------------------------
# package analysis
# ---------------------------------------------------------------------------


@dataclass
class PackageAnalysis:
    """Fixpoint summaries for every definition under one package root."""

    root: Optional[str]
    summaries: Dict[str, FunctionSummary]
    by_path: Dict[str, List[str]]
    stats: Dict[str, int]

    def functions_in(self, path: str) -> List[FunctionSummary]:
        return [self.summaries[k] for k in self.by_path.get(str(path), [])]

    def summary(self, path: str, qualname: str) -> Optional[FunctionSummary]:
        return self.summaries.get(f"{path}::{qualname}")


def link_package(
    modules: Dict[str, ModuleInfo], root: Optional[str]
) -> PackageAnalysis:
    """Resolve every call site of ``modules`` and solve the fixpoint."""
    # ---- registries -------------------------------------------------------
    name_funcs: Dict[str, List[str]] = {}
    methods: Dict[str, List[str]] = {}
    class_inits: Dict[str, List[Optional[str]]] = {}
    field_names: Set[str] = set()
    nodes: Dict[str, _Node] = {}
    by_path: Dict[str, List[str]] = {}

    for path, mod in modules.items():
        field_names |= mod.field_names
        for fninfo in mod.functions:
            key = f"{path}::{fninfo.qualname}"
            nodes[key] = _Node(key=key, path=path, info=fninfo,
                               direct=set(fninfo.direct))
            by_path.setdefault(path, []).append(key)
            if fninfo.is_method or "." in fninfo.qualname:
                methods.setdefault(fninfo.name, []).append(key)
            else:
                name_funcs.setdefault(fninfo.name, []).append(key)
        for class_name, method_names in mod.classes.items():
            init = (
                f"{path}::{class_name}.__init__"
                if "__init__" in method_names else None
            )
            class_inits.setdefault(class_name, []).append(init)

    method_keys = {k for keys in methods.values() for k in keys}

    # ---- resolve every call site -----------------------------------------
    edges_total = 0
    edges_resolved = 0
    for node in nodes.values():
        if node.info.vouched:
            node.direct = set()
            continue
        for desc in node.info.calls:
            edges_total += 1
            if desc.kind == "name":
                targets = [(k, "func") for k in name_funcs.get(desc.name, ())]
                for init_key in class_inits.get(desc.name, ()):
                    if init_key is not None:
                        targets.append((init_key, "ctor"))
                    else:
                        # Synthesised constructor (dataclass): effect-free.
                        edges_resolved += 1
                if targets:
                    edges_resolved += 1
                    for key, mode in targets:
                        node.edges.append((key, desc, mode))
                elif desc.name not in class_inits:
                    node.direct.add((UNKNOWN_CALL, desc.name))
                continue
            if desc.kind == "init":
                # No bases means ``object``; a synthesised (dataclass) or
                # builtin initialiser is effect-free.
                owners = desc.owners or ("object",)
                unknown = [o for o in owners if o not in class_inits and o not in PURE_BUILTINS]
                node.direct.update((UNKNOWN_CALL, f"{o}.__init__()") for o in unknown)
                edges_resolved += not unknown
                for owner in owners:
                    inits = class_inits.get(owner, ())
                    node.edges.extend((key, desc, "method") for key in inits if key)
                continue
            # attribute call.  A builtin mutator name mutates its receiver
            # whatever package defs share the name (``s.add(x)`` on a set).
            mutator = desc.name in MUTATOR_METHODS or desc.name in RNG_STATE_METHODS
            if mutator:
                for base, name in desc.recv_roots:
                    node.direct.add(
                        (MUTATES, name) if base == "param"
                        else (GLOBAL_WRITE, name)
                    )
            # Every same-named def the call can bind to, or all of them
            # when none can (or a splat hides the count).
            keys = methods.get(desc.name, []) + name_funcs.get(desc.name, [])
            if keys:
                edges_resolved += 1
                targets = [(k, "method" if k in method_keys else "func") for k in keys]
                if not desc.star:
                    targets = [
                        (k, mode) for k, mode in targets if _binds(desc, nodes[k].info, mode)
                    ] or targets
                node.edges.extend((key, desc, mode) for key, mode in targets)
                continue
            if mutator or desc.name in PURE_METHODS or desc.name in ALIAS_METHODS:
                edges_resolved += 1
                continue
            if desc.name in IO_METHODS:
                edges_resolved += 1
                node.direct.add((IO, f".{desc.name}()"))
                continue
            if desc.name in field_names:
                edges_resolved += 1
                node.direct.add((DYNAMIC_CALL, desc.name))
                continue
            node.direct.add((UNKNOWN_CALL, f".{desc.name}()"))

    # ---- fixpoint ---------------------------------------------------------
    direct_sets = {k: EffectSet(n.direct) for k, n in nodes.items()}
    edges: Dict[str, List[Tuple[str, TransferFn]]] = {}
    for key, node in nodes.items():
        out: List[Tuple[str, TransferFn]] = []
        for callee_key, desc, mode in node.edges:
            callee_info = nodes[callee_key].info

            def transfer(
                atoms: EffectSet,
                _desc: CallDesc = desc,
                _callee: FunctionInfo = callee_info,
                _mode: str = mode,
            ) -> EffectSet:
                return _translate(atoms, _desc, _callee, _mode)

            out.append((callee_key, transfer))
        edges[key] = out

    solution, sweeps = solve_fixpoint(direct_sets, edges)

    # ---- returns_params closure (one sweep; views through package calls
    # are cut at collect time, so only the function's own returns matter).
    # ---- origins: callees-first sweep over the final solution ------------
    origins: Dict[str, Dict[Effect, str]] = {}
    plain_edges = {k: [c for c, _, _ in n.edges] for k, n in nodes.items()}
    for component in strongly_connected_components(list(nodes), plain_edges):
        for key in component:
            node = nodes[key]
            own: Dict[Effect, str] = {
                atom: node.info.qualname for atom in node.direct
            }
            for callee_key, desc, mode in node.edges:
                callee_origins = origins.get(callee_key, {})
                callee_info = nodes[callee_key].info
                translated = _translate(solution[callee_key], desc,
                                        callee_info, mode)
                for atom in translated:
                    if atom not in own:
                        # Prefer the true originating def; fall back to
                        # the callee itself inside unsettled cycles.
                        src = callee_origins
                        own[atom] = (
                            src.get(atom, callee_info.qualname)
                            if atom in solution[callee_key].atoms
                            else callee_info.qualname
                        )
            origins[key] = own

    # ---- package summaries ------------------------------------------------
    summaries: Dict[str, FunctionSummary] = {}
    unknown_functions = 0
    vouched = 0
    pure = 0
    for key, node in nodes.items():
        info = node.info
        transitive = solution[key]
        if info.vouched:
            vouched += 1
        if any(kind == UNKNOWN_CALL for kind, _ in node.direct):
            unknown_functions += 1
        summary = FunctionSummary(
            qualname=info.qualname,
            path=node.path,
            lineno=info.lineno,
            params=info.params,
            is_method=info.is_method,
            direct=EffectSet(node.direct),
            transitive=transitive,
            returns_params=tuple(sorted(info.returns_params)),
            captures=tuple(sorted(info.captures)),
            vouched=info.vouched,
            origins=origins.get(key, {}),
        )
        if not summary.transitive.impure:
            pure += 1
        summaries[key] = summary

    stats = {
        "functions": len(summaries),
        "pure": pure,
        "vouched": vouched,
        "functions_with_unknown_callees": unknown_functions,
        "call_sites": edges_total,
        "call_sites_resolved": edges_resolved,
        "fixpoint_sweeps": sweeps,
    }
    return PackageAnalysis(
        root=root,
        summaries=summaries,
        by_path=by_path,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def analyze_path(path: Path) -> PackageAnalysis:
    """Analysis of the package enclosing ``path`` (or of the single file
    when it is not inside a package).  A directory argument means the
    package rooted there (its enclosing package when it is itself a
    subpackage).  Built once per package index, so it is reused until a
    file of the package changes."""
    from ..index import package_index

    return package_index(path).effects


def analyze_source(source: str, path: str = "<string>") -> PackageAnalysis:
    """Single-module analysis of an in-memory source (tests, stdin)."""
    tree = ast.parse(source, filename=path)
    return link_package({path: collect_module(tree, path)}, None)


def effect_pass(ctx) -> PackageAnalysis:
    """The package analysis a linted file is checked against."""
    from ..index import index_of

    return index_of(ctx).effects
