"""Per-file effect collection (the intraprocedural half).

For every function definition in a module this pass computes

* its *direct* effect atoms — argument mutations (subscript/attribute
  stores, augmented assigns, ``out=`` keywords, known mutator methods),
  mutable-global reads/writes, env/RNG/clock/filesystem intrinsics — and
* its *call sites* with the alias roots of every argument, so the
  interprocedural fixpoint (:mod:`.analysis`) can translate callee
  summaries into the caller's namespace.

Alias tracking is a deliberately simple root analysis: every local name
maps to a set of *roots* — ``("param", name)`` or ``("global", name)``
— with the empty set meaning "fresh" (the value cannot share storage
with an argument or a module global).  Assignments join root sets (a
name once rooted at a parameter stays rooted — flow-insensitive but
monotone, so loops need no widening beyond a second body pass), views
(``x[...]``, ``x.attr``, ``np.reshape``-style intrinsics) propagate
roots, and fresh constructors (``np.zeros``, ``.copy()``, literals,
arithmetic) cut them.

Nested functions and lambdas are *folded into their parent*: their
bodies contribute to the parent's direct effects (the closures in the
collectives are invoked from the orchestration they are defined in) and
the names they capture are recorded on the parent's summary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..registry import _decorator_name
from .intrinsics import (
    ALIAS_METHODS,
    IO_BUILTINS,
    MUTATING_BUILTINS,
    PURE_BUILTINS,
    classify_intrinsic,
)
from .lattice import (
    DYNAMIC_CALL,
    ENV,
    GLOBAL_READ,
    GLOBAL_WRITE,
    IO,
    MUTATES,
    RNG,
    Effect,
)

#: A root set: ("param", name) / ("global", name) members; empty = fresh.
Roots = FrozenSet[Tuple[str, str]]
FRESH: Roots = frozenset()

#: Legacy global-state numpy RNG entry points (shared with DET001).
_NUMPY_LEGACY = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "standard_normal",
    "uniform", "normal", "binomial", "poisson", "exponential", "bytes",
}
#: Stdlib `random` module functions with process-global state.
_STDLIB_RANDOM = {
    "seed", "random", "randint", "randrange", "getrandbits", "choice",
    "choices", "shuffle", "sample", "uniform", "triangular", "gauss",
    "normalvariate", "expovariate", "betavariate", "paretovariate",
}

#: Constructors producing mutable containers (module-global detection).
_MUTABLE_CTORS = {
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter", "count",
}


def _dotted(node: ast.expr) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _canonical(dotted: str, aliases: Dict[str, str]) -> str:
    head, _, rest = dotted.partition(".")
    resolved = aliases.get(head, head)
    return f"{resolved}.{rest}" if rest else resolved


def module_aliases(nodes: Iterable[ast.AST]) -> Dict[str, str]:
    """Names bound by the imports among ``nodes`` -> canonical dotted path.

    Relative imports resolve under the ``@local.`` marker so they can
    never collide with a real stdlib module name; the analysis resolves
    them against the package registry by bare name instead.
    """
    aliases: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            prefix = f"@local.{module}" if node.level else module
            for alias in node.names:
                dotted = f"{prefix}.{alias.name}" if prefix else alias.name
                aliases[alias.asname or alias.name] = dotted
    return aliases


@dataclass
class CallDesc:
    """One unresolved call site, for interprocedural resolution."""

    lineno: int
    #: "name" (plain function/class) | "attr" (method-style) | "init"
    #: (``C.__init__(self, ...)`` or ``super().__init__(...)``)
    kind: str
    name: str  # bare callee / method name
    recv_roots: Roots = FRESH
    arg_roots: Tuple[Roots, ...] = ()
    kw_roots: Tuple[Tuple[str, Roots], ...] = ()
    star: bool = False  # *args/**kwargs present at the call
    owners: Tuple[str, ...] = ()  # the classes an "init" call initialises


@dataclass
class FunctionInfo:
    """Raw intraprocedural facts of one definition."""

    name: str
    qualname: str
    lineno: int
    params: Tuple[str, ...]  # named parameters, in order, incl. self
    is_method: bool
    decorators: Tuple[str, ...]
    positional: int = 0  # leading ``params`` that bind by position
    required: int = 0  # of those, the ones without a default
    varargs: bool = False  # takes ``*args``
    varkw: bool = False  # takes ``**kwargs``
    direct: Set[Effect] = field(default_factory=set)
    calls: List[CallDesc] = field(default_factory=list)
    returns_params: Set[str] = field(default_factory=set)
    captures: Set[str] = field(default_factory=set)
    vouched: bool = False

    @property
    def self_name(self) -> Optional[str]:
        if self.is_method and self.params:
            return self.params[0]
        return None


@dataclass
class ModuleInfo:
    """Everything the package analysis needs from one file."""

    path: str
    aliases: Dict[str, str]
    mutable_globals: Set[str]
    functions: List[FunctionInfo]
    #: bare names of module-level functions / classes defined here
    toplevel_functions: Set[str]
    classes: Dict[str, List[str]]  # class name -> method names
    field_names: Set[str]  # annotated class-body fields (callback slots)


# ---------------------------------------------------------------------------
# module-level scan
# ---------------------------------------------------------------------------


def _mutable_globals(tree: ast.Module, nodes: Sequence[ast.AST]) -> Set[str]:
    names: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        mutable = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
                    ast.DictComp)
        )
        if isinstance(value, ast.Call):
            callee = _dotted(value.func)
            if callee and callee.split(".")[-1] in _MUTABLE_CTORS:
                mutable = True
        if mutable:
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    # Anything rebound through a `global` declaration is mutable module
    # state no matter what its module-level initialiser looks like.
    for node in nodes:
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


# ---------------------------------------------------------------------------
# per-function analyzer
# ---------------------------------------------------------------------------


def _scope_names(fn: ast.AST) -> Tuple[Set[str], Set[str], Set[str]]:
    """One walk of ``fn``: its ``global`` declarations, the other names it
    binds locally (targets, nested defs, imports) and the import-bound ones."""
    bound: Set[str] = set()
    global_decls: Set[str] = set()
    imported: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            global_decls.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not fn:
                bound.add(node.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for a in (
                    args.posonlyargs + args.args + args.kwonlyargs
                ):
                    bound.add(a.arg)
                for a in (args.vararg, args.kwarg):
                    if a is not None:
                        bound.add(a.arg)
        elif isinstance(node, ast.Lambda):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs:
                bound.add(a.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return global_decls, (bound | imported) - global_decls, imported


class _FunctionAnalyzer:
    """Walks one def (plus nested defs) computing direct effects."""

    def __init__(
        self,
        fn: ast.FunctionDef,
        info: FunctionInfo,
        aliases: Dict[str, str],
        mutable_globals: Set[str],
        bases: Tuple[str, ...] = (),
    ) -> None:
        self.fn = fn
        self.info = info
        self.bases = bases  # of the enclosing class, for super()
        self.aliases = dict(aliases)
        self.mutable_globals = mutable_globals
        # In-function imports bind local names that stay module namespaces
        # for canonicalization (``import heapq`` inside a hot function is
        # a common idiom in this tree).
        self.global_decls, bound, self.import_bound = _scope_names(fn)
        self.local_bound = bound | set(info.params)
        self.roots: Dict[str, Roots] = {
            p: frozenset({("param", p)}) for p in info.params
        }
        for a in (fn.args.vararg, fn.args.kwarg):
            if a is not None:
                self.roots[a.arg] = FRESH
        self.nested_defs: Set[str] = set()
        self.nested_params: Set[str] = set()
        self.nested_depth = 0
        self._calls_by_node: Dict[int, CallDesc] = {}

    # -- effect recording --------------------------------------------------
    def add(self, kind: str, detail: str) -> None:
        self.info.direct.add((kind, detail))

    def mutate(self, roots: Roots) -> None:
        for base, name in roots:
            if base == "param":
                self.add(MUTATES, name)
            else:
                self.add(GLOBAL_WRITE, name)

    def walk_function(self) -> None:
        for a in self.fn.args.defaults + self.fn.args.kw_defaults:
            if a is not None:
                self.eval(a)
        self.visit_body(self.fn.body)
        self.info.calls = list(self._calls_by_node.values())
        self.info.captures -= self.nested_defs

    # -- name resolution ---------------------------------------------------
    def load_name(self, name: str) -> Roots:
        if name in self.global_decls:
            if name in self.mutable_globals:
                self.add(GLOBAL_READ, name)
                return frozenset({("global", name)})
            return FRESH
        if name in self.local_bound:
            if (
                self.nested_depth > 0
                and name not in self.nested_params
                and name not in self.roots
            ):
                self.info.captures.add(name)
            return self.roots.get(name, FRESH)
        if name in self.mutable_globals:
            self.add(GLOBAL_READ, name)
            return frozenset({("global", name)})
        return FRESH

    def bind(self, name: str, roots: Roots) -> None:
        if name in self.global_decls:
            self.add(GLOBAL_WRITE, name)
            return
        # Join, never narrow: a name once rooted at a parameter stays
        # rooted, which keeps loop bodies sound without a fixpoint.
        self.roots[name] = self.roots.get(name, FRESH) | roots

    def bind_target(self, target: ast.expr, roots: Roots) -> None:
        if isinstance(target, ast.Name):
            self.bind(target.id, roots)
        elif isinstance(target, ast.Starred):
            self.bind_target(target.value, roots)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.bind_target(elt, roots)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            self.mutate(self.eval(target.value))

    # -- expressions -------------------------------------------------------
    def eval(self, node: Optional[ast.expr]) -> Roots:
        if node is None:
            return FRESH
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                return self.load_name(node.id)
            return FRESH
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is not None:
                root = dotted.split(".", 1)[0]
                if (root in self.import_bound and root in self.aliases) or (
                    root not in self.local_bound
                    and root not in self.global_decls
                ):
                    canonical = _canonical(dotted, self.aliases)
                    if canonical == "os.environ" or canonical.startswith(
                        "os.environ."
                    ):
                        self.add(ENV, "os.environ")
                        return FRESH
            return self.eval(node.value)
        if isinstance(node, ast.Subscript):
            self.eval(node.slice)
            return self.eval(node.value)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out: Roots = FRESH
            for elt in node.elts:
                out |= self.eval(elt)
            return out
        if isinstance(node, ast.Dict):
            out = FRESH
            for key in node.keys:
                if key is not None:
                    self.eval(key)
            for value in node.values:
                out |= self.eval(value)
            return out
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            roots = self.eval(node.value)
            self.bind_target(node.target, roots)
            return roots
        if isinstance(node, ast.Lambda):
            self.visit_nested_callable(node.args, [ast.Expr(node.body)])
            return FRESH
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            for gen in node.generators:
                iter_roots = self.eval(gen.iter)
                self.bind_target(gen.target, iter_roots)
                for cond in gen.ifs:
                    self.eval(cond)
            if isinstance(node, ast.DictComp):
                self.eval(node.key)
                self.eval(node.value)
            else:
                self.eval(node.elt)
            return FRESH
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.eval(node.value)
        if isinstance(node, ast.Yield):
            return self.eval(node.value) if node.value else FRESH
        # BinOp/UnaryOp/BoolOp/Compare/Constant/JoinedStr/Slice/...: the
        # result is a fresh value; still walk children for nested calls.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
        return FRESH

    # -- calls -------------------------------------------------------------
    def _eval_call_operands(
        self, node: ast.Call
    ) -> Tuple[Tuple[Roots, ...], Tuple[Tuple[str, Roots], ...], bool]:
        arg_roots: List[Roots] = []
        star = False
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                star = True
                self.eval(arg.value)
            else:
                arg_roots.append(self.eval(arg))
        kw_roots: List[Tuple[str, Roots]] = []
        for kw in node.keywords:
            roots = self.eval(kw.value)
            if kw.arg is None:
                star = True
            else:
                kw_roots.append((kw.arg, roots))
                if kw.arg == "out":
                    # numpy-style out= writes into an existing buffer no
                    # matter which ufunc is being called.
                    self.mutate(roots)
        return tuple(arg_roots), tuple(kw_roots), star

    def _record(self, node: ast.Call, desc: CallDesc) -> None:
        # id(node) only dedupes the two-pass loop revisit of one AST in
        # one walk (nodes outlive the dict); call order stays the
        # deterministic first-visit insertion order.
        self._calls_by_node[id(node)] = desc  # statcheck: ignore[DET004]

    def _rng_atom(self, canonical: str, node: ast.Call) -> Optional[str]:
        """Contextual RNG classification (None = not an RNG entry)."""
        if canonical in ("numpy.random.default_rng", "numpy.random.SeedSequence"):
            unseeded = not node.args or (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            )
            return canonical if unseeded and not node.keywords else ""
        tail = canonical.rsplit(".", 1)[-1]
        if canonical.startswith("numpy.random.") and tail in _NUMPY_LEGACY:
            return canonical
        if canonical.startswith("random.") and tail in _STDLIB_RANDOM:
            return canonical
        if canonical == "random.Random" and not node.args:
            return canonical
        return None

    def eval_call(self, node: ast.Call) -> Roots:
        func = node.func
        arg_roots, kw_roots, star = self._eval_call_operands(node)

        def apply_intrinsic(spec) -> Roots:
            for atom in spec.atoms:
                self.info.direct.add(atom)
            for pos in spec.mutates:
                if pos < len(arg_roots):
                    self.mutate(arg_roots[pos])
            if spec.alias_of is not None and spec.alias_of < len(arg_roots):
                return arg_roots[spec.alias_of]
            return FRESH

        # --- plain-name callee -------------------------------------------
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.nested_defs:
                return FRESH  # body already folded into this summary
            if (name in self.local_bound or name in self.global_decls) and not (
                name in self.import_bound and name in self.aliases
            ):
                self.add(DYNAMIC_CALL, name)
                return FRESH
            canonical = self.aliases.get(name)
            if canonical is not None:
                rng = self._rng_atom(canonical, node)
                if rng is not None:
                    if rng:
                        self.add(RNG, rng)
                    return FRESH
                spec = classify_intrinsic(canonical)
                if spec is not None:
                    return apply_intrinsic(spec)
                bare = canonical.rsplit(".", 1)[-1]
                self._record(
                    node,
                    CallDesc(node.lineno, "name", bare,
                             arg_roots=arg_roots, kw_roots=kw_roots, star=star),
                )
                return FRESH
            if name in PURE_BUILTINS:
                return FRESH
            if name in MUTATING_BUILTINS:
                if arg_roots:
                    self.mutate(arg_roots[0])
                return FRESH
            if name in IO_BUILTINS:
                self.add(IO, f"{name}()")
                return FRESH
            if name == "globals":
                self.add(GLOBAL_READ, "globals()")
                return FRESH
            if name in ("locals", "id"):
                return FRESH
            self._record(
                node,
                CallDesc(node.lineno, "name", name,
                         arg_roots=arg_roots, kw_roots=kw_roots, star=star),
            )
            return FRESH

        # --- attribute callee --------------------------------------------
        if isinstance(func, ast.Attribute):
            attr = func.attr
            dotted = _dotted(func)
            namespace_chain = False
            if dotted is not None:
                root = dotted.split(".", 1)[0]
                namespace_chain = (
                    root in self.import_bound and root in self.aliases
                ) or (
                    root not in self.local_bound
                    and root not in self.global_decls
                    and root not in self.mutable_globals
                )
            if namespace_chain:
                canonical = _canonical(dotted, self.aliases)
                rng = self._rng_atom(canonical, node)
                if rng is not None:
                    if rng:
                        self.add(RNG, rng)
                    return FRESH
                spec = classify_intrinsic(canonical)
                if spec is not None:
                    return apply_intrinsic(spec)
                recv = FRESH
            else:
                recv = self.eval(func.value)
            is_super = isinstance(func.value, ast.Call) and _dotted(func.value.func) == "super"
            if attr == "__init__" and (namespace_chain or is_super):
                # A base-class initialiser, with ``self`` as its receiver.
                if is_super:
                    owners, recv = self.bases, self.roots.get(self.info.self_name, FRESH)
                else:
                    owners = (canonical.rsplit(".", 2)[-2],)
                    recv, arg_roots = (arg_roots or (FRESH,))[0], arg_roots[1:]
                self._record(node, CallDesc(node.lineno, "init", attr, recv, arg_roots,
                                            kw_roots, star, owners))
                return FRESH
            self._record(
                node,
                CallDesc(node.lineno, "attr", attr, recv_roots=recv,
                         arg_roots=arg_roots, kw_roots=kw_roots, star=star),
            )
            if attr in ALIAS_METHODS:
                return recv
            return FRESH

        # --- computed callee (subscript, call result, ...) ----------------
        self.eval(func)
        self.add(DYNAMIC_CALL, f"<{type(func).__name__.lower()}>")
        return FRESH

    # -- statements --------------------------------------------------------
    def visit_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.visit(stmt)

    def visit_nested_callable(
        self, args: ast.arguments, body: Sequence[ast.stmt]
    ) -> None:
        names = [
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        ]
        for a in (args.vararg, args.kwarg):
            if a is not None:
                names.append(a.arg)
        added = [n for n in names if n not in self.nested_params]
        self.nested_params.update(added)
        self.nested_depth += 1
        try:
            for default in args.defaults + args.kw_defaults:
                if default is not None:
                    self.eval(default)
            self.visit_body(body)
        finally:
            self.nested_depth -= 1
            if self.nested_depth == 0:
                self.nested_params.clear()

    def visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested_defs.add(stmt.name)
            self.visit_nested_callable(stmt.args, stmt.body)
            return
        if isinstance(stmt, ast.ClassDef):
            self.nested_defs.add(stmt.name)
            self.visit_body(stmt.body)
            return
        if isinstance(stmt, ast.Assign):
            roots = self.eval(stmt.value)
            for target in stmt.targets:
                self.bind_target(target, roots)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.bind_target(stmt.target, self.eval(stmt.value))
            return
        if isinstance(stmt, ast.AugAssign):
            vroots = self.eval(stmt.value)
            target = stmt.target
            if isinstance(target, ast.Name):
                current = self.roots.get(target.id, FRESH)
                if target.id in self.global_decls:
                    self.add(GLOBAL_WRITE, target.id)
                elif current:
                    # `x += ...` where x aliases a parameter: in-place for
                    # ndarrays/lists — the numpy idiom EFF002 exists for.
                    self.mutate(current)
                # In-place update: the target keeps its own roots and
                # never gains the operand's (`x += view_of_param` reads
                # the view, it does not alias it).
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                self.mutate(self.eval(target.value))
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    self.mutate(self.eval(target.value))
                elif isinstance(target, ast.Name):
                    self.roots.pop(target.id, None)
            return
        if isinstance(stmt, ast.Return):
            roots = self.eval(stmt.value)
            self.info.returns_params.update(
                name for base, name in roots if base == "param"
            )
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_roots = self.eval(stmt.iter)
            self.bind_target(stmt.target, iter_roots)
            # Two passes: aliases established late in the body reach
            # mutations early in it on the second sweep.
            self.visit_body(stmt.body)
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self.visit_body(stmt.body)
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                roots = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.bind_target(item.optional_vars, roots)
            self.visit_body(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self.visit_body(stmt.body)
            for handler in stmt.handlers:
                if handler.type is not None:
                    self.eval(handler.type)
                self.visit_body(handler.body)
            self.visit_body(stmt.orelse)
            self.visit_body(stmt.finalbody)
            return
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
            return
        if isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
            if stmt.msg is not None:
                self.eval(stmt.msg)
            return
        if isinstance(stmt, ast.Raise):
            self.eval(stmt.exc)
            self.eval(stmt.cause)
            return
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self.aliases.update(module_aliases([stmt]))
            return
        # Global/Nonlocal/Pass/Break/Continue: nothing to evaluate.


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def _param_names(fn: ast.FunctionDef) -> Tuple[str, ...]:
    args = fn.args
    return tuple(
        a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
    )


def collect_module(tree: ast.Module, path: str) -> ModuleInfo:
    """Intraprocedural facts for every def in a parsed module."""
    nodes = list(ast.walk(tree))
    aliases = module_aliases(nodes)
    mutable_globals = _mutable_globals(tree, nodes)
    info = ModuleInfo(
        path=path,
        aliases=aliases,
        mutable_globals=mutable_globals,
        functions=[],
        toplevel_functions=set(),
        classes={},
        field_names=set(),
    )

    bases: Dict[str, Tuple[str, ...]] = {}  # class -> its bases, for super()

    def collect_fn(fn: ast.FunctionDef, class_name: Optional[str]) -> None:
        decorators = tuple(
            d for d in (_decorator_name(dec) for dec in fn.decorator_list)
            if d is not None
        )
        is_method = class_name is not None and "staticmethod" not in decorators
        qual = f"{class_name}.{fn.name}" if class_name else fn.name
        args = fn.args
        positional = len(args.posonlyargs) + len(args.args)
        fninfo = FunctionInfo(
            name=fn.name,
            qualname=qual,
            lineno=fn.lineno,
            params=_param_names(fn),
            is_method=is_method,
            decorators=decorators,
            positional=positional,
            required=positional - len(args.defaults),
            varargs=args.vararg is not None,
            varkw=args.kwarg is not None,
            vouched="effect_free" in decorators,
        )
        _FunctionAnalyzer(
            fn, fninfo, aliases, mutable_globals, bases.get(class_name, ())
        ).walk_function()
        info.functions.append(fninfo)

    def walk(node: ast.AST, class_name: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                info.classes.setdefault(child.name, [])
                bases[child.name] = tuple(
                    _canonical(dotted, aliases).rsplit(".", 1)[-1]
                    for dotted in map(_dotted, child.bases)
                    if dotted is not None
                )
                for stmt in child.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        info.field_names.add(stmt.target.id)
                walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                collect_fn(child, class_name)
                if class_name is None:
                    info.toplevel_functions.add(child.name)
                else:
                    info.classes.setdefault(class_name, []).append(child.name)
            elif isinstance(child, (ast.If, ast.Try)):
                walk(child, class_name)

    walk(tree, None)
    return info
