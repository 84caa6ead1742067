"""COMM001: collective send/recv step conservation, checked by execution.

Static inspection — the effect fixpoint, or the shape and cost
interpreter of :mod:`repro.statcheck.interp` — cannot follow a callback
chain like ``send_step -> on_complete -> send_step`` to its fixpoint, so
— exactly like the SHAPE004/SHAPE005 exec-over-battery checks in
:mod:`repro.statcheck.shapes` — this pass *runs* each collective against
a deterministic fake simulator and checks flow conservation:

- a ``(sim, nodes, message_bytes, ...)`` collective must put exactly
  ``2 * (n - 1) * message_bytes`` on the wire (ring: ``2(n-1)`` hops per
  slice over slices summing to the message; binomial tree: ``n-1``
  reduce plus ``n-1`` broadcast sends of the full message);
- a ``(sim, nodes, bytes_per_pair, ...)`` collective must put
  ``n * (n - 1) * bytes_per_pair`` on the wire;
- every callback chain must terminate (a send-count cap converts
  runaway recursion into a finding instead of a hang) and the returned
  result must report ``completed=True`` with an accurate
  ``total_bytes_on_wire``.

Conservation is checked against the *simulator-side* byte ledger, so a
collective that under-steps (the classic ``2*n - 1`` off-by-one) or
mis-reports its own accounting is caught either way.  The module is
exec'd with its imports stripped into a sandbox of stub decorators and
a fake ``Message``/simulator pair; a module that needs more than the
sandbox offers yields an explicit "unverifiable" finding, never a
silent pass.
"""

from __future__ import annotations

import ast
import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Third-parameter names that identify a collective entry point and fix
#: its conservation law.
_SIZE_LAWS = {
    "message_bytes": lambda n, size: 2 * (n - 1) * size,
    "bytes_per_pair": lambda n, size: n * (n - 1) * size,
}

#: (n, size) battery; includes sizes the node counts do not divide, so
#: floor-division slicing loses bytes visibly.
_BATTERY: Tuple[Tuple[int, int], ...] = (
    (1, 4096),
    (2, 4096),
    (3, 1000),
    (4, 4096),
    (5, 997),
    (7, 1000),
    (8, 4096),
)

_MAX_SENDS = 100_000


@dataclass(frozen=True)
class CommFinding:
    name: str
    lineno: int
    message: str


class _SendOverflow(RuntimeError):
    pass


@dataclass
class _FakeMessage:
    src: int
    dst: int
    size_bytes: int
    tag: str = ""
    on_complete: object = None


class _FakeSim:
    """Deterministic unit-latency event simulator: every send delivers
    whole at ``max(start, now) + 1.0`` and fires ``on_complete``."""

    def __init__(self) -> None:
        self._events: List[Tuple[float, int, object]] = []
        self._seq = 0
        self.now = 0.0
        self.sends = 0
        self.delivered_bytes = 0.0

    def send(self, message, start_time=None) -> None:
        self.sends += 1
        if self.sends > _MAX_SENDS:
            raise _SendOverflow()
        start = self.now if start_time is None else float(start_time)
        deliver = max(start, self.now) + 1.0
        heapq.heappush(self._events, (deliver, self._seq, message))
        self._seq += 1

    def run(self, until=None) -> float:
        while self._events:
            if until is not None and self._events[0][0] > until:
                break
            time, _, message = heapq.heappop(self._events)
            self.now = time
            self.delivered_bytes += message.size_bytes
            callback = getattr(message, "on_complete", None)
            if callback is not None:
                callback(message, time)
        return self.now


def _stub_decorator(*args, **kwargs):
    if args and callable(args[0]) and not kwargs:
        return args[0]
    return lambda fn: fn


def _sandbox() -> Dict[str, object]:
    import dataclasses
    import typing

    namespace: Dict[str, object] = {
        "math": math,
        "dataclass": dataclasses.dataclass,
        "field": dataclasses.field,
        "shaped": _stub_decorator,
        "partitioned": _stub_decorator,
        "checked": _stub_decorator,
        "cost": _stub_decorator,
        "Message": _FakeMessage,
        "NetworkSimulator": object,
        "HardwareParams": object,
        "DEFAULT_PARAMS": object(),
    }
    for name in (
        "Optional", "Sequence", "Dict", "List", "Tuple", "Callable",
        "Iterable", "Iterator", "Mapping", "Set", "FrozenSet", "Union",
        "Any",
    ):
        namespace[name] = getattr(typing, name)
    return namespace


_ALLOWED_TOPLEVEL = (
    ast.Import,
    ast.ImportFrom,
    ast.FunctionDef,
    ast.ClassDef,
    ast.Assign,
    ast.AnnAssign,
)


def _imported_names(tree: ast.Module) -> List[str]:
    names: List[str] = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.append((alias.asname or alias.name).split(".")[0])
    return names


def _collective_targets(tree: ast.Module) -> List[Tuple[ast.FunctionDef, str]]:
    """Module-level defs shaped like ``(sim, nodes, <size>, ...)``."""
    out: List[Tuple[ast.FunctionDef, str]] = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        params = [a.arg for a in node.args.posonlyargs + node.args.args]
        if (
            len(params) >= 3
            and params[0] == "sim"
            and params[1] == "nodes"
            and params[2] in _SIZE_LAWS
        ):
            out.append((node, params[2]))
    return out


def check_collectives(
    tree: ast.Module, path: str = "<string>"
) -> List[CommFinding]:
    """All conservation violations among the module's collectives."""
    targets = _collective_targets(tree)
    if not targets:
        return []

    for node in tree.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # docstring / bare literal
        if not isinstance(node, _ALLOWED_TOPLEVEL):
            return [
                CommFinding(
                    fn.name, fn.lineno,
                    "unverifiable: module has top-level "
                    f"`{type(node).__name__}` statements, so the "
                    "collective cannot be exec'd for step matching",
                )
                for fn, _ in targets
            ]

    namespace = _sandbox()
    missing = object()
    for name in _imported_names(tree):
        if name == "annotations":
            continue
        namespace.setdefault(name, missing)
    stripped = ast.Module(
        body=[
            n for n in tree.body
            if not isinstance(n, (ast.Import, ast.ImportFrom))
        ],
        type_ignores=[],
    )
    try:
        exec(  # noqa: S102 — purity-gated collective module, sandboxed ns
            compile(ast.fix_missing_locations(stripped), path, "exec"),
            namespace,
        )
    except Exception as exc:  # pragma: no cover - defensive
        return [
            CommFinding(
                fn.name, fn.lineno,
                f"unverifiable: module body failed to exec ({exc!r})",
            )
            for fn, _ in targets
        ]

    findings: List[CommFinding] = []
    for fn, size_param in targets:
        law = _SIZE_LAWS[size_param]
        runner = namespace.get(fn.name)
        if not callable(runner):
            findings.append(
                CommFinding(fn.name, fn.lineno,
                            "unverifiable: exec did not produce a callable")
            )
            continue
        problem: Optional[str] = None
        for n, size in _BATTERY:
            sim = _FakeSim()
            nodes = list(range(n))
            try:
                result = runner(sim, nodes, size)
            except _SendOverflow:
                problem = (
                    f"callback chain does not terminate: n={n}, "
                    f"{size_param}={size} exceeded {_MAX_SENDS} sends"
                )
                break
            except Exception as exc:
                problem = (
                    f"unverifiable: raised {exc!r} at n={n}, "
                    f"{size_param}={size}"
                )
                break
            expected = law(n, size)
            wire = sim.delivered_bytes
            if wire != expected:
                problem = (
                    f"step conservation violated: n={n}, "
                    f"{size_param}={size} put {wire:g} bytes on the wire, "
                    f"expected {expected:g}"
                )
                break
            completed = getattr(result, "completed", missing)
            if completed is not True:
                problem = (
                    f"result.completed is {completed!r} on a fault-free "
                    f"run (n={n}, {size_param}={size})"
                )
                break
            reported = getattr(result, "total_bytes_on_wire", None)
            if reported is not None and reported != expected:
                problem = (
                    f"result.total_bytes_on_wire={reported:g} disagrees "
                    f"with the wire ledger {expected:g} (n={n}, "
                    f"{size_param}={size})"
                )
                break
        if problem is not None:
            findings.append(CommFinding(fn.name, fn.lineno, problem))
    return findings
