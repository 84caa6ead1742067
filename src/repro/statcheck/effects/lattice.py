"""The effect lattice: atoms, joins and per-function summaries.

An *effect atom* is a ``(kind, detail)`` pair describing one observable
side channel of a function:

=================  ==========================================================
kind               meaning / detail
=================  ==========================================================
``mutates``        detail = parameter name whose argument object is mutated
``global-read``    detail = mutable module-global name that is read
``global-write``   detail = mutable module-global name that is written/rebound
``env``            detail = the environment access (``os.environ``, ...)
``rng``            detail = the nondeterministic draw (``np.random.rand``, ...)
``clock``          detail = the wall-clock read (``time.perf_counter``, ...)
``io``             detail = the filesystem/stream access (``open``, ``print``)
``unknown-call``   detail = a *named* callee the analysis could not resolve
``dynamic-call``   detail = a call through a stored callable (callback field,
                   local variable, subscript) — visible as dynamic dispatch
=================  ==========================================================

An :class:`EffectSet` is an element of the powerset lattice over atoms:
``join`` is set union, bottom is the empty set (pure), and ``leq`` is
subset order.  The interprocedural fixpoint in
:mod:`repro.statcheck.effects.analysis` only ever *joins* translated
callee summaries into callers, so every transfer function is monotone
and the fixpoint terminates on the finite per-package atom universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

#: One effect atom.
Effect = Tuple[str, str]

MUTATES = "mutates"
GLOBAL_READ = "global-read"
GLOBAL_WRITE = "global-write"
ENV = "env"
RNG = "rng"
CLOCK = "clock"
IO = "io"
UNKNOWN_CALL = "unknown-call"
DYNAMIC_CALL = "dynamic-call"

#: Atom kinds that make a function impure *modulo its arguments* — the
#: kinds EFF001 refuses in a memoized closure.  Unknown/dynamic calls
#: are reported in summaries (and gate the coverage acceptance test)
#: but are not themselves findings.
IMPURE_KINDS = frozenset({MUTATES, GLOBAL_READ, GLOBAL_WRITE, ENV, RNG, CLOCK, IO})


class EffectSet:
    """An immutable element of the effect lattice (a frozenset of atoms
    with lattice operations spelled out)."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[Effect] = ()) -> None:
        object.__setattr__(self, "atoms", frozenset(atoms))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("EffectSet is immutable")

    # -- lattice operations ------------------------------------------------
    @classmethod
    def bottom(cls) -> "EffectSet":
        return _BOTTOM

    def join(self, other: "EffectSet") -> "EffectSet":
        if not other.atoms:
            return self
        if not self.atoms:
            return other
        return EffectSet(self.atoms | other.atoms)

    def leq(self, other: "EffectSet") -> bool:
        """Partial order: ``self`` is below ``other``."""
        return self.atoms <= other.atoms

    # -- container protocol ------------------------------------------------
    def __iter__(self) -> Iterator[Effect]:
        return iter(sorted(self.atoms))

    def __contains__(self, atom: Effect) -> bool:
        return atom in self.atoms

    def __len__(self) -> int:
        return len(self.atoms)

    def __bool__(self) -> bool:
        return bool(self.atoms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EffectSet) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{d}" for k, d in sorted(self.atoms))
        return f"EffectSet({{{inner}}})"

    # -- queries -----------------------------------------------------------
    def of_kind(self, *kinds: str) -> List[Effect]:
        return sorted(a for a in self.atoms if a[0] in kinds)

    @property
    def impure(self) -> List[Effect]:
        """Atoms that violate purity-modulo-arguments (EFF001's list)."""
        return sorted(a for a in self.atoms if a[0] in IMPURE_KINDS)

    @property
    def unresolved(self) -> List[Effect]:
        return sorted(a for a in self.atoms if a[0] == UNKNOWN_CALL)


_BOTTOM = EffectSet()


@dataclass
class FunctionSummary:
    """Post-fixpoint effect summary of one function definition."""

    qualname: str
    path: str
    lineno: int
    params: Tuple[str, ...]
    is_method: bool
    direct: EffectSet
    transitive: EffectSet
    #: Parameter names the return value may alias (own return exprs only).
    returns_params: Tuple[str, ...]
    #: Enclosing-scope names captured by nested defs/lambdas (their
    #: bodies are folded into this summary; listed for the JSON report).
    captures: Tuple[str, ...]
    #: True when ``@effect_free`` vouches for the function: the summary
    #: is forced to bottom and the body is not consulted.
    vouched: bool = False
    #: atom -> qualname of the function whose body introduced it (the
    #: originating definition, after translation through call chains).
    origins: Dict[Effect, str] = field(default_factory=dict)

    def origin_of(self, atom: Effect) -> str:
        return self.origins.get(atom, self.qualname)

    def to_json(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "path": self.path,
            "line": self.lineno,
            "params": list(self.params),
            "method": self.is_method,
            "vouched": self.vouched,
            "direct": [list(a) for a in self.direct],
            "transitive": [
                list(a) + [self.origin_of(a)] for a in self.transitive
            ],
            "returns_params": list(self.returns_params),
            "captures": list(self.captures),
            "pure": not self.transitive.impure,
        }


def describe(atom: Effect) -> str:
    """Human-readable rendering of one atom for finding messages."""
    kind, detail = atom
    if kind == MUTATES:
        return f"mutates argument `{detail}`"
    if kind == GLOBAL_READ:
        return f"reads mutable module global `{detail}`"
    if kind == GLOBAL_WRITE:
        return f"writes module global `{detail}`"
    if kind == ENV:
        return f"reads the process environment ({detail})"
    if kind == RNG:
        return f"draws nondeterministic randomness ({detail})"
    if kind == CLOCK:
        return f"reads the wall clock ({detail})"
    if kind == IO:
        return f"performs I/O ({detail})"
    if kind == UNKNOWN_CALL:
        return f"calls unresolved callee `{detail}`"
    return f"calls through stored callable `{detail}`"
