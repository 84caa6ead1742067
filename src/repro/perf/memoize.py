"""Content-hash memoization for pure sweep evaluations.

The figure and ablation sweeps evaluate the same ``(layer, grid,
batch)`` perf-model points thousands of times — per configuration, per
worker count, per network — and every evaluation is a pure function of
a handful of (mostly frozen) dataclasses.  :func:`memoize_sweep` caches
those evaluations behind a *content* key: two calls hit the same entry
exactly when every field of every argument (including nested dataclass
fields) is equal, so mutating any knob of a config invalidates the key
by construction.

Cached results are shared between callers and must be treated as
immutable; every current consumer only reads them.

Keys are built by :func:`canonicalize`, which recurses structurally and
therefore needs no per-type registration — but expensive-to-recurse
types (e.g. :class:`~repro.winograd.cook_toom.WinogradTransform`, whose
exact-Fraction matrices are fully determined by ``(m, r)``) can install
a cheaper canonical form with :func:`register_canonical`.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Tuple

_CANONICAL_HOOKS: Dict[type, Callable[[Any], Any]] = {}

#: Every function registered through :func:`memoize_sweep`, by
#: qualified name.  The statcheck effect suite (EFF001) verifies each
#: entry pure; tests iterate this to assert the registry and the
#: static pass agree on what is memoized.
MEMOIZED_SWEEPS: Dict[str, Callable] = {}


def effect_free(fn: Callable) -> Callable:
    """Vouch that ``fn`` is effect-free for the purposes of static
    effect inference (``repro.statcheck.effects``).

    The analysis treats a vouched function's summary as pure without
    reading its body.  Reserve this for observability-only helpers
    whose effects are *designed* to be invisible to cached results —
    the profiler's ``counter_add`` counters are the canonical case.  A
    function whose effects feed back into return values must never be
    vouched; the seeded-mutation tests exist to keep that temptation
    expensive.
    """
    fn.__statcheck_effect_free__ = True
    return fn

_PRIMITIVES = (bool, int, float, str, bytes)

# canonicalize() dispatches on a per-type *kind*, classified once per
# class: repeated isinstance/is_dataclass probing per node dominated
# key-building time in the sweeps.
_K_PRIMITIVE = 0
_K_FROZEN_DC = 1
_K_MUTABLE_DC = 2
_K_HOOKED = 3
_K_FRACTION = 4
_K_SEQ = 5
_K_SET = 6
_K_MAP = 7
_K_ARRAY = 8
_K_UNSUPPORTED = 9

_KIND_BY_TYPE: Dict[type, int] = {
    bool: _K_PRIMITIVE,
    int: _K_PRIMITIVE,
    float: _K_PRIMITIVE,
    str: _K_PRIMITIVE,
    bytes: _K_PRIMITIVE,
    type(None): _K_PRIMITIVE,
    tuple: _K_SEQ,
    list: _K_SEQ,
    set: _K_SET,
    frozenset: _K_SET,
    dict: _K_MAP,
    Fraction: _K_FRACTION,
}


def _classify(cls: type) -> int:
    if is_dataclass(cls):
        if cls.__dataclass_params__.frozen:
            return _K_FROZEN_DC
        return _K_MUTABLE_DC
    if cls in _CANONICAL_HOOKS:
        return _K_HOOKED
    if issubclass(cls, Fraction):
        return _K_FRACTION
    if issubclass(cls, (tuple, list)):
        return _K_SEQ
    if issubclass(cls, (set, frozenset)):
        return _K_SET
    if issubclass(cls, dict):
        return _K_MAP
    if hasattr(cls, "dtype") and hasattr(cls, "tobytes"):  # ndarray-like
        return _K_ARRAY
    return _K_UNSUPPORTED


# Field names per dataclass type (``dataclasses.fields`` is surprisingly
# slow to call per object on the key-building hot path).
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}

# Canonical forms of *frozen* dataclass instances, keyed by object
# identity.  The sweeps pass the same config/params singletons to every
# evaluation; recursing through their fields once per call dominated
# key-building time.  The memo keeps a strong reference to each object,
# so a live entry's ``id`` can never be reused by a different object.
# Frozen dataclasses are treated as deeply immutable here — a frozen
# config holding a list that is mutated in place would go stale, and no
# repo config does that.
_FROZEN_MEMO: Dict[int, Tuple[Any, Any]] = {}


def _field_names(cls: type) -> Tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in fields(cls))
        _FIELD_NAMES[cls] = names
    return names


def register_canonical(cls: type, fn: Callable[[Any], Any]) -> None:
    """Install a cheap canonical form for ``cls`` (applies to exactly
    that class, not subclasses, so a subclass with extra state is never
    silently collapsed onto its parent's key).

    Register hooks at import time, before instances of ``cls`` are
    canonicalized: already-memoized canonical forms are not rebuilt.
    """
    _CANONICAL_HOOKS[cls] = fn
    # Re-classify on next sight (dataclass kinds keep their hook check
    # inside the canon builder; other types become _K_HOOKED).
    _KIND_BY_TYPE.pop(cls, None)


def canonicalize(obj: Any) -> Any:
    """A hashable, equality-faithful canonical form of ``obj``.

    Dataclasses canonicalize to ``(qualname, (field, value), ...)`` so
    *any* field change — including nested dataclass fields — produces a
    different key.  Raises ``TypeError`` for types it cannot prove
    faithful, rather than guessing.
    """
    cls = type(obj)
    kind = _KIND_BY_TYPE.get(cls)
    if kind is None:
        kind = _classify(cls)
        _KIND_BY_TYPE[cls] = kind
    if kind == _K_PRIMITIVE:
        return obj
    if kind == _K_FROZEN_DC:
        # The id() only gates an identity memo — the *stored value* is
        # the content-derived canonical form, so keys themselves never
        # depend on object identity (run-to-run determinism holds).
        cached = _FROZEN_MEMO.get(id(obj))  # statcheck: ignore[DET004]
        if cached is not None:
            return cached[1]
        canon = _dataclass_canon(obj, cls)
        _FROZEN_MEMO[id(obj)] = (obj, canon)  # statcheck: ignore[DET004]
        return canon
    if kind == _K_MUTABLE_DC:
        return _dataclass_canon(obj, cls)
    if kind == _K_SEQ:
        return ("seq",) + tuple(canonicalize(item) for item in obj)
    if kind == _K_HOOKED:
        return (cls.__qualname__, canonicalize(_CANONICAL_HOOKS[cls](obj)))
    if kind == _K_FRACTION:
        return ("Fraction", obj.numerator, obj.denominator)
    if kind == _K_SET:
        # Sort by repr: canonical forms are heterogeneous (ints, tuples)
        # and only need a *stable* order, not a meaningful one.
        return ("set",) + tuple(sorted((canonicalize(i) for i in obj), key=repr))
    if kind == _K_MAP:
        return ("map",) + tuple(
            sorted(
                ((canonicalize(k), canonicalize(v)) for k, v in obj.items()),
                key=repr,
            )
        )
    if kind == _K_ARRAY:
        return ("array", str(obj.dtype), tuple(obj.shape), obj.tobytes())
    raise TypeError(
        f"cannot build a content key for {cls.__qualname__}; "
        "register a canonical form with repro.perf.register_canonical"
    )


def _dataclass_canon(obj: Any, cls: type) -> Any:
    hook = _CANONICAL_HOOKS.get(cls)
    if hook is not None:
        return (cls.__qualname__, canonicalize(hook(obj)))
    return (cls.__qualname__,) + tuple(
        (name, canonicalize(getattr(obj, name))) for name in _field_names(cls)
    )


def sweep_key(*objs: Any) -> Tuple[Any, ...]:
    """Content key of a tuple of arguments (see :func:`canonicalize`)."""
    return tuple(canonicalize(obj) for obj in objs)


def build_key(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Tuple[Any, Any]:
    """The exact cache key a :func:`memoize_sweep` wrapper builds for a
    call ``fn(*args, **kwargs)`` — a fixed ``(positional, keyword)``
    2-tuple of canonical forms.  The wrapper calls it by module-level
    name, so a tracer that rebinds it sees every key build.
    """
    if kwargs:
        kw_key: Any = tuple(
            (name, canonicalize(value))
            for name, value in sorted(kwargs.items())
        )
    else:
        kw_key = ()
    return (tuple(map(canonicalize, args)), kw_key)


_MISSING = object()


class SweepCache:
    """In-memory store keyed by content keys, with hit/miss counters."""

    def __init__(self) -> None:
        self._memory: Dict[Any, Any] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memory)

    def lookup(self, key: Any) -> Tuple[bool, Any]:
        """``(found, value)`` — counts a hit/miss."""
        # Single dict probe: hashing a deep canonical tuple is the hot
        # cost here, so avoid the contains-then-getitem double hash.
        value = self._memory.get(key, _MISSING)
        if value is not _MISSING:
            self.hits += 1
            return True, value
        self.misses += 1
        return False, None

    def store(self, key: Any, value: Any) -> None:
        self._memory[key] = value

    def clear(self) -> None:
        self._memory.clear()
        self.hits = 0
        self.misses = 0

    def info(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._memory)}


def memoize_sweep(func: Callable) -> Callable:
    """Decorator: memoize a pure function behind a content-hash key.

    Unlike ``functools.lru_cache`` the key is built from argument
    *contents* (recursing into dataclass fields), so unhashable or
    freshly-constructed-but-equal arguments hit the same entry.  The
    wrapper exposes ``cache`` (the :class:`SweepCache`), ``cache_info()``
    and ``cache_clear()``.
    """
    # Refuse **kwargs up front: a catch-all keyword dict invites passing
    # arbitrary objects that bypass per-type canonical hooks, silently
    # degrading key fidelity.  Raising at registration (import time)
    # turns a latent cache-aliasing bug into an immediate, attributable
    # failure.
    for param in inspect.signature(func).parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            raise TypeError(
                f"memoize_sweep refuses {func.__qualname__!r}: "
                f"**{param.name} makes the content key unfaithful "
                "(arbitrary keywords bypass canonical hooks); "
                "spell the cacheable keywords out explicitly"
            )
    cache = SweepCache()

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        key = build_key(args, kwargs)
        found, value = cache.lookup(key)
        if found:
            return value
        value = func(*args, **kwargs)
        cache.store(key, value)
        return value

    wrapper.cache = cache
    wrapper.cache_info = cache.info
    wrapper.cache_clear = cache.clear
    MEMOIZED_SWEEPS[func.__qualname__] = wrapper
    return wrapper
