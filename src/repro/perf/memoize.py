"""Memoization for pure sweep evaluations.

The figure and ablation sweeps evaluate the same ``(layer, grid,
batch)`` perf-model points thousands of times — per configuration, per
worker count, per network — and every evaluation is a pure function of
a handful of primitives, tuples and frozen dataclasses.
:func:`memoize_sweep` caches those evaluations keyed on the call's
bound arguments: two calls hit the same entry exactly when, bound to
the function's signature with defaults filled in, their arguments are
equal.  A frozen dataclass's generated equality and hash cover every
field (nested dataclasses included) that is not declared
``field(compare=False)``, so changing any compared knob of a config
misses by construction, and spelling an argument positionally, by
keyword or by its default does not.  An unhashable argument (a list, a
mutable dataclass) raises ``TypeError``.

Cached results are shared between callers and must be treated as
immutable; every current consumer only reads them.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Dict, Tuple

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


def build_key(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Tuple[Any, Any]:
    """The exact cache key a :func:`memoize_sweep` wrapper builds for a
    call ``fn(*args, **kwargs)`` already bound to ``fn``'s signature — a
    fixed ``(positional, keyword)`` 2-tuple of the arguments themselves.
    The wrapper calls it by module-level name, so a tracer that rebinds
    it sees every key build.
    """
    return (args, tuple(sorted(kwargs.items())))


_MISSING = object()


class SweepCache:
    """In-memory store keyed by :func:`build_key` keys, with hit/miss
    counters."""

    def __init__(self) -> None:
        self._memory: Dict[Any, Any] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memory)

    def lookup(self, key: Any) -> Tuple[bool, Any]:
        """``(found, value)`` — counts a hit/miss."""
        # Single dict probe: hashing the key hashes every argument (every
        # compared field of each dataclass), so hash it once, not twice.
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
    """Decorator: memoize a pure function on its bound arguments.

    Unlike ``functools.lru_cache`` the call is bound to the signature
    first, so equal arguments hit one entry however they are spelled.
    The wrapper exposes ``cache`` (the :class:`SweepCache`),
    ``cache_info()`` and ``cache_clear()``.
    """
    # Refuse **kwargs up front: statcheck's EFF001 and COST005 read the
    # declared parameters as the key, and a catch-all keyword dict hides
    # what the key holds from both.  Raising at registration (import
    # time) turns that blind spot into an immediate, attributable
    # failure.
    signature = inspect.signature(func)
    for param in signature.parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            raise TypeError(
                f"memoize_sweep refuses {func.__qualname__!r}: "
                f"**{param.name} hides the cache key's arguments from "
                "statcheck (EFF001 and COST005 read the declared "
                "parameters); spell the cacheable keywords out explicitly"
            )
    # Calls are keyed as bound to the signature, in declaration order
    # with defaults filled in, so ``f(1)``, ``f(1, 2)`` and ``f(1, b=2)``
    # share one entry when ``b`` defaults to 2.  A call that passes every
    # parameter positionally is already in that form and skips binding.
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    arity = (
        len(signature.parameters)
        if all(p.kind in positional for p in signature.parameters.values())
        else None
    )
    cache = SweepCache()

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if kwargs or len(args) != arity:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            args, kwargs = bound.args, bound.kwargs
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
