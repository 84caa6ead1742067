"""Content-hash memoization: key faithfulness and cache behaviour.

The property the whole subsystem rests on: *any* field change in *any*
argument — including fields of nested dataclasses — must produce a
different sweep key (a cache miss).  ``TestEveryFieldChangesTheKey``
verifies it mechanically for every field of ``MachineConfig`` and
``SystemConfig``, recursing into nested dataclass fields, rather than
hand-picking a few.
"""

import dataclasses
import inspect
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

from repro.core.config import GridConfig, MachineConfig, SystemConfig
from repro.params import HardwareParams
from repro.perf import canonicalize, memoize_sweep, register_canonical, sweep_key


# ---- canonicalize -----------------------------------------------------------


class TestCanonicalize:
    def test_primitives_pass_through(self):
        for value in (1, 1.5, "x", b"x", True, None):
            assert canonicalize(value) == value

    def test_dataclass_includes_every_field(self):
        canon = canonicalize(GridConfig(4, 64))
        assert canon == ("GridConfig", ("num_groups", 4), ("num_clusters", 64))

    def test_equal_content_distinct_objects_share_keys(self):
        a = SystemConfig(name="x", mpt=True)
        b = SystemConfig(name="x", mpt=True)
        assert a is not b
        assert canonicalize(a) == canonicalize(b)

    def test_containers(self):
        assert canonicalize([1, 2]) == canonicalize((1, 2))
        assert canonicalize({1, 2}) == canonicalize({2, 1})
        assert canonicalize({"a": 1}) == canonicalize({"a": 1})
        assert canonicalize({"a": 1}) != canonicalize({"a": 2})

    def test_fraction(self):
        assert canonicalize(Fraction(1, 3)) == ("Fraction", 1, 3)

    def test_ndarray_content_keyed(self):
        a = np.arange(6).reshape(2, 3)
        assert canonicalize(a) == canonicalize(a.copy())
        assert canonicalize(a) != canonicalize(a.T.copy())
        assert canonicalize(a) != canonicalize(a.astype(np.float64))

    def test_unsupported_type_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="register a canonical form"):
            canonicalize(Opaque())

    def test_register_canonical_hook(self):
        class Wrapped:
            def __init__(self, payload):
                self.payload = payload

        register_canonical(Wrapped, lambda w: w.payload)
        try:
            assert canonicalize(Wrapped(3)) == canonicalize(Wrapped(3))
            assert canonicalize(Wrapped(3)) != canonicalize(Wrapped(4))
        finally:
            from repro.perf.memoize import _CANONICAL_HOOKS, _KIND_BY_TYPE

            _CANONICAL_HOOKS.pop(Wrapped, None)
            _KIND_BY_TYPE.pop(Wrapped, None)


# ---- the field-invalidation property ----------------------------------------


def _candidate_perturbations(value):
    """Values different from ``value`` but type-compatible; some may be
    rejected by a config's ``__post_init__`` validation, so callers try
    them in order."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value * 2, value + 1, value - 1]
    if isinstance(value, float):
        return [value * 2 + 1.0]
    if isinstance(value, str):
        # Stay within validated vocabularies where one exists.
        swaps = {"spatial": ["winograd"], "winograd": ["spatial", "direct"],
                 "direct": ["winograd"]}
        return swaps.get(value, []) + [value + "_changed"]
    if dataclasses.is_dataclass(value):
        return [
            _with_one_field_changed(value, dataclasses.fields(value)[0].name)
        ]
    raise NotImplementedError(f"no perturbation for {value!r}")


def _with_one_field_changed(obj, field_name):
    value = getattr(obj, field_name)
    for candidate in _candidate_perturbations(value):
        try:
            return replace(obj, **{field_name: candidate})
        except ValueError:
            continue
    raise AssertionError(f"no valid perturbation of {field_name}={value!r}")


def _leaf_field_paths(obj, prefix=()):
    """Every (path, ...) of fields reachable through nested dataclasses."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        path = prefix + (f.name,)
        yield path
        if dataclasses.is_dataclass(value):
            yield from _leaf_field_paths(value, path)


def _change_at_path(obj, path):
    field_name, rest = path[0], path[1:]
    if not rest:
        return _with_one_field_changed(obj, field_name)
    changed = _change_at_path(getattr(obj, field_name), rest)
    return replace(obj, **{field_name: changed})


class TestEveryFieldChangesTheKey:
    """memoize_sweep must miss when ANY field of a config changes."""

    @pytest.mark.parametrize("base", [MachineConfig(), SystemConfig(name="x")],
                             ids=["MachineConfig", "SystemConfig"])
    def test_every_field_path_invalidates(self, base):
        baseline = sweep_key(base)
        paths = list(_leaf_field_paths(base))
        assert paths, "dataclass under test has no fields?"
        for path in paths:
            changed = _change_at_path(base, path)
            assert sweep_key(changed) != baseline, (
                f"changing field {'.'.join(path)} did not change the key"
            )

    def test_nested_params_field_reaches_key(self):
        """MachineConfig.params.* (nested dataclass) is covered."""
        base = MachineConfig()
        deep = replace(
            base, params=replace(base.params, dram_bytes_per_s=1.0)
        )
        assert sweep_key(deep) != sweep_key(base)

    def test_hardware_params_every_field(self):
        base = HardwareParams()
        baseline = sweep_key(base)
        for f in dataclasses.fields(base):
            changed = _with_one_field_changed(base, f.name)
            assert sweep_key(changed) != baseline, f.name


# ---- memoize_sweep wrapper --------------------------------------------------


@dataclass(frozen=True)
class Point:
    x: int
    y: int


class TestMemoizeSweep:
    def test_hits_on_equal_content(self):
        calls = []

        @memoize_sweep
        def f(p):
            calls.append(p)
            return p.x + p.y

        assert f(Point(1, 2)) == 3
        assert f(Point(1, 2)) == 3  # distinct object, equal content
        assert len(calls) == 1
        assert f.cache_info() == {"hits": 1, "misses": 1, "size": 1}

    def test_kwargs_order_is_canonical(self):
        @memoize_sweep
        def f(*, a=0, b=0):
            return (a, b)

        f(a=1, b=2)
        f(b=2, a=1)
        assert f.cache_info()["misses"] == 1
        assert f.cache_info()["hits"] == 1

    def test_cache_clear(self):
        @memoize_sweep
        def f(x):
            return x

        f(1)
        f.cache_clear()
        assert f.cache_info() == {"hits": 0, "misses": 0, "size": 0}

    def test_unhashable_arguments_work(self):
        @memoize_sweep
        def f(xs):
            return sum(xs)

        assert f([1, 2]) == 3
        assert f([1, 2]) == 3
        assert f.cache_info()["hits"] == 1


class TestRegistrationPolicy:
    """Static-verifiability guarantees enforced at decoration time."""

    def test_kwargs_functions_are_refused(self):
        with pytest.raises(TypeError, match="refuses"):
            @memoize_sweep
            def leaky(a, **rest):
                return a

    def test_refusal_names_the_offending_parameter(self):
        with pytest.raises(TypeError, match=r"\*\*extras"):
            @memoize_sweep
            def leaky(a, **extras):
                return a

    def test_refusal_happens_before_any_call(self):
        calls = []
        try:
            @memoize_sweep
            def leaky(**kw):
                calls.append(kw)
        except TypeError:
            pass
        assert calls == []

    def test_positional_only_and_defaults_are_accepted(self):
        @memoize_sweep
        def fine(a, b=2, *, c=3):
            return a + b + c

        assert fine(1) == 6

    def test_keys_follow_the_signature(self):
        calls = []

        @memoize_sweep
        def f(a, b=2, *, c=3):
            calls.append((a, b, c))
            return a + b + c

        assert {f(1), f(1, 2), f(1, b=2), f(a=1), f(1, c=3), f(b=2, a=1)} == {6}
        assert calls == [(1, 2, 3)]
        assert f.cache_info() == {"hits": 5, "misses": 1, "size": 1}
        assert f(1, 3) == 7 and f(1, c=5) == 8
        assert f.cache_info()["misses"] == 3

    def test_full_positional_call_does_not_bind(self, monkeypatch):
        @memoize_sweep
        def f(a, b=2):
            return a + b

        binds = []
        bind = inspect.Signature.bind

        def counting(self, *args, **kwargs):
            binds.append(args)
            return bind(self, *args, **kwargs)

        monkeypatch.setattr(inspect.Signature, "bind", counting)
        assert f(1, 2) == f(1, 2) == 3
        assert binds == []
        assert f(1) == 3 and f.cache_info()["hits"] == 2
        assert binds == [(1,)]

    def test_bad_call_raises_type_error(self):
        @memoize_sweep
        def f(a, b=2):
            return a + b

        with pytest.raises(TypeError):
            f()
        with pytest.raises(TypeError):
            f(1, d=4)
        assert f.cache_info()["size"] == 0

    def test_reconfigure_builds_one_machine_per_grid(self, monkeypatch):
        from repro.netsim import reconfiguration
        from repro.netsim.reconfiguration import reconfigure
        from repro.params import DEFAULT_PARAMS

        builds = []
        hybrid = reconfiguration.hybrid

        def counting(*args, **kwargs):
            builds.append(args)
            return hybrid(*args, **kwargs)

        monkeypatch.setattr(reconfiguration, "hybrid", counting)
        reconfigure.cache_clear()
        try:
            machines = {
                id(reconfigure(16, 16, 16)),
                id(reconfigure(16, 16, 16, DEFAULT_PARAMS)),
                id(reconfigure(16, 16, logical_groups=16)),
                id(reconfigure(physical_groups=16, clusters=16, logical_groups=16,
                               params=DEFAULT_PARAMS)),
            }
            assert len(machines) == 1
            assert len(builds) == 1
            assert reconfigure.cache_info() == {"hits": 3, "misses": 1, "size": 1}
        finally:
            reconfigure.cache_clear()

    def test_registry_records_decorated_functions(self):
        from repro.perf import MEMOIZED_SWEEPS

        @memoize_sweep
        def tracked(a):
            return a

        assert MEMOIZED_SWEEPS[tracked.__wrapped__.__qualname__] is tracked

    def test_tree_kernels_are_registered(self):
        import repro.core.dynamic_clustering  # noqa: F401
        import repro.core.perf_model  # noqa: F401
        from repro.perf import MEMOIZED_SWEEPS

        assert "evaluate_layer_cached" in MEMOIZED_SWEEPS
        assert "_choose_clustering_cached" in MEMOIZED_SWEEPS


class TestEffectFree:
    def test_marker_attribute_is_set(self):
        from repro.perf import effect_free

        def probe():
            pass

        assert effect_free(probe) is probe
        assert probe.__statcheck_effect_free__ is True

    def test_profiler_hooks_are_vouched(self):
        from repro.perf.profiler import counter_add

        assert counter_add.__statcheck_effect_free__ is True
