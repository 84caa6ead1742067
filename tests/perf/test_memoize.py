"""Sweep memoization: key faithfulness and cache behaviour.

The property the whole subsystem rests on: *any* change to a compared
field of *any* argument — including fields of nested dataclasses — must
produce a different key (a cache miss).  ``TestEveryFieldChangesTheKey``
verifies it mechanically for every field of the config dataclasses the
sweep kernels take, recursing into nested dataclass fields, rather than
hand-picking a few; the display-only fields equality ignores are named.
"""

import ast
import dataclasses
import gc
import inspect
import weakref
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.core.config import MachineConfig, SystemConfig, w_mp_plus_plus
from repro.faults.plan import FaultPlan, LinkFault, PacketLoss, Straggler, WorkerFault
from repro.params import HardwareParams
from repro.perf import build_key, memoize_sweep
from repro.planner import StrategyKnobs, plan_network
from repro.winograd import make_transform
from repro.workloads.layers import ConvLayerSpec
from repro.workloads.networks import CnnSpec


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def key(obj):
    """The key a memoized one-argument call on ``obj`` builds."""
    return build_key((obj,), {})


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
        return [value * 2 + 1.0, value / 2]
    if isinstance(value, str):
        # Stay within validated vocabularies where one exists.
        swaps = {"spatial": ["winograd"], "winograd": ["spatial", "direct"],
                 "direct": ["winograd"]}
        return swaps.get(value, []) + [value + "_changed"]
    if isinstance(value, tuple):
        return [value[:-1], value + value[:1]]
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


LAYER = ConvLayerSpec("Mid-2", 512, 512, 28, 28)

#: Display-only fields, which equality (and so the key) ignores.
DISPLAY_ONLY = {ConvLayerSpec: {("name",)}}


class TestEveryFieldChangesTheKey:
    """memoize_sweep must miss when ANY compared field of an argument
    changes, and hit when only a display-only field does."""

    @pytest.mark.parametrize(
        "base",
        [
            MachineConfig(),
            SystemConfig(name="x"),
            StrategyKnobs(batch_splits=(1, 2)),
            FaultPlan(
                seed=1,
                link_faults=(LinkFault(src=0, dst=1),),
                worker_faults=(WorkerFault(worker=3),),
                stragglers=(Straggler(worker=2, slowdown=1.5),),
                losses=(PacketLoss(loss_prob=0.1),),
            ),
            LAYER,
        ],
        ids=["MachineConfig", "SystemConfig", "StrategyKnobs", "FaultPlan",
             "ConvLayerSpec"],
    )
    def test_every_field_path_invalidates(self, base):
        baseline = key(base)
        hash(baseline)  # a cache key must hash
        skipped = DISPLAY_ONLY.get(type(base), set())
        paths = [p for p in _leaf_field_paths(base) if p not in skipped]
        assert paths, "dataclass under test has no fields?"
        for path in paths:
            changed = _change_at_path(base, path)
            assert key(changed) != baseline, (
                f"changing field {'.'.join(path)} did not change the key"
            )

    def test_nested_params_field_reaches_key(self):
        """MachineConfig.params.* (nested dataclass) is covered."""
        base = MachineConfig()
        deep = replace(
            base, params=replace(base.params, dram_bytes_per_s=1.0)
        )
        assert key(deep) != key(base)

    def test_hardware_params_every_field(self):
        base = HardwareParams()
        baseline = key(base)
        for f in dataclasses.fields(base):
            changed = _with_one_field_changed(base, f.name)
            assert key(changed) != baseline, f.name

    def test_layer_name_is_display_only(self):
        renamed = replace(LAYER, name="conv4_2")
        assert key(renamed) == key(LAYER)
        assert hash(key(renamed)) == hash(key(LAYER))

    def test_transforms_built_apart_share_a_key(self):
        first = make_transform(4, 3)
        make_transform.cache_clear()
        second = make_transform(4, 3)
        assert first is not second
        assert key(first) == key(second)
        assert hash(key(first)) == hash(key(second))
        assert key(first) != key(make_transform(2, 3))


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

    def test_unhashable_arguments_raise(self):
        @memoize_sweep
        def f(xs):
            return sum(xs)

        with pytest.raises(TypeError, match="unhashable"):
            f([1, 2])
        assert f.cache_info() == {"hits": 0, "misses": 0, "size": 0}

    def test_list_batch_splits_plan_as_the_tuple(self):
        net = CnnSpec("probe", "none", [LAYER, replace(LAYER, name="again")])
        listed = plan_network(net, w_mp_plus_plus(), knobs=StrategyKnobs(batch_splits=[1, 2]))
        tupled = plan_network(net, w_mp_plus_plus(), knobs=StrategyKnobs(batch_splits=(1, 2)))
        assert listed is tupled

    def test_cleared_cache_keeps_no_argument_alive(self):
        @memoize_sweep
        def f(layer):
            return layer.in_channels

        layer = ConvLayerSpec("probe", 3, 5, 7, 7)
        alive = weakref.ref(layer)
        assert f(layer) == 3
        f.cache_clear()
        del layer
        gc.collect()
        assert alive() is None


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
        # ``SWEEP_MODULES`` must name exactly the modules that define a
        # ``@memoize_sweep`` kernel: the benchmark clears every cache in
        # this registry between cold ops, so a missing module would leave
        # its cache warm and a stale one would load code for nothing.
        from repro.perf import MEMOIZED_SWEEPS, SWEEP_MODULES, import_sweep_modules

        kernels = set()
        for path in SRC.rglob("*.py"):
            module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    (dec.id if isinstance(dec, ast.Name) else getattr(dec, "attr", None))
                    == "memoize_sweep"
                    for dec in node.decorator_list
                ):
                    kernels.add((module, node.name))
        assert {module for module, _ in kernels} == set(SWEEP_MODULES)
        import_sweep_modules()
        registered = {
            (fn.__module__, fn.__name__)
            for fn in MEMOIZED_SWEEPS.values()
            if fn.__module__.startswith("repro.")
        }
        assert registered == kernels


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
