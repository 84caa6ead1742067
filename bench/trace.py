"""Exclusive per-layer self time of one benchmark op, measured from outside.

:class:`Tracer` wraps the public boundary of each software layer of
``repro`` (the :data:`LAYERS` table) while one op runs, and keeps a span
stack: a layer's *self time* is the wall time of its spans minus the part
covered by nested spans of any layer.  The op itself is the root span,
whose self time is reported as ``other``, so the layers' self times plus
``other`` add up to the op's wall clock.

Wrapping rebinds, for each boundary function, every ``repro.*`` module
global that *is* that function, and patches boundary methods on their
class; :meth:`Tracer.uninstall` restores every binding.  Nothing under
``src/`` is edited, and the wrappers never replace a memoized sweep
wrapper (``MEMOIZED_SWEEPS``), so cache keys and hit patterns are those of
an untraced run.

Counters come from the same boundaries (arguments and return values), from
the public ``repro.perf.profiler`` registry and from the sweep caches'
hit/miss statistics.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from bench.workloads import WORKLOADS


@dataclass(frozen=True)
class Layer:
    """One software layer: the boundary wrapped, the per-layer metrics it
    reports, and the end-to-end metric and workloads it should move."""

    name: str
    targets: Tuple[str, ...]  # "module:function" or "module:Class.method"
    metrics: Tuple[str, ...]
    moves: Tuple[Tuple[str, str], ...]  # (end-to-end metric, workload)


_FIGURES = "repro.analysis.figures:"

LAYERS: Tuple[Layer, ...] = (
    Layer(
        "winograd",
        (
            "repro.winograd.conv:winograd_forward",
            "repro.winograd.conv:winograd_backward",
            "repro.winograd.conv:winograd_forward_spatial",
            "repro.winograd.conv:winograd_backward_spatial",
            "repro.winograd.direct:conv2d_forward",
            "repro.winograd.direct:conv2d_backward_input",
            "repro.winograd.direct:conv2d_backward_weight",
        ),
        ("winograd.self_s", "winograd.calls", "winograd.tiles_per_s"),
        (("op_p50_s", "report"),),
    ),
    Layer(
        "nn",
        (
            "repro.nn.network:Sequential.forward",
            "repro.nn.network:Sequential.backward",
            "repro.nn.training:train",
            "repro.nn.optim:SGD.step",
        ),
        ("nn.self_s", "nn.steps"),
        (("op_p50_s", "report"),),
    ),
    Layer(
        "prediction",
        ("repro.prediction.statistics:run_prediction_sweep",),
        ("prediction.self_s",),
        (("op_p50_s", "report"),),
    ),
    Layer(
        "core",
        (
            "repro.core.perf_model:PerfModel.evaluate_layer",
            # What evaluate_layer and the memoized sweeps call on a miss.
            "repro.core.perf_model:PerfModel._evaluate_layer_impl",
            "repro.core.dynamic_clustering:choose_clustering",
            "repro.core.trainer:TrainingSimulator.simulate_iteration",
            "repro.core.trainer:TrainingSimulator.evaluate_single_layer",
        ),
        ("core.self_s", "core.layer_evals"),
        (("op_p50_s", "model"),),
    ),
    Layer(
        "ndp",
        ("repro.ndp.taskgraph:TaskExecutor.run",),
        ("ndp.self_s", "ndp.schedules"),
        (("op_p50_s", "model"),),
    ),
    Layer(
        "gpu",
        (
            "repro.gpu.gpu_model:layer_phase_time",
            "repro.gpu.gpu_model:training_iteration_compute_s",
            "repro.gpu.nccl:nccl_allreduce_time",
            "repro.gpu.dgx:DgxSystem.simulate_iteration",
            "repro.gpu.dgx:DgxSystem.best_batch",
        ),
        ("gpu.self_s",),
        (("op_p50_s", "model"),),
    ),
    Layer(
        "planner",
        (
            "repro.planner.strategy:layer_candidates",
            "repro.planner.solver:plan_network",
            "repro.planner.solver:greedy_plan",
            "repro.planner.validate:validate_plan_transitions",
        ),
        ("planner.self_s", "planner.candidates"),
        (("op_p50_s", "model"), ("ops_per_s", "plan")),
    ),
    Layer(
        "cache",
        (
            "repro.perf.memoize:build_key",
            "repro.perf.memoize:SweepCache.lookup",
            "repro.perf.memoize:SweepCache.store",
        ),
        ("cache.self_s", "cache.hits", "cache.misses", "cache.hit_frac"),
        (("op_p50_s", "model"),),
    ),
    Layer(
        "netsim",
        (
            "repro.netsim.engine:NetworkSimulator.run",
            "repro.netsim.engine:NetworkSimulator.send",
            "repro.netsim.collectives:ring_allreduce",
            "repro.netsim.collectives:all_to_all",
        ),
        (
            "netsim.self_s",
            "netsim.packets",
            "netsim.packets_per_s",
            "netsim.messages",
            "netsim.flow_coalesce_frac",
            "netsim.collectives",
            "netsim.shortcut_frac",
        ),
        # plan's op kinds span 3 ms to 1.3 s and netsim dominates the slow
        # ones, so a netsim change shows in plan's throughput, not its median.
        (("op_p50_s", "faults"), ("ops_per_s", "faults"), ("ops_per_s", "plan")),
    ),
    Layer(
        "faults",
        (
            "repro.faults.scenarios:run_scenario",
            "repro.faults.resilience:baseline_ring_allreduce",
            "repro.faults.resilience:resilient_ring_allreduce",
        ),
        ("faults.self_s", "faults.retransmits", "faults.packets_dropped"),
        (("op_p50_s", "faults"),),
    ),
    Layer(
        "analysis",
        tuple(
            _FIGURES + name
            for name in (
                "table1_rows", "table2_rows", "fig01_rows", "fig06_rows",
                "fig07_rows", "fig12_rows", "fig14_rows", "fig15_rows",
                "fig16_rows", "fig17_rows", "fig18_rows",
                "fault_degradation_rows",
            )
        )
        + (
            "repro.analysis.planner:planner_rows",
            "repro.analysis.planner:planner_pareto_rows",
        ),
        ("analysis.self_s",),
        (("op_p50_s", "model"),),
    ),
    # Every registered rule's ``check``; the span's layer is picked from
    # the rule id (see :func:`statcheck_layer`).
    Layer(
        "statcheck",
        ("repro.statcheck.engine:Rule.check",),
        (
            "statcheck.self_s",
            "statcheck.shape.self_s",
            "statcheck.cost.self_s",
            "statcheck.effect.self_s",
            "statcheck.files",
        ),
        (("op_p50_s", "statcheck"),),
    ),
    Layer(
        "other",
        (),
        ("other.self_s", "trace.overhead_frac"),
        tuple(("op_p50_s", workload) for workload in WORKLOADS),
    ),
)

#: statcheck rule-id prefixes charged to a family of their own; every
#: other rule is charged to plain ``statcheck``.
STATCHECK_FAMILIES = (
    ("SHAPE", "statcheck.shape"),
    ("COST", "statcheck.cost"),
    ("EFF", "statcheck.effect"),
    ("COMM", "statcheck.effect"),
    ("PAR", "statcheck.effect"),
)

#: Layers whose self times partition an op's wall clock.
LEAF_LAYERS: Tuple[str, ...] = tuple(
    layer.name for layer in LAYERS if layer.name not in ("statcheck", "other")
) + ("statcheck", "statcheck.shape", "statcheck.cost", "statcheck.effect", "other")


def _unit(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    if metric.endswith("_per_s"):
        return metric.split(".")[1].split("_per_s")[0] + "/s"
    return "count"


#: Unit of every per-layer metric, in table order.
PER_LAYER_UNITS: Dict[str, str] = {
    metric: _unit(metric) for layer in LAYERS for metric in layer.metrics
}


def statcheck_layer(rule_id: str) -> str:
    for prefix, layer in STATCHECK_FAMILIES:
        if rule_id.startswith(prefix):
            return layer
    return "statcheck"


# ---- counters read at the boundaries ----------------------------------------

Counter = Callable[[tuple, dict, Any], Iterable[Tuple[str, int]]]


def _tiles(cache: Any) -> int:
    batch, channels, tiles_h, tiles_w = cache.input_tiles.shape[:4]
    return int(batch * channels * tiles_h * tiles_w)


def _one(name: str) -> Counter:
    return lambda args, kwargs, result: ((name, 1),)


_WINOGRAD_CALL = _one("winograd.calls")

COUNTERS: Dict[str, Counter] = {
    "repro.winograd.conv:winograd_forward": lambda a, k, r: (
        ("winograd.calls", 1), ("winograd.tiles", _tiles(r[1])),
    ),
    "repro.winograd.conv:winograd_backward": lambda a, k, r: (
        ("winograd.calls", 1),
        ("winograd.tiles", _tiles(a[3] if len(a) > 3 else k["cache"])),
    ),
    "repro.winograd.conv:winograd_forward_spatial": _WINOGRAD_CALL,
    "repro.winograd.conv:winograd_backward_spatial": _WINOGRAD_CALL,
    "repro.winograd.direct:conv2d_forward": _WINOGRAD_CALL,
    "repro.winograd.direct:conv2d_backward_input": _WINOGRAD_CALL,
    "repro.winograd.direct:conv2d_backward_weight": _WINOGRAD_CALL,
    "repro.nn.optim:SGD.step": _one("nn.steps"),
    "repro.core.perf_model:PerfModel._evaluate_layer_impl": _one("core.layer_evals"),
    "repro.ndp.taskgraph:TaskExecutor.run": _one("ndp.schedules"),
    "repro.planner.strategy:layer_candidates": lambda a, k, r: (
        ("planner.candidates", len(r)),
    ),
    "repro.netsim.engine:NetworkSimulator.send": _one("netsim.messages"),
    "repro.netsim.collectives:ring_allreduce": _one("netsim.collectives"),
    "repro.netsim.collectives:all_to_all": _one("netsim.collectives"),
    "repro.faults.resilience:resilient_ring_allreduce": lambda a, k, r: (
        ("faults.retransmits", r.retransmits),
        ("faults.packets_dropped", r.packets_dropped),
    ),
}

#: profiler counter -> name recorded per op
PROFILER_COUNTERS = {
    "netsim.packets_served": "netsim.packets",
    "netsim.flows_coalesced": "netsim.flows_coalesced",
    "netsim.collectives_coalesced": "netsim.collectives_coalesced",
}


def _resolve(spec: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` of a ``module:name`` or ``module:Class.name``."""
    module_name, _, qualname = spec.partition(":")
    owner: Any = importlib.import_module(module_name)
    *classes, attr = qualname.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    return owner, attr


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Span stack over the :data:`LAYERS` boundaries.

    ``install()`` before an op and ``uninstall()`` after it; between the
    two, :meth:`measure` runs one op and returns its trace record.
    Outside :meth:`measure` the wrappers call straight through.
    """

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self._self_s: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._files: Set[str] = set()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._originals: Dict[int, Any] = {}

    # -- spans ------------------------------------------------------------

    def _timed(self, layer: str, fn: Callable, args: tuple, kwargs: dict,
               materialize: bool = False) -> Any:
        stack = self._stack
        if not stack:
            return fn(*args, **kwargs)
        frame = [0.0]  # time covered by nested spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if materialize:
                result = list(result)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            stack[-1][0] += elapsed
            self._self_s[layer] = self._self_s.get(layer, 0.0) + elapsed - frame[0]
        return result

    def _count(self, counter: Optional[Counter], args: tuple, kwargs: dict,
               result: Any) -> None:
        if counter is None or not self._stack:
            return
        for name, amount in counter(args, kwargs, result):
            self._counts[name] = self._counts.get(name, 0) + amount

    def wrap(self, layer: str, fn: Callable, counter: Optional[Counter]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = tracer._timed(layer, fn, args, kwargs)
            tracer._count(counter, args, kwargs, result)
            return result

        return traced

    def _wrap_rule_check(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(rule: Any, ctx: Any) -> Any:
            if tracer._stack:
                tracer._files.add(ctx.path)
            # Rules may return generators: materialize inside the span so
            # the rule's work is charged to it, not to its caller.
            return tracer._timed(
                statcheck_layer(rule.id), fn, (rule, ctx), {}, materialize=True
            )

        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        from repro.perf.memoize import MEMOIZED_SWEEPS
        from repro.perf.profiler import profiling_enabled

        memoized = {id(fn) for fn in MEMOIZED_SWEEPS.values()}
        functions: Dict[int, Tuple[Any, Callable]] = {}
        for layer in LAYERS:
            if layer.name == "statcheck":
                self._install_rules()
                continue
            for spec in layer.targets:
                owner, attr = _resolve(spec)
                is_method = isinstance(owner, type)
                original = vars(owner)[attr]
                if id(original) in memoized:
                    raise TypeError(f"{spec} is a memoized sweep wrapper; refusing to wrap it")
                wrapper = self.wrap(layer.name, original, COUNTERS.get(spec))
                if is_method:
                    self._patch(owner, attr, wrapper)
                else:
                    functions[id(original)] = (original, wrapper)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        self._originals = {id(wrapper): original for original, wrapper in functions.values()}
        profiling_enabled()

    def _install_rules(self) -> None:
        from repro.statcheck import all_rules

        owners = []
        for rule in all_rules():
            owner = next(cls for cls in type(rule).__mro__ if "check" in cls.__dict__)
            if owner not in owners:
                owners.append(owner)
        for owner in owners:
            self._patch(owner, "check", self._wrap_rule_check(owner.__dict__["check"]))

    def uninstall(self) -> None:
        from repro.perf.profiler import profiling_disabled

        profiling_disabled()
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched = []
        # A module imported while tracing may have bound a wrapper at
        # import time; point it back at the original as well.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(module, attr, original)
        self._originals = {}

    # -- one op -----------------------------------------------------------

    def measure(self, op: Callable[[], Any]) -> Tuple[Any, Dict[str, Any]]:
        """Run ``op`` as the root span; return its result and trace record
        ``{"wall_s", "self_s": {layer: s}, "counts": {name: n}}``."""
        from repro.perf.parallel import registered_caches
        from repro.perf.profiler import snapshot_profile

        hits = sum(cache.hits for cache in registered_caches())
        misses = sum(cache.misses for cache in registered_caches())
        profile = snapshot_profile()["counters"]
        self._self_s, self._counts, self._files = {}, {}, set()
        root = [0.0]
        self._stack = [root]
        start = time.perf_counter()
        try:
            result = op()
        finally:
            wall = time.perf_counter() - start
            self._stack = []
        self_s = dict(self._self_s)
        self_s["other"] = wall - root[0]
        counts = dict(self._counts)
        counts["cache.hits"] = sum(cache.hits for cache in registered_caches()) - hits
        counts["cache.misses"] = sum(cache.misses for cache in registered_caches()) - misses
        after = snapshot_profile()["counters"]
        for source, name in PROFILER_COUNTERS.items():
            counts[name] = after.get(source, 0) - profile.get(source, 0)
        counts["statcheck.files"] = len(self._files)
        return result, {"wall_s": wall, "self_s": self_s, "counts": counts}


# ---- per-layer metrics ------------------------------------------------------


def self_time_gap(record: Dict[str, Any]) -> float:
    """Relative gap between an op's wall clock and the sum of its layers'
    self times (0 when the split is exact)."""
    total = sum(record["self_s"].values())
    return abs(total - record["wall_s"]) / record["wall_s"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    records: Sequence[Dict[str, Any]],
    traced_walls: Sequence[float],
    untraced_walls: Sequence[float],
) -> Dict[str, float]:
    """Every per-layer metric, as a mean per traced op (rates and
    fractions are ratios of the totals)."""
    n = len(records)
    self_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for record in records:
        for layer, seconds in record["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        for name, amount in record["counts"].items():
            counts[name] = counts.get(name, 0) + amount

    def per_op(total: float) -> float:
        return total / n

    metrics = {
        f"{layer}.self_s": per_op(self_s.get(layer, 0.0))
        for layer in LEAF_LAYERS
    }
    metrics["statcheck.self_s"] = per_op(
        sum(self_s.get(layer, 0.0) for layer in LEAF_LAYERS if layer.startswith("statcheck"))
    )
    for name in (
        "winograd.calls", "nn.steps", "core.layer_evals", "ndp.schedules",
        "planner.candidates", "cache.hits", "cache.misses", "netsim.packets",
        "netsim.messages", "netsim.collectives", "faults.retransmits",
        "faults.packets_dropped", "statcheck.files",
    ):
        metrics[name] = per_op(counts.get(name, 0))
    metrics["winograd.tiles_per_s"] = _ratio(
        counts.get("winograd.tiles", 0), self_s.get("winograd", 0.0)
    )
    metrics["cache.hit_frac"] = _ratio(
        counts.get("cache.hits", 0),
        counts.get("cache.hits", 0) + counts.get("cache.misses", 0),
    )
    metrics["netsim.packets_per_s"] = _ratio(
        counts.get("netsim.packets", 0), self_s.get("netsim", 0.0)
    )
    metrics["netsim.flow_coalesce_frac"] = _ratio(
        counts.get("netsim.flows_coalesced", 0), counts.get("netsim.messages", 0)
    )
    metrics["netsim.shortcut_frac"] = _ratio(
        counts.get("netsim.collectives_coalesced", 0), counts.get("netsim.collectives", 0)
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    return {name: metrics[name] for name in PER_LAYER_UNITS}
