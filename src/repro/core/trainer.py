"""End-to-end training-iteration simulation (paper Sections VI-A, VII).

Builds the per-iteration task graph the host constructs at training start
(forward chain, backward chain, per-layer weight collectives) and executes
it with the NDP task scheduler, letting weight collectives overlap with
the backward compute of earlier layers exactly as the pipelined collective
engine allows.  Produces per-layer and whole-network iteration times and
energy for any Table IV configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..ndp.energy import EnergyBreakdown
from ..ndp.taskgraph import TaskExecutor, TaskGraph
from ..workloads.layers import ConvLayerSpec
from ..workloads.networks import CnnSpec
from .config import GridConfig, MachineConfig, SystemConfig
from .dynamic_clustering import choose_clustering
from .perf_model import LayerPerf, PerfModel


@dataclass(frozen=True)
class FaultImpact:
    """How one iteration's faults reshape the simulated training step.

    Produced by :mod:`repro.faults` (analytically via :meth:`from_plan`,
    or from a measured resilient collective) and consumed by
    :meth:`TrainingSimulator.simulate_iteration`.  Synchronous SGD
    semantics:

    * **Stragglers** — the iteration waits for the slowest worker, so
      every compute task stretches by the largest active slowdown.
    * **Dead workers** — spliced out of their gradient rings; the
      surviving workers compute on their own shards only, so the
      iteration proceeds at a *reduced effective batch* and the gradient
      sum must be renormalised by ``n / (n - dead)`` to stay an unbiased
      mean (:attr:`grad_renorm`).  Weight collectives run on the shorter
      degraded ring (``collective_scale``), and the first collective of
      the iteration additionally pays the one-time detection +
      reconfiguration latency (``collective_overhead_s``).
    """

    workers: int
    compute_slowdown: float = 1.0
    dead_workers: int = 0
    collective_scale: float = 1.0
    collective_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if self.compute_slowdown < 1.0:
            raise ValueError(
                f"compute_slowdown must be >= 1, got {self.compute_slowdown}"
            )
        if not 0 <= self.dead_workers < self.workers:
            raise ValueError(
                f"dead_workers must be in [0, {self.workers}), "
                f"got {self.dead_workers}"
            )

    @property
    def survivors(self) -> int:
        return self.workers - self.dead_workers

    @property
    def grad_renorm(self) -> float:
        """Factor restoring the gradient mean over surviving shards."""
        return self.workers / self.survivors

    def effective_batch(self, batch: int) -> int:
        """Images actually contributing to the step (shards of dead
        workers are dropped, not recomputed)."""
        return round(batch * self.survivors / self.workers)

    @classmethod
    def from_plan(
        cls,
        plan,
        workers: int,
        at_s: float = 0.0,
        collective_overhead_s: float = 0.0,
    ) -> "FaultImpact":
        """Analytic impact of a :class:`repro.faults.FaultPlan`.

        The degraded ring of ``n - dead`` survivors moves
        ``2(n'-1)/n'`` of the gradient bytes per worker versus
        ``2(n-1)/n`` before, which sets ``collective_scale``; measured
        detection/reconfiguration latency can be passed in as the
        one-time overhead.
        """
        dead = len(plan.dead_workers_at(at_s))
        survivors = max(1, workers - dead)
        if workers > 1 and survivors > 1:
            scale = ((survivors - 1) / survivors) / ((workers - 1) / workers)
        else:
            scale = 1.0
        return cls(
            workers=workers,
            compute_slowdown=plan.max_straggler_factor(at_s),
            dead_workers=workers - survivors,
            collective_scale=scale,
            collective_overhead_s=collective_overhead_s,
        )


@dataclass
class LayerReport:
    """One layer's simulated iteration under a configuration."""

    layer: ConvLayerSpec
    perf: LayerPerf

    @property
    def grid(self) -> GridConfig:
        return self.perf.grid

    @property
    def forward_s(self) -> float:
        return self.perf.forward_s

    @property
    def backward_s(self) -> float:
        return self.perf.backward_s


@dataclass
class IterationResult:
    """Whole-network result of one simulated training iteration."""

    config_name: str
    workers: int
    batch: int
    layers: List[LayerReport] = field(default_factory=list)
    iteration_s: float = 0.0
    #: Task-level schedule (for timeline rendering / overlap inspection).
    schedule: list = field(default_factory=list)
    #: Images actually contributing to the step (== ``batch`` unless a
    #: fault dropped workers; see :class:`FaultImpact`).
    effective_batch: int = 0
    #: Gradient renormalisation applied by the surviving workers.
    grad_renorm: float = 1.0

    @property
    def forward_s(self) -> float:
        return sum(r.forward_s for r in self.layers)

    @property
    def backward_s(self) -> float:
        return sum(r.backward_s for r in self.layers)

    @property
    def energy_j(self) -> EnergyBreakdown:
        total = EnergyBreakdown()
        for report in self.layers:
            total = total + report.perf.energy_j
        # Per-worker energy -> machine energy.
        return total.scaled(self.workers)

    @property
    def images_per_s(self) -> float:
        batch = self.effective_batch or self.batch
        return batch / self.iteration_s if self.iteration_s else 0.0


class TrainingSimulator:
    """Simulates synchronous-SGD iterations of a CNN on the NDP machine."""

    def __init__(self, machine: Optional[MachineConfig] = None) -> None:
        self.machine = machine or MachineConfig()
        self.model = PerfModel(self.machine.params)

    def plan_layers(self, net: CnnSpec, config: SystemConfig) -> List[LayerPerf]:
        """Each layer's evaluation at its chosen grid (dynamic clustering
        when enabled).

        Same-shape layers (repeated VGG/WRN blocks) share one choice:
        within a plan, batch/config/workers are fixed, so the layer
        itself (whose equality ignores the display ``name``) fully keys
        the decision — a local dict probe instead of a trip through the
        process-wide sweep cache per candidate grid of a repeated block.
        """
        local: dict = {}
        choices = []
        for layer in net.conv_layers:
            choice = local.get(layer)
            if choice is None:
                choice = choose_clustering(
                    layer, self.machine.batch, config, self.machine.workers,
                    self.model,
                )
                local[layer] = choice
            choices.append(choice)
        return choices

    def simulate_iteration(
        self,
        net: CnnSpec,
        config: SystemConfig,
        faults: Optional[FaultImpact] = None,
    ) -> IterationResult:
        """One training iteration: forward over all layers, backward in
        reverse, weight collectives overlapped with remaining backward
        work through the task graph.

        With ``faults`` installed the same graph is built under the
        degraded machine (cached :class:`LayerPerf` objects are never
        mutated — only the task durations derived from them change):
        compute tasks stretch by the straggler factor, collectives run
        at the degraded-ring scale, and the first collective issued (the
        deepest layer's — it is the one whose watchdog detects the
        failure) additionally pays the detection + reconfiguration
        overhead.  ``faults=None`` is the fault-free path and is
        bit-identical to not having the faults package at all.
        """
        perfs = self.plan_layers(net, config)
        result = IterationResult(
            config_name=config.name,
            workers=self.machine.workers,
            batch=self.machine.batch,
        )
        compute_scale = 1.0
        collective_scale = 1.0
        overhead_s = 0.0
        if faults is not None:
            compute_scale = faults.compute_slowdown
            collective_scale = faults.collective_scale
            overhead_s = faults.collective_overhead_s
            result.effective_batch = faults.effective_batch(self.machine.batch)
            result.grad_renorm = faults.grad_renorm
        graph = TaskGraph()
        previous_fprop: Optional[str] = None
        for index, (layer, perf) in enumerate(zip(net.conv_layers, perfs)):
            # A shared evaluation keeps the first same-shape layer it was
            # computed for; the report names this one.
            result.layers.append(LayerReport(layer=layer, perf=perf))
            duration = perf.phases["fprop"].time_s
            if faults is not None:
                duration *= compute_scale
            deps = [previous_fprop] if previous_fprop else []
            graph.add_task(
                f"f{index}",
                duration_s=duration,
                resource="compute",
                deps=deps,
            )
            previous_fprop = f"f{index}"
        previous_bprop: Optional[str] = previous_fprop
        first_collective = True
        for index in range(len(perfs) - 1, -1, -1):
            perf = perfs[index]
            update = perf.phases["update"]
            compute_side = max(update.compute_s, update.dram_s)
            duration = perf.phases["bprop"].time_s + compute_side
            collective_s = update.net_collective_s
            if faults is not None:
                duration *= compute_scale
                collective_s = collective_s * collective_scale + (
                    overhead_s if first_collective else 0.0
                )
                first_collective = False
            graph.add_task(
                f"b{index}",
                duration_s=duration,
                resource="compute",
                deps=[previous_bprop] if previous_bprop else [],
            )
            # The collective only occupies the network; it can overlap
            # with the backward compute of earlier (shallower) layers.
            graph.add_task(
                f"c{index}",
                duration_s=collective_s,
                resource="network",
                deps=[f"b{index}"],
            )
            previous_bprop = f"b{index}"
        executor = TaskExecutor(graph)
        result.iteration_s = executor.run()
        result.schedule = executor.schedule
        return result

    def evaluate_single_layer(
        self, layer: ConvLayerSpec, config: SystemConfig
    ) -> LayerReport:
        """Layer-wise evaluation used by Fig. 15/16: one layer trained in
        isolation (forward + backward including its collective)."""
        perf = choose_clustering(
            layer, self.machine.batch, config, self.machine.workers, self.model
        )
        return LayerReport(layer=layer, perf=perf)
