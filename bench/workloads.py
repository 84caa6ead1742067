"""The benchmark's five workloads, each a list of ops.

One op is one user-level call into ``repro`` — the work behind one CLI
command — and returns its result as canonical JSON text (what ``repro
faults``, ``repro plan`` and ``statcheck --json`` write; sorted-key rows
for the others), so its sha256 can be checked against ``golden.json``.  Op bodies look
layer functions up on their modules at call time, so a traced run sees
the tracer's wrappers (see ``trace.py``).

``build(workload, seed)`` imports what the workload needs and returns
one cycle of its ops; the seed picks the data seed of the fault plans and
of the Fig. 12/14 inputs (``seed % DATA_SEEDS``, every one of which is
pinned in ``golden.json``).  The run's op order is the worker's business.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "bench" / "worker.py"

#: Data seeds pinned in golden.json; a run with seed s uses s % DATA_SEEDS.
DATA_SEEDS = 4

WORKLOADS = ("report", "faults", "plan", "model", "statcheck")

#: The closed-form figure sweeps of the ``model`` workload.
MODEL_FIGURES = ("fig07_rows", "fig15_rows", "fig16_rows", "fig17_rows", "fig18_rows")
MODEL_PLANNER = ("planner_rows", "planner_pareto_rows")

PLAN_NETWORKS = ("vgg16", "wrn-40-10", "resnet-34")
PLAN_PRESETS = ("zero", "rerouted", "weights-only")

#: statcheck's CLI over the package, as ``repro statcheck`` runs it.
STATCHECK_ARGS = ("src/repro", "--json")


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def clear_sweep_caches() -> None:
    """Empty every registered sweep cache, so the next op runs cold."""
    from repro.perf.parallel import import_sweep_modules, registered_caches

    import_sweep_modules()
    for cache in registered_caches():
        cache.clear()


def run_cli(argv: Sequence[str]) -> Tuple[str, int]:
    """Run one command in a fresh process; return its stdout and peak RSS
    in KiB, taken for this child alone with ``os.wait4``."""
    proc = subprocess.Popen(list(argv), stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode}")
    return out.decode("utf-8"), usage.ru_maxrss


@dataclass(frozen=True)
class Op:
    """One op kind.  ``kind`` is its golden key.  In-process ops have
    ``run``; ops that are a fresh command have ``argv`` and, for traced
    runs, ``traced_argv``, which prints ``{"text", "trace"}``."""

    kind: str
    run: Optional[Callable[[], str]] = None
    argv: Tuple[str, ...] = ()
    traced_argv: Tuple[str, ...] = ()

    def call(self) -> Tuple[str, Optional[int]]:
        """``(text, peak RSS in KiB of the op's own process or None)``."""
        if self.run is not None:
            return self.run(), None
        return run_cli(self.argv)

    def call_traced(self, tracer: Any) -> Tuple[str, Dict[str, Any]]:
        """``(text, trace record)``; see :meth:`trace.Tracer.measure`."""
        if self.run is not None:
            tracer.install()
            try:
                return tracer.measure(self.run)
            finally:
                tracer.uninstall()
        out, _ = run_cli(self.traced_argv)
        payload = json.loads(out)
        return payload["text"], payload["trace"]


# ---- op bodies --------------------------------------------------------------


def report_op(seed: int) -> str:
    """Every ``repro report`` section generator in order (≈ ``repro report``)."""
    from repro.analysis import figures, report

    seeded = {"fig12_rows", "fig14_rows"}
    out = []
    for title, _note, generator in report.SECTIONS:
        # By name, not the object SECTIONS holds, so a tracer's rebinding applies.
        fn = getattr(figures, generator.__name__)
        rows = fn(seed=seed) if generator.__name__ in seeded else fn()
        out.append({"section": title, "rows": rows})
    return canonical(out)


def faults_op(name: str, seed: int) -> str:
    """One fault scenario on the paper grids plus the iteration impact
    (≈ ``repro faults``)."""
    import repro.faults as faults

    return faults.report_json(faults.run_scenario(name, seed=seed))


def plan_op(network: str, transition: str, search: bool) -> str:
    """One validated DP plan (≈ ``repro plan --validate``); ``search``
    adds the transform search and micro-batch splits (1, 2, 4)."""
    import repro.planner as planner

    knobs = (
        planner.StrategyKnobs(search_transforms=True, batch_splits=(1, 2, 4))
        if search
        else planner.DEFAULT_KNOBS
    )
    report = planner.plan_report(
        network, transition=transition, knobs=knobs, modes=("dp",), validate=True
    )
    return planner.report_json(report)


def model_op() -> str:
    """The closed-form figure sweeps plus one simulated iteration per
    Table I network and Table IV config (≈ ``repro figure``/``simulate``)."""
    import repro.analysis.figures as figures
    import repro.analysis.planner as planner_figures
    from repro.core import MachineConfig, TrainingSimulator, table4_configs
    from repro.workloads import table1_networks

    out: Dict[str, Any] = {}
    for name in MODEL_FIGURES:
        out[name] = getattr(figures, name)()
    for name in MODEL_PLANNER:
        out[name] = getattr(planner_figures, name)()
    sim = TrainingSimulator(MachineConfig())
    out["simulate"] = [
        {
            "network": net.name,
            "config": config.name,
            "iteration_s": result.iteration_s,
            "images_per_s": result.images_per_s,
            "grids": [str(layer.grid) for layer in result.layers],
        }
        for net in table1_networks()
        for config in table4_configs()
        for result in (sim.simulate_iteration(net, config),)
    ]
    return canonical(out)


def statcheck_text() -> str:
    """statcheck's CLI in this process, stdout captured (the traced form
    of the ``statcheck`` op; its text equals the fresh command's)."""
    from repro.statcheck.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(STATCHECK_ARGS))
    if code != 0:
        raise RuntimeError(f"statcheck exited with {code}")
    return buffer.getvalue()


# ---- workloads --------------------------------------------------------------


def build(workload: str, seed: int) -> List[Op]:
    """Import what ``workload`` needs and return one cycle of its ops."""
    data_seed = seed % DATA_SEEDS
    if workload == "report":
        import repro.analysis.report  # noqa: F401

        clear_sweep_caches()
        return [Op(f"report#seed{data_seed}", lambda: report_op(data_seed))]
    if workload == "faults":
        from repro.faults import scenario_names

        clear_sweep_caches()
        return [
            Op(f"faults/{name}#seed{data_seed}",
               lambda name=name: faults_op(name, data_seed))
            for name in scenario_names()
        ]
    if workload == "plan":
        import repro.planner  # noqa: F401

        clear_sweep_caches()
        return [
            Op(f"plan/{network}/{transition}/{'search' if search else 'default'}",
               lambda n=network, t=transition, s=search: plan_op(n, t, s))
            for network in PLAN_NETWORKS
            for transition in PLAN_PRESETS
            for search in (False, True)
        ]
    if workload == "model":
        import repro.analysis.figures  # noqa: F401
        import repro.analysis.planner  # noqa: F401
        import repro.core  # noqa: F401

        clear_sweep_caches()
        return [Op("model", model_op)]
    if workload == "statcheck":
        import repro.statcheck  # noqa: F401

        return [
            Op(
                "statcheck",
                argv=(sys.executable, "-m", "repro.statcheck") + STATCHECK_ARGS,
                traced_argv=(sys.executable, str(WORKER), "--statcheck-traced"),
            )
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
