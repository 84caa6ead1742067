"""Command-line interface: ``python -m repro <command>``.

Commands regenerate individual paper figures/tables, run the example
simulations, or print the machine configuration — the quickest way for a
downstream user to poke at the reproduction without writing code.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List

from .analysis import (
    fault_degradation_rows,
    fig01_rows,
    fig06_rows,
    fig07_rows,
    fig12_rows,
    fig14_rows,
    fig15_average_speedup,
    fig15_rows,
    fig16_rows,
    fig17_rows,
    fig18_rows,
    format_table,
    planner_pareto_rows,
    planner_rows,
    table1_rows,
    table2_rows,
)


def _print_rows(rows: List[dict]) -> None:
    if not rows:
        print("(no rows)")
        return
    keys: List[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    print(format_table(keys, [[row.get(k, "") for k in keys] for row in rows]))


def cmd_machine(_args: argparse.Namespace) -> None:
    """Print the Table III machine configuration."""
    from .params import DEFAULT_PARAMS as p

    print("NDP machine (paper Table III / Section VI):")
    print(f"  workers              256 (16 groups x 16 clusters)")
    print(f"  logic/router clock   {p.clock_hz / 1e9:.1f} GHz")
    print(f"  systolic array       {p.systolic_rows}x{p.systolic_cols} FP32 MACs")
    print(f"  DRAM bandwidth       {p.dram_bytes_per_s / 1e9:.0f} GB/s per stack")
    print(f"  full link            {p.full_link_bytes_per_s / 1e9:.0f} GB/s per direction")
    print(f"  narrow link          {p.narrow_link_bytes_per_s / 1e9:.0f} GB/s per direction")
    print(f"  collective packet    {p.collective_packet_bytes} B")
    print(f"  SerDes latency       {p.serdes_latency_s * 1e9:.1f} ns per hop")


def cmd_simulate(args: argparse.Namespace) -> None:
    """Simulate one training iteration of a Table I network."""
    from .core import MachineConfig, TrainingSimulator, table4_configs
    from .workloads import table1_networks

    networks = {n.name.lower(): n for n in table1_networks()}
    net = networks.get(args.network.lower())
    if net is None:
        sys.exit(f"unknown network {args.network!r}; choose from "
                 f"{sorted(networks)}")
    sim = TrainingSimulator(MachineConfig(workers=args.workers, batch=args.batch))
    print(f"{net.name}: {len(net.conv_layers)} convolutions, "
          f"{net.param_count / 1e6:.1f}M parameters, "
          f"{args.workers} workers, batch {args.batch}\n")
    rows = []
    for config in table4_configs():
        result = sim.simulate_iteration(net, config)
        rows.append(
            {
                "config": config.name,
                "iteration_ms": result.iteration_s * 1e3,
                "images_per_s": result.images_per_s,
            }
        )
    _print_rows(rows)


def cmd_timeline(args: argparse.Namespace) -> None:
    """Render the task timeline of one simulated iteration."""
    from .analysis.timeline import render_timeline, utilization
    from .core import MachineConfig, TrainingSimulator, w_dp, w_mp_plus_plus
    from .workloads import table1_networks

    networks = {n.name.lower(): n for n in table1_networks()}
    net = networks.get(args.network.lower())
    if net is None:
        sys.exit(f"unknown network {args.network!r}")
    config = w_mp_plus_plus() if args.config == "w_mp++" else w_dp()
    sim = TrainingSimulator(MachineConfig(workers=args.workers, batch=args.batch))
    result = sim.simulate_iteration(net, config)
    print(render_timeline(result.schedule))
    for resource, busy in sorted(utilization(result.schedule).items()):
        print(f"{resource:>12} utilisation {busy:.0%}")


FIGURES: Dict[str, Callable[[], List[dict]]] = {
    "fig1": fig01_rows,
    "fig6": fig06_rows,
    "fig7": fig07_rows,
    "fig12": fig12_rows,
    "fig14": fig14_rows,
    "fig15": fig15_rows,
    "fig16": fig16_rows,
    "fig17": fig17_rows,
    "fig18": fig18_rows,
    "table1": table1_rows,
    "table2": table2_rows,
    "faults": fault_degradation_rows,
    "planner": planner_rows,
    "planner_pareto": planner_pareto_rows,
}


def cmd_figure(args: argparse.Namespace) -> None:
    """Regenerate one paper figure/table."""
    generator = FIGURES.get(args.name)
    if generator is None:
        sys.exit(f"unknown figure {args.name!r}; choose from {sorted(FIGURES)}")
    rows = generator()
    _print_rows(rows)
    if args.name == "fig15":
        print(f"\nw_mp++ average speedup: {fig15_average_speedup(rows):.2f}x "
              "(paper: 2.74x)")


def cmd_faults(args: argparse.Namespace) -> None:
    """Run a named fault scenario and write its JSON report."""
    from .faults import report_json, run_scenario, scenario_names

    if args.list:
        from .faults import SCENARIOS

        for name in scenario_names():
            doc = (SCENARIOS[name].__doc__ or "").strip().splitlines()
            print(f"{name:<20} {doc[0] if doc else ''}")
        return
    grids = None
    if args.grids:
        grids = []
        for token in args.grids.split(","):
            ng, sep, nc = token.strip().partition("x")
            if not sep:
                raise ValueError(f"--grids takes NGxNC, got {token.strip()!r}")
            grids.append((int(ng), int(nc)))
    report = run_scenario(
        args.scenario,
        seed=args.seed,
        message_bytes=args.message_bytes,
        grids=grids,
        include_iteration=not args.no_iteration,
    )
    text = report_json(report)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
        for row in report["grids"]:
            print(f"{row['grid']:>10}  slowdown {row['slowdown']:.3f}x  "
                  f"completed {row['completed']}  "
                  f"retransmits {row['retransmits']}")
        if "iteration" in report:
            it = report["iteration"]
            print(f" iteration  slowdown {it['slowdown']:.3f}x  "
                  f"effective batch {it['effective_batch']}")
        print(f"wrote {args.out}")


def cmd_plan(args: argparse.Namespace) -> None:
    """Solve a global parallelization plan and write its JSON report."""
    from .planner import (
        StrategyKnobs,
        config_names,
        network_names,
        plan_report,
        preset_names,
        report_json,
    )

    if args.list:
        print("networks:   " + ", ".join(network_names()))
        print("configs:    " + ", ".join(config_names()))
        print("transitions: " + ", ".join(preset_names()))
        return
    splits = tuple(
        int(token) for token in args.batch_splits.split(",") if token.strip()
    )
    knobs = StrategyKnobs(
        search_transforms=args.search_transforms,
        batch_splits=splits,
        capacity_frac=args.capacity_frac,
    )
    report = plan_report(
        network=args.network,
        config=args.config,
        workers=args.machine_workers,
        batch=args.batch,
        transition=args.transition,
        objective=args.objective,
        modes=tuple(args.modes.split(",")),
        knobs=knobs,
        validate=args.validate,
    )
    text = report_json(report)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
        for plan in report["plans"]:
            line = (f"{plan['mode']:>7}  total {plan['total_cost'] * 1e3:.4f} ms"
                    f"  transitions {plan['transitions']}")
            if "vs_greedy" in plan:
                line += f"  vs greedy {plan['vs_greedy']['speedup']:.4f}x"
            print(line)
        print(f"wrote {args.out}")


def cmd_report(args: argparse.Namespace) -> None:
    """Regenerate every figure/table into one markdown report."""
    from .analysis.report import generate_report

    text = generate_report(fast=args.fast)
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MICRO'18 MPT-on-NDP reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machine", help="print the machine configuration").set_defaults(
        func=cmd_machine
    )

    p_sim = sub.add_parser("simulate", help="simulate a training iteration")
    p_sim.add_argument("network", help="WRN-40-10 | ResNet-34 | FractalNet")
    p_sim.add_argument("--workers", type=int, default=256)
    p_sim.add_argument("--batch", type=int, default=256)
    p_sim.set_defaults(func=cmd_simulate)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure/table")
    p_fig.add_argument("name", help=f"one of {sorted(FIGURES)}")
    p_fig.set_defaults(func=cmd_figure)

    p_tl = sub.add_parser("timeline", help="render an iteration's task timeline")
    p_tl.add_argument("network")
    p_tl.add_argument("--config", choices=["w_dp", "w_mp++"], default="w_mp++")
    p_tl.add_argument("--workers", type=int, default=256)
    p_tl.add_argument("--batch", type=int, default=256)
    p_tl.set_defaults(func=cmd_timeline)

    # Listed for --help only: main() hands everything after `statcheck`
    # to repro.statcheck's own parser, which owns its flags.
    sub.add_parser(
        "statcheck",
        help="run the static analysis (the flags of python -m repro.statcheck)",
    )

    p_flt = sub.add_parser(
        "faults", help="run a fault scenario, write its JSON report"
    )
    p_flt.add_argument("--scenario", default="baseline",
                       help="scenario name (see --list)")
    p_flt.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed (report is byte-reproducible)")
    p_flt.add_argument("--message-bytes", type=int, default=64 * 1024,
                       help="gradient bytes per worker for the collective")
    p_flt.add_argument("--grids", default=None, metavar="NGxNC,...",
                       help="grids to run, e.g. 16x16,4x64 (default: all three)")
    p_flt.add_argument("--no-iteration", action="store_true",
                       help="skip the training-iteration impact section")
    p_flt.add_argument("-o", "--out", default="FAULTS.json",
                       help="output JSON path ('-' for stdout)")
    p_flt.add_argument("--list", action="store_true",
                       help="list scenarios and exit")
    p_flt.set_defaults(func=cmd_faults)

    p_plan = sub.add_parser(
        "plan", help="solve a global parallelization plan, write JSON"
    )
    p_plan.add_argument("--network", default="vgg16",
                        help="workload name (see --list)")
    p_plan.add_argument("--config", default="w_mp++",
                        help="Table IV system configuration")
    p_plan.add_argument("--machine-workers", type=int, default=256,
                        help="simulated worker count")
    p_plan.add_argument("--batch", type=int, default=256)
    p_plan.add_argument("--transition", default="zero",
                        help="transition preset (see --list)")
    p_plan.add_argument("--objective", choices=["time", "energy"],
                        default="time")
    p_plan.add_argument("--modes", default="dp",
                        help="comma-separated solver modes (dp,oracle)")
    p_plan.add_argument("--search-transforms", action="store_true",
                        help="widen the space with non-default Cook-Toom "
                             "transforms")
    p_plan.add_argument("--batch-splits", default="1", metavar="S,...",
                        help="micro-batch split factors to evaluate")
    p_plan.add_argument("--capacity-frac", type=float, default=1.0,
                        help="fraction of the DRAM stack a strategy may use")
    p_plan.add_argument("--validate", action="store_true",
                        help="replay costed transitions on the event simulator")
    p_plan.add_argument("-o", "--out", default="PLAN.json",
                        help="output JSON path ('-' for stdout)")
    p_plan.add_argument("--list", action="store_true",
                        help="list networks/configs/presets and exit")
    p_plan.set_defaults(func=cmd_plan)

    p_rep = sub.add_parser("report", help="write the full markdown report")
    p_rep.add_argument("-o", "--output", default="report.md")
    p_rep.add_argument("--fast", action="store_true",
                       help="skip the slow training/sweep sections")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: List[str] | None = None) -> None:
    """Run one command.  Invalid input (a ``ValueError`` — which
    ``PlannerError`` is — or a ``KeyError``) exits non-zero with its
    one-line message; commands write their output file only after
    their work succeeds, so a rejected run leaves none.  ``statcheck``
    passes everything after it to :func:`repro.statcheck.cli.main`
    unchanged and exits with its code.  A reader that closes stdout
    early (``| head``) ends the run with exit code 1 and no traceback."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv[:1] == ["statcheck"]:
            from .statcheck.cli import main as statcheck_main

            sys.exit(statcheck_main(argv[1:]))
        args = build_parser().parse_args(argv)
        try:
            args.func(args)
        except (KeyError, ValueError) as exc:
            sys.exit(str(exc.args[0]) if exc.args else type(exc).__name__)
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of
        # what is still buffered stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.exit(1)


if __name__ == "__main__":
    main()
