"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload plan --seed 0 --seconds 15 --trace 0 [-o result.json]

Run from the root of a checkout; ``src/`` is put on the workers'
``PYTHONPATH``.  The workload runs in a fresh worker process (``worker.py``)
with one BLAS/OpenMP thread: a closed loop with one client, ops back to
back.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  Every op's output is checked against
``golden.json``; an op that raises, returns a non-finite number or
differs from its golden digest counts as failed.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
``-o`` also writes the samples and the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench.trace import PER_LAYER_UNITS, layer_metrics, self_time_gap  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

GOLDEN = ROOT / "bench" / "golden.json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Fresh launches per run whose readiness time gives ``setup_s``.
SETUP_LAUNCHES = 5
#: Hard cap on one run, launches included.
RUN_TIMEOUT_S = 170.0
#: Largest allowed gap between an op's wall clock and its layers' sum.
SELF_TIME_TOLERANCE = 0.01

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_ENV:
        env[name] = "1"
    return env


@dataclass
class Launch:
    setup_s: float
    messages: List[Dict[str, Any]]


def launch(argv: Sequence[str], deadline: float) -> Launch:
    """Start one worker, time it until it reports ready and collect its
    messages."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "worker.py"), *argv],
        stdout=subprocess.PIPE, cwd=ROOT, env=worker_env(), text=True,
    )
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    setup_s: Optional[float] = None
    messages = []
    try:
        for line in proc.stdout:
            message = json.loads(line)
            if message["event"] == "ready":
                setup_s = time.perf_counter() - start
            messages.append(message)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or setup_s is None:
        raise RuntimeError(f"worker {' '.join(argv)} failed with exit code {proc.returncode}")
    return Launch(setup_s, messages)


def load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())["digests"]


def failures(ops: Sequence[Dict[str, Any]], golden: Dict[str, str]) -> List[str]:
    """One line per failed op: it raised, returned a non-finite number, its
    digest differs from the golden one, or (traced) its layers' self
    times do not add up to its wall clock."""
    failed = []
    for op in ops:
        if "error" in op:
            failed.append(f"{op['kind']}: {op['error']}")
        elif op["digest"] != golden.get(op["kind"]):
            failed.append(f"{op['kind']}: digest {op['digest'][:12]} != golden "
                          f"{str(golden.get(op['kind']))[:12]}")
        elif "trace" in op and self_time_gap(op["trace"]) > SELF_TIME_TOLERANCE:
            failed.append(f"{op['kind']}: layer self times miss the wall clock by "
                          f"{self_time_gap(op['trace']):.2%}")
    return failed


def end_to_end(setups: Sequence[float], ops: Sequence[Dict[str, Any]],
               rss_kb: int) -> Dict[str, float]:
    """Throughput counts time spent in ops, not the cache clearing and
    garbage collection the worker does between them."""
    walls = [op["wall_s"] for op in ops]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def git_rev() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git checkout (the
    ``.git`` check keeps an enclosing repository's HEAD out)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int, ready: Dict[str, Any]) -> Dict[str, Any]:
    """Where and on what the run happened.  ``src_lines`` tracks code size
    next to speed without making it an end-to-end metric."""
    env = worker_env()
    return {
        "nproc": os.cpu_count(),
        "python": ready["python"],
        "numpy": ready["numpy"],
        "thread_env": {name: env[name] for name in THREAD_ENV},
        "seed": seed,
        "git_rev": git_rev(),
        "src_lines": sum(
            len(path.read_bytes().splitlines())
            for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        ),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    argv = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_LAUNCHES - 1):
            setups.append(launch(argv + ["--setup-only"], deadline).setup_s)
    main = launch(argv + ["--seconds", str(seconds)] + (["--trace"] if trace else []), deadline)
    setups.append(main.setup_s)
    ops = [m for m in main.messages if m["event"] == "op"]
    done = next(m for m in main.messages if m["event"] == "done")
    failed = failures(ops, load_golden())
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"] and "trace" in op]
    if trace:
        if not traced:
            raise RuntimeError("no traced op completed")
        # The overhead compares only the traced ops that have an untraced twin.
        values = layer_metrics(
            [op["trace"] for op in traced],
            [op["wall_s"] for op in traced if op["paired"]],
            [op["wall_s"] for op in untraced],
        )
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(setups, untraced, done["peak_rss_kb"])
        units = END_TO_END_UNITS
    return {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "failures": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "samples": {
            "setup_s": setups,
            "op_wall_s": [op["wall_s"] for op in (traced if trace else untraced)],
            "op_kinds": [op["kind"] for op in (traced if trace else untraced)],
        },
        "provenance": provenance(seed, main.messages[0]),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("-o", "--output", help="also write the full result here")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        n = result["samples"]["setup_s" if name == "setup_s" else "op_wall_s"]
        print(f"{args.workload:>10}  {name:<26} {metric['value']:>14.6g} "
              f"{metric['unit']:<10} (n={len(n)})")
    if args.output:
        Path(args.output).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
