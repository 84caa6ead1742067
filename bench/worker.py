"""One workload's process: set up, then run ops back to back.

Started by ``run.py``; not meant to be run by hand.  Protocol: one JSON
object per line on the original stdout (``repro`` output goes to stderr)::

    {"event": "ready", ...}             after imports and inputs are built
    {"event": "op", ...}                one per op run
    {"event": "done", ...}              after the last op

Ops run in whole cycles over the workload's op kinds, each cycle in a
seed-shuffled order, so every run holds each kind equally often.  The run
stops at the cycle boundary nearest to ``--seconds`` once it holds at
least ``MIN_OPS`` ops.  Before each op every sweep cache is cleared, so
each op is as cold as a fresh CLI call.  With ``--trace`` every op runs
traced, and every other op of a cycle (its first included) first runs
untraced as well, its twin: the tracing overhead is measured on the same
inputs without running the whole run twice.

``worker.py --statcheck-traced`` is the traced form of the statcheck op:
statcheck's CLI in-process under the tracer, printing ``{"text", "trace"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, TextIO

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench.trace import Tracer  # noqa: E402
from bench.workloads import Op, build, clear_sweep_caches, statcheck_text  # noqa: E402

#: Fewest untraced ops a run holds (so a median needs no single op).
MIN_OPS = 3


def emit(out: TextIO, message: Dict[str, Any]) -> None:
    out.write(json.dumps(message) + "\n")
    out.flush()


def check_finite(text: str) -> None:
    """Raise if the op's JSON output holds NaN or an infinity."""

    def reject(token: str) -> Any:
        raise ValueError(f"non-finite number {token} in output")

    json.loads(text, parse_constant=reject)


def run_one(op: Op, tracer: Optional[Tracer]) -> Dict[str, Any]:
    clear_sweep_caches()
    gc.collect()
    record: Dict[str, Any] = {"event": "op", "kind": op.kind, "traced": tracer is not None}
    start = time.perf_counter()
    try:
        if tracer is None:
            text, rss_kb = op.call()
            record["wall_s"] = time.perf_counter() - start
            record["rss_kb"] = rss_kb
        else:
            text, trace = op.call_traced(tracer)
            wall = time.perf_counter() - start if op.run is None else trace["wall_s"]
            # A fresh-process op: the spawn and imports are ``other`` too.
            trace["self_s"]["other"] += wall - trace["wall_s"]
            trace["wall_s"] = wall
            record["wall_s"] = wall
            record["trace"] = trace
        check_finite(text)
        record["digest"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    except Exception as exc:  # the op failed: record it, keep running
        record.setdefault("wall_s", time.perf_counter() - start)
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def run(out: TextIO, ops: list, seed: int, seconds: float, trace: bool) -> None:
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    min_ops = 1 if trace else MIN_OPS
    start = time.perf_counter()
    cycles = 0
    op_rss_kb = 0
    while True:
        order = list(ops)
        rng.shuffle(order)
        for index, op in enumerate(order):
            twin = trace and index % 2 == 0
            if tracer is None or twin:
                record = run_one(op, None)
                op_rss_kb = max(op_rss_kb, record.get("rss_kb") or 0)
                emit(out, record)
            if tracer is not None:
                record = run_one(op, tracer)
                record["paired"] = twin
                emit(out, record)
        cycles += 1
        if cycles == 1:
            # Peak after one cycle, as in a fresh CLI call per op kind; a
            # longer run would add what the process keeps between ops.
            peak_rss_kb = op_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - start
        if cycles * len(ops) >= min_ops and elapsed + elapsed / cycles / 2 >= seconds:
            break
    emit(out, {"event": "done", "peak_rss_kb": peak_rss_kb})


def statcheck_traced(out: TextIO) -> None:
    tracer = Tracer()
    tracer.install()
    try:
        text, trace = tracer.measure(statcheck_text)
    finally:
        tracer.uninstall()
    emit(out, {"text": text, "trace": trace})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--statcheck-traced", action="store_true")
    args = parser.parse_args()
    out, sys.stdout = sys.stdout, sys.stderr
    if args.statcheck_traced:
        statcheck_traced(out)
        return 0
    import numpy

    ops = build(args.workload, args.seed)
    emit(out, {"event": "ready", "python": platform.python_version(),
               "numpy": numpy.__version__})
    if not args.setup_only:
        run(out, ops, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
