"""Re-pin ``golden.json``: the sha256 of every op kind's output.

    python3 bench/pin.py

Computes every op kind of every workload, for each of the
``DATA_SEEDS`` data seeds, twice in fresh processes: once as shipped and
once with ``REPRO_NETSIM_REFERENCE=1`` (netsim's reference packet engine,
no fast paths).  The two must agree — which certifies that the fast paths
are exact on these workloads — before ``golden.json`` is written.  A
change that moves results on purpose re-pins in its own benchmark change.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench.run import GOLDEN, worker_env  # noqa: E402
from bench.workloads import DATA_SEEDS, WORKLOADS, build, clear_sweep_caches  # noqa: E402

ENGINES = (("default", {}), ("reference", {"REPRO_NETSIM_REFERENCE": "1"}))


def digests() -> Dict[str, str]:
    """Every op kind's digest, computed in this process."""
    out: Dict[str, str] = {}
    for workload in WORKLOADS:
        for seed in range(DATA_SEEDS):
            for op in build(workload, seed):
                if op.kind in out:
                    continue
                clear_sweep_caches()
                text, _ = op.call()
                out[op.kind] = hashlib.sha256(text.encode("utf-8")).hexdigest()
                print(f"{op.kind:<40} {out[op.kind][:16]}", file=sys.stderr)
    return out


def main() -> int:
    if sys.argv[1:] == ["--emit"]:
        out, sys.stdout = sys.stdout, sys.stderr
        out.write(json.dumps(digests()) + "\n")
        return 0
    found = {}
    for engine, extra in ENGINES:
        print(f"-- {engine} engine", file=sys.stderr)
        env = {**worker_env(), **extra}
        proc = subprocess.run(
            [sys.executable, __file__, "--emit"], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, check=True,
        )
        found[engine] = json.loads(proc.stdout)
    default, reference = (found[engine] for engine, _ in ENGINES)
    differ = sorted(kind for kind in default if default[kind] != reference.get(kind))
    if differ or default.keys() != reference.keys():
        print("fast paths and reference engine disagree on: " + ", ".join(differ),
              file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(
        {"data_seeds": DATA_SEEDS, "engines": [engine for engine, _ in ENGINES],
         "digests": dict(sorted(default.items()))},
        indent=1,
    ) + "\n")
    print(f"wrote {GOLDEN} ({len(default)} op kinds)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
