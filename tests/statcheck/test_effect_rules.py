"""Seeded-mutation tests for the EFF/COMM rule family.

Each test copies a *real* source file from the tree, asserts the copy
is clean under the rule, then injects one specific defect and asserts
the rule catches exactly that defect.  This is the acceptance evidence
that the rules detect the failure modes they claim to guard against —
a rule that only ever passes proves nothing.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.statcheck import check_source
from repro.statcheck.cli import main

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _copy_with(tmp_path: Path, source: Path, name: str, old: str = "",
               new: str = "", append: str = "") -> str:
    text = source.read_text()
    if old:
        assert text.count(old) == 1, f"injection anchor not unique: {old!r}"
        text = text.replace(old, new)
    text += append
    dest = tmp_path / name
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(text)
    return str(dest)


def run(path: str, rules: str, capsys):
    code = main(["--rules", rules, path])
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# EFF001: memoized functions must be pure modulo their arguments
# ---------------------------------------------------------------------------

PERF_MODEL = REPO_SRC / "core" / "perf_model.py"
_KERNEL_ANCHOR = "    model = PerfModel(params=params)"


class TestEFF001SeededMutations:
    def test_base_copy_is_clean(self, tmp_path, capsys):
        path = _copy_with(tmp_path, PERF_MODEL, "perf_model.py")
        code, out = run(path, "EFF001", capsys)
        assert code == 0, out

    def test_environment_read_detected(self, tmp_path, capsys):
        path = _copy_with(
            tmp_path,
            PERF_MODEL,
            "perf_model.py",
            _KERNEL_ANCHOR,
            '    import os\n'
            '    _salt = os.environ.get("REPRO_PERF_SALT")\n'
            + _KERNEL_ANCHOR,
        )
        code, out = run(path, "EFF001", capsys)
        assert code == 1
        assert "EFF001" in out and "evaluate_layer_cached" in out
        assert "environment" in out

    def test_in_memory_source_for_package_path(self):
        # The given source, not the file on disk, is what the effect
        # analysis sees: it reports exactly what the same text does as a
        # loose file.
        text = PERF_MODEL.read_text().replace(
            _KERNEL_ANCHOR,
            '    import os\n'
            '    _salt = os.environ.get("REPRO_PERF_SALT")\n'
            + _KERNEL_ANCHOR,
        )
        # The finding sits on the ``def`` line of the kernel holding the
        # anchor.
        head = text[: text.index(_KERNEL_ANCHOR)]
        kernel_line = head[: head.rindex("\ndef ") + 1].count("\n") + 1
        in_package = check_source(text, path=str(PERF_MODEL), select=["EFF001"])
        loose = check_source(text, path="perf_model.py", select=["EFF001"])
        assert [(f.rule, f.line) for f in in_package] == [("EFF001", kernel_line)]
        assert [(f.line, f.message) for f in in_package] == [
            (f.line, f.message) for f in loose
        ]
        assert "environment" in in_package[0].message

    def test_argument_mutation_detected(self, tmp_path, capsys):
        path = _copy_with(
            tmp_path,
            PERF_MODEL,
            "perf_model.py",
            _KERNEL_ANCHOR,
            "    layer.kernel = 3\n" + _KERNEL_ANCHOR,
        )
        code, out = run(path, "EFF001", capsys)
        assert code == 1
        assert "EFF001" in out and "layer" in out

    def test_unseeded_rng_detected(self, tmp_path, capsys):
        path = _copy_with(
            tmp_path,
            PERF_MODEL,
            "perf_model.py",
            _KERNEL_ANCHOR,
            "    import random\n"
            "    _jitter = random.random()\n" + _KERNEL_ANCHOR,
        )
        code, out = run(path, "EFF001", capsys)
        assert code == 1
        assert "EFF001" in out and "random" in out

    def test_transitive_impurity_detected(self, tmp_path, capsys):
        # Impurity two calls away from the decorated function still
        # lands on the @memoize_sweep def, attributed to its origin.
        path = _copy_with(
            tmp_path,
            PERF_MODEL,
            "perf_model.py",
            _KERNEL_ANCHOR,
            "    _leaky_helper()\n" + _KERNEL_ANCHOR,
            append=(
                "\n\ndef _leaky_helper():\n"
                "    import time\n"
                "    return time.time()\n"
            ),
        )
        code, out = run(path, "EFF001", capsys)
        assert code == 1
        assert "EFF001" in out and "_leaky_helper" in out


# ---------------------------------------------------------------------------
# EFF002: @shaped/@partitioned functions must not mutate array operands
# ---------------------------------------------------------------------------

TILING = REPO_SRC / "winograd" / "tiling.py"


class TestEFF002SeededMutations:
    def test_base_copy_is_clean(self, tmp_path, capsys):
        path = _copy_with(tmp_path, TILING, "tiling.py")
        code, out = run(path, "EFF002", capsys)
        assert code == 0, out

    def test_operand_mutation_detected(self, tmp_path, capsys):
        anchor = "    t, _, batch, tiles_high, tiles_wide, channels = d_tiles.shape"
        path = _copy_with(
            tmp_path,
            TILING,
            "tiling.py",
            anchor,
            "    d_tiles[0] = 0.0\n" + anchor,
        )
        code, out = run(path, "EFF002", capsys)
        assert code == 1
        assert "EFF002" in out and "d_tiles" in out

    def test_skip_operands_stay_exempt(self, tmp_path, capsys):
        # Mutating a `_` (skip) operand is outside EFF002's contract:
        # only value-semantics array/scalar slots are covered.
        anchor = "    t, _, batch, tiles_high, tiles_wide, channels = d_tiles.shape"
        path = _copy_with(
            tmp_path,
            TILING,
            "tiling.py",
            anchor,
            "    grid.scratch = 1\n" + anchor,
        )
        code, out = run(path, "EFF002", capsys)
        assert code == 0, out


# ---------------------------------------------------------------------------
# EFF003: fault hooks must stay behind the `faults is not None` guard
# ---------------------------------------------------------------------------

GUARDED = '''\
"""Synthetic netsim module with a correctly guarded fault hook."""


def deliver(sim, packet):
    faults = sim.faults
    if faults is not None:
        faults.on_send(packet)
    return packet
'''

UNGUARDED = GUARDED.replace(
    "    faults = sim.faults\n    if faults is not None:\n        faults.on_send(packet)\n",
    "    sim.faults.on_send(packet)\n",
)


class TestEFF003SeededMutations:
    def test_guarded_hook_is_clean(self, tmp_path, capsys):
        dest = tmp_path / "netsim" / "hooks.py"
        dest.parent.mkdir()
        dest.write_text(GUARDED)
        code, out = run(str(dest), "EFF003", capsys)
        assert code == 0, out

    def test_unguarded_hook_detected(self, tmp_path, capsys):
        dest = tmp_path / "netsim" / "hooks.py"
        dest.parent.mkdir()
        dest.write_text(UNGUARDED)
        code, out = run(str(dest), "EFF003", capsys)
        assert code == 1
        assert "EFF003" in out and "sim.faults" in out

    def test_rule_only_applies_to_fault_paths(self, tmp_path, capsys):
        # The same unguarded source outside netsim/faults is ignored —
        # `faults` attributes elsewhere are not the simulator's hooks.
        dest = tmp_path / "elsewhere.py"
        dest.write_text(UNGUARDED)
        code, out = run(str(dest), "EFF003", capsys)
        assert code == 0, out

    def test_real_engine_is_clean(self, tmp_path, capsys):
        engine = REPO_SRC / "netsim" / "engine.py"
        dest = tmp_path / "netsim" / "engine.py"
        dest.parent.mkdir()
        shutil.copyfile(engine, dest)
        code, out = run(str(dest), "EFF003", capsys)
        assert code == 0, out


# ---------------------------------------------------------------------------
# COMM001: collective step counts must conserve bytes on the wire
# ---------------------------------------------------------------------------

COLLECTIVES = REPO_SRC / "netsim" / "collectives.py"


class TestCOMM001SeededMutations:
    def test_base_copy_is_clean(self, tmp_path, capsys):
        path = _copy_with(tmp_path, COLLECTIVES, "collectives.py")
        code, out = run(path, "COMM001", capsys)
        assert code == 0, out

    def test_step_off_by_one_detected(self, tmp_path, capsys):
        path = _copy_with(
            tmp_path,
            COLLECTIVES,
            "collectives.py",
            "total_steps = 2 * (n - 1)",
            "total_steps = 2 * n - 1",
        )
        code, out = run(path, "COMM001", capsys)
        assert code == 1
        assert "COMM001" in out and "ring_allreduce" in out

    def test_nontermination_detected(self, tmp_path, capsys):
        path = _copy_with(
            tmp_path,
            COLLECTIVES,
            "collectives.py",
            "if step >= self.total_steps:",
            "if False:",
        )
        code, out = run(path, "COMM001", capsys)
        assert code == 1
        assert "COMM001" in out and "terminate" in out
