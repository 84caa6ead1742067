"""Tests for the COST001-COST005 rule family.

Mirrors the SHAPE rule tests' structure: *seeded mutations* — copies of
the real kernel sources with one classic cost-model bug injected (an
inflated flop coefficient, a byte count that forgot a factor, a wire
formula that drops the ``-1``, a counter that bypasses the checked
helper) — each of which must trip exactly the expected COST rule when
the whole family runs, plus inline fixtures for the rules that need a
synthetic baseline (COST003) or memo key (COST005).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.statcheck import check_file, check_source

REPO = Path(__file__).resolve().parents[2]
COOK_TOOM = REPO / "src" / "repro" / "winograd" / "cook_toom.py"
TILING = REPO / "src" / "repro" / "winograd" / "tiling.py"
FUNCTIONAL = REPO / "src" / "repro" / "core" / "functional.py"
COLLECTIVES = REPO / "src" / "repro" / "netsim" / "collectives.py"
NCCL = REPO / "src" / "repro" / "gpu" / "nccl.py"

COST_FAMILY = ["COST001", "COST002", "COST003", "COST004", "COST005"]


def rules_of(findings):
    return [f.rule for f in findings]


def mutate(path: Path, old: str, new: str, count: int = 1) -> str:
    """The file's source with ``old`` replaced ``count`` times, asserting
    the anchor still exists (mutations fail loudly when the kernel is
    refactored rather than silently testing nothing)."""
    source = path.read_text()
    assert source.count(old) >= count, (
        f"mutation anchor gone from {path.name}: {old!r}"
    )
    return source.replace(old, new, count)


class TestCost001Conformance:
    def test_clean_kernels_pass(self):
        for path in (COOK_TOOM, TILING, NCCL):
            assert check_file(path, select=COST_FAMILY) == []

    def test_inflated_flop_coefficient_flagged(self):
        # transform_input_1d really does 2*ELL*T**2 flops; declaring 3x
        # keeps the complexity class (no COST003) but the derived
        # polynomial disagrees.
        source = mutate(COOK_TOOM, '"2*ELL*T**2"', '"3*ELL*T**2"')
        findings = check_source(source, path=str(COOK_TOOM), select=COST_FAMILY)
        assert rules_of(findings) == ["COST001"]
        assert "derived flop count disagrees" in findings[0].message
        # The text reporter shows the two polynomials side by side.
        assert "derived flops:" in findings[0].message
        assert "declared flops:" in findings[0].message

    def test_wrong_byte_count_flagged(self):
        # assemble_output touches 4*B*C*OH*OW bytes, not twice that.
        source = mutate(TILING, '"4*B*C*OH*OW"', '"8*B*C*OH*OW"')
        findings = check_source(source, path=str(TILING), select=COST_FAMILY)
        assert rules_of(findings) == ["COST001"]
        assert "derived bytes-moved disagrees" in findings[0].message

    def test_exec_only_summary_mismatch_flagged(self):
        # ring_slice_sizes' slices sum to MB exactly; declaring MB + N
        # fails the executed battery check.
        source = mutate(COLLECTIVES, 'ret_sum="MB"', 'ret_sum="MB + N"')
        findings = check_source(source, path=str(COLLECTIVES), select=COST_FAMILY)
        assert rules_of(findings) == ["COST001"]
        assert "sums to" in findings[0].message

    def test_cost_without_shaped_contract_flagged(self):
        findings = check_source(
            "from repro.contracts import cost\n"
            'import numpy as np\n'
            '@cost(flops="2*N")\n'
            "def f(x):\n"
            "    return np.abs(x)\n",
            select=COST_FAMILY,
        )
        assert rules_of(findings) == ["COST001"]
        assert "@shaped contract" in findings[0].message

    def test_unparseable_cost_expression_flagged(self):
        findings = check_source(
            "from repro.contracts import cost, shaped\n"
            '@shaped("(N) -> (N)")\n'
            '@cost(flops="2**")\n'
            "def f(x):\n"
            "    return x\n",
            select=COST_FAMILY,
        )
        assert rules_of(findings) == ["COST001"]

    def test_assume_skips_derivation(self):
        findings = check_source(
            "from repro.contracts import cost, shaped\n"
            "import numpy as np\n"
            '@shaped("(N,K) -> (N,K)")\n'
            '@cost(flops="12345*N", assume=True)\n'
            "def f(x):\n"
            "    return x + x\n",
            select=COST_FAMILY,
        )
        assert findings == []


class TestCost002TrafficModel:
    def test_clean_helpers_pass(self):
        assert check_file(FUNCTIONAL, select=COST_FAMILY) == []

    def test_wrong_remote_fraction_flagged(self):
        # Declare (and implement) a scatter that ships *all* bytes
        # instead of the (N_g - 1)/N_g remote fraction: the derivation
        # matches the mutated body (no COST001) but the declared
        # polynomial no longer matches the comm_model factor.
        source = mutate(
            FUNCTIONAL,
            '"floordiv(4*TS*C*E*(NG-1), NG)"',
            '"4*TS*C*E"',
        )
        source = source.replace(
            "total * (num_groups - 1) // num_groups", "total", 1
        )
        findings = check_source(source, path=str(FUNCTIONAL), select=COST_FAMILY)
        assert rules_of(findings) == ["COST002"]
        assert "comm_model analytical factor" in findings[0].message

    def test_machine_bypassing_helpers_flagged(self):
        # Counters bumped without going through the checked helper: the
        # presence check demands MptLayerMachine route every traffic
        # class through them.
        source = mutate(
            FUNCTIONAL,
            "+= remote_scatter_bytes(",
            "+= _inline_scatter_count(",
            count=2,
        )
        findings = check_source(source, path=str(FUNCTIONAL), select=COST_FAMILY)
        assert rules_of(findings) == ["COST002"]
        assert "missing calls" in findings[0].message
        assert "remote_scatter_bytes" in findings[0].message


class TestCost003ComplexityBaseline:
    def _write(self, tmp_path: Path, declared: str, baseline_sig: dict) -> Path:
        mod = tmp_path / "kernels.py"
        mod.write_text(textwrap.dedent(
            f'''
            from repro.contracts import cost, shaped

            @shaped("(B,N), (N,K) -> (B,K)")
            @cost(flops="{declared}", mem="4*B*K", assume=True)
            def matmul(a, b):
                import numpy as np
                return np.matmul(a, b)
            '''
        ))
        (tmp_path / "statcheck-cost-baseline.json").write_text(json.dumps(
            {"version": 1, "functions": {"kernels.py::matmul": baseline_sig}}
        ))
        return mod

    BASELINE = {"flops": {"B": 1, "K": 1, "N": 1}, "mem": {"B": 1, "K": 1}}

    def test_degree_increase_flagged(self, tmp_path):
        mod = self._write(tmp_path, "2*B*N**2*K", self.BASELINE)
        findings = check_file(mod, select=COST_FAMILY)
        assert rules_of(findings) == ["COST003"]
        assert "degree 1 to 2 in N" in findings[0].message

    def test_matching_baseline_passes(self, tmp_path):
        mod = self._write(tmp_path, "2*B*N*K", self.BASELINE)
        assert check_file(mod, select=COST_FAMILY) == []

    def test_degree_decrease_passes(self, tmp_path):
        # Only *increases* gate; getting cheaper never needs a regen.
        mod = self._write(tmp_path, "2*B*K", self.BASELINE)
        assert check_file(mod, select=COST_FAMILY) == []

    def test_unlisted_function_passes(self, tmp_path):
        mod = self._write(tmp_path, "2*B*N**2*K", self.BASELINE)
        (tmp_path / "statcheck-cost-baseline.json").write_text(
            json.dumps({"version": 1, "functions": {}})
        )
        assert check_file(mod, select=COST_FAMILY) == []


class TestCost004WireFormulas:
    def test_clean_collectives_pass(self):
        assert check_file(COLLECTIVES, select=COST_FAMILY) == []

    def test_dropped_minus_one_flagged(self):
        # Classic ring bug: 2*n hops instead of 2*(n-1).  Body and
        # declaration mutate together so the derivation stays
        # self-consistent (no COST001) — only the closed form disagrees.
        source = mutate(COLLECTIVES, '"2*(N-1)*MB"', '"2*N*MB"')
        source = source.replace(
            "return 2 * (n - 1) * message_bytes",
            "return 2 * n * message_bytes",
            1,
        )
        findings = check_source(source, path=str(COLLECTIVES), select=COST_FAMILY)
        assert rules_of(findings) == ["COST004"]
        assert "closed form" in findings[0].message

    def test_missing_wire_helper_flagged(self):
        # A module hosting ring_allreduce must keep the checked wire-byte
        # helpers defined (renaming one away breaks the anchor).
        source = mutate(
            COLLECTIVES,
            "def all_to_all_wire_bytes(",
            "def all_to_all_wire_bytes_renamed(",
        )
        findings = check_source(source, path=str(COLLECTIVES), select=COST_FAMILY)
        assert rules_of(findings) == ["COST004"]
        assert "all_to_all_wire_bytes" in findings[0].message

    def test_nccl_formula_mutation_flagged(self):
        source = mutate(NCCL, '"2*(N-1)*GB"', '"2*N*GB"')
        source = source.replace(
            "return 2.0 * (num_gpus - 1) * grad_bytes",
            "return 2.0 * num_gpus * grad_bytes",
            1,
        )
        findings = check_source(source, path=str(NCCL), select=COST_FAMILY)
        assert rules_of(findings) == ["COST004"]


class TestCost005MemoKeys:
    SRC = textwrap.dedent(
        '''
        from repro.contracts import cost, shaped
        from repro.perf.memoize import memoize_sweep

        @memoize_sweep
        @shaped("N -> S")
        @cost(flops="{flops}", assume=True)
        def sweep_kernel(n):
            return n
        '''
    )

    def _check(self, tmp_path: Path, flops: str):
        mod = tmp_path / "sweeps.py"
        mod.write_text(self.SRC.format(flops=flops))
        return check_file(mod, select=COST_FAMILY)

    def test_leaked_symbol_flagged(self, tmp_path):
        # Cost depends on K but the memo key (the single argument N)
        # cannot determine K: cached results would be reused across
        # different K values.
        findings = self._check(tmp_path, "2*N*K")
        assert rules_of(findings) == ["COST005"]
        assert "memo key" in findings[0].message
        assert "'K'" in findings[0].message

    def test_key_determined_cost_passes(self, tmp_path):
        assert self._check(tmp_path, "2*N**2") == []
