"""Seeded-mutation evidence that statcheck guards the planner kernels.

The planner sources ship clean under the EFF and COST families; these
tests copy the real files, inject one classic defect each (a cost
contract whose declared polynomial forgot the optimiser-state factor,
an environment read inside the memoized strategy kernel), and assert
the rules trip on exactly that defect.
"""

from __future__ import annotations

from pathlib import Path

from repro.statcheck import check_file, check_source
from repro.statcheck.cli import main

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
STRATEGY = REPO_SRC / "planner" / "strategy.py"
TRANSITION = REPO_SRC / "planner" / "transition.py"
SOLVER = REPO_SRC / "planner" / "solver.py"

COST_FAMILY = ["COST001", "COST002", "COST003", "COST004", "COST005"]


def rules_of(findings):
    return [f.rule for f in findings]


def mutate(path: Path, old: str, new: str) -> str:
    source = path.read_text()
    assert source.count(old) == 1, f"mutation anchor not unique: {old!r}"
    return source.replace(old, new)


class TestPlannerSourcesClean:
    def test_cost_family_clean(self):
        for path in (STRATEGY, TRANSITION, SOLVER):
            assert check_file(path, select=COST_FAMILY) == [], path.name

    def test_effect_family_clean(self, tmp_path, capsys):
        code = main(["--rules", "EFF", str(STRATEGY), str(TRANSITION), str(SOLVER)])
        out = capsys.readouterr().out
        assert code == 0, out


class TestCostContractMutations:
    def test_dropped_optimiser_state_factor_flagged(self):
        # The footprint kernel holds the group weight slice three ways
        # (weights + gradient accumulator + optimiser state).  Declaring
        # only two of them disagrees with the derived polynomial.
        source = mutate(
            STRATEGY, '3*floordiv(4*WE, NG)"', '2*floordiv(4*WE, NG)"'
        )
        findings = check_source(source, path=str(STRATEGY), select=COST_FAMILY)
        assert rules_of(findings) == ["COST001"]
        assert "worker_footprint_bytes" in findings[0].message

    def test_dropped_weight_term_flagged(self):
        source = mutate(TRANSITION, '"AF*AB + WF*WB"', '"AF*AB"')
        findings = check_source(
            source, path=str(TRANSITION), select=COST_FAMILY
        )
        assert rules_of(findings) == ["COST001"]
        assert "rerouted_bytes" in findings[0].message


class TestMemoizedKernelMutations:
    def test_environment_read_in_strategy_kernel_flagged(
        self, tmp_path, capsys
    ):
        anchor = "    model = PerfModel(params=params, factors=factors)"
        text = STRATEGY.read_text()
        assert text.count(anchor) == 1
        dest = tmp_path / "strategy.py"
        dest.write_text(
            text.replace(
                anchor,
                '    import os\n'
                '    _salt = os.environ.get("REPRO_PLANNER_SALT")\n'
                + anchor,
            )
        )
        code = main(["--rules", "EFF001", str(dest)])
        out = capsys.readouterr().out
        assert code == 1
        assert "EFF001" in out and "_layer_candidates_cached" in out

    def test_candidate_list_leak_flagged(self, tmp_path, capsys):
        # Accumulating candidates into a module-level list instead of a
        # local makes the kernel read/write shared mutable state.
        text = SOLVER.read_text()
        plain = "    per_layer: List[Tuple[StrategyCandidate, ...]] = []\n    for layer"
        assert text.count(plain) == 1
        leaked = text.replace(
            "#: Paths the exhaustive oracle refuses to enumerate past.",
            "_SCRATCH: list = []\n\n"
            "#: Paths the exhaustive oracle refuses to enumerate past.",
        ).replace(plain, "    per_layer = _SCRATCH\n    for layer")
        assert "_SCRATCH" in leaked
        dest = tmp_path / "solver.py"
        dest.write_text(leaked)
        code = main(["--rules", "EFF001", str(dest)])
        out = capsys.readouterr().out
        assert code == 1
        assert "EFF001" in out and "_plan_network_cached" in out
