"""CLI surface of the COST family: `--rules COST`, `--costs`,
`--update-cost-baseline`, and their interaction with `--changed`."""

from __future__ import annotations

import json
import subprocess
import textwrap
from pathlib import Path

from repro.statcheck.cli import main

BAD_COST = textwrap.dedent(
    '''
    import numpy as np
    from repro.contracts import cost, shaped

    @shaped("(B,N), (N,K) -> (B,K)")
    @cost(flops="3*B*N*K", mem="4*B*K")
    def matmul(a, b):
        return np.matmul(a, b)
    '''
)

GOOD_COST = BAD_COST.replace("3*B*N*K", "2*B*N*K")

UNIT_DIRTY = "def f(a_bytes, b_seconds):\n    return a_bytes + b_seconds\n"


def write(tmp_path, name, source) -> str:
    path = tmp_path / name
    path.write_text(source)
    return str(path)


class TestRulesFamily:
    def test_cost_family_prefix_selects_all_five(self, tmp_path, capsys):
        assert main(["--rules", "COST", write(tmp_path, "bad.py", BAD_COST)]) == 1
        out = capsys.readouterr().out
        assert "COST001" in out
        # The text reporter carries the side-by-side polynomials.
        assert "derived flops:" in out
        assert "declared flops:" in out

    def test_cost_family_ignores_other_families(self, tmp_path, capsys):
        assert main(
            ["--rules", "COST", write(tmp_path, "dirty.py", UNIT_DIRTY)]
        ) == 0

    def test_clean_annotation_passes(self, tmp_path, capsys):
        assert main(["--rules", "COST", write(tmp_path, "ok.py", GOOD_COST)]) == 0


class TestCostsReport:
    def test_json_document(self, tmp_path, capsys):
        assert main(["--costs", write(tmp_path, "ok.py", GOOD_COST)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert report["events"] == []
        (entry,) = report["functions"]
        assert entry["qualname"] == "matmul"
        assert entry["declared"]["flops"] == "2*B*K*N"
        assert entry["derived"]["flops"] == "2*B*K*N"

    def test_events_surface_in_report(self, tmp_path, capsys):
        assert main(["--costs", write(tmp_path, "bad.py", BAD_COST)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [e["rule"] for e in report["events"]] == ["COST001"]

    def test_report_carries_cost_events_only(self, tmp_path, capsys):
        # The pass shared with SHAPE also finds the (K,B) return-shape
        # conflict; the cost report leaves it to the SHAPE rules.
        source = BAD_COST.replace('-> (B,K)")', '-> (K,B)")')
        assert main(["--rules", "SHAPE002", write(tmp_path, "bad.py", source)]) == 1
        capsys.readouterr()
        assert main(["--costs", str(tmp_path / "bad.py")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [e["rule"] for e in report["events"]] == ["COST001"]

    def test_unparsable_file_is_listed_not_dropped(self, tmp_path, capsys):
        write(tmp_path, "broken.py", "def f(:\n")
        write(tmp_path, "ok.py", GOOD_COST)
        assert main(["--json", str(tmp_path)]) == 1
        (finding,) = json.loads(capsys.readouterr().out)["findings"]
        assert main(["--costs", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [e["path"] for e in report["functions"]] == [str(tmp_path / "ok.py")]
        assert report["events"] == [
            {key: finding[key] for key in ("rule", "path", "line", "message")}
        ]
        assert finding["rule"] == "SYNT001"


class TestBaselineRegen:
    def test_flag_writes_via_write_baseline(self, tmp_path, capsys, monkeypatch):
        from repro.statcheck.costs import baseline as baseline_mod

        calls = []
        monkeypatch.setattr(
            baseline_mod, "write_baseline",
            lambda root: calls.append(root) or tmp_path / "baseline.json",
        )
        assert main(["--update-cost-baseline"]) == 0
        assert "wrote" in capsys.readouterr().out
        (root,) = calls
        assert Path(root).name == "repro"  # the packaged source tree


class TestChangedInteraction:
    @staticmethod
    def git(repo, *args):
        subprocess.run(
            ["git", *args],
            cwd=repo,
            check=True,
            capture_output=True,
            env={
                "PATH": "/usr/bin:/bin",
                "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
                "HOME": str(repo),
            },
        )

    def test_rules_cost_with_changed(self, tmp_path, capsys, monkeypatch):
        repo = tmp_path / "repo"
        repo.mkdir()
        self.git(repo, "init", "-b", "main")
        (repo / "base.py").write_text("x = 1\n")
        (repo / "untouched_bad.py").write_text(BAD_COST)
        self.git(repo, "add", "-A")
        self.git(repo, "commit", "-m", "seed")
        self.git(repo, "checkout", "-b", "feature")
        (repo / "touched_bad.py").write_text(BAD_COST)
        self.git(repo, "add", "touched_bad.py")
        self.git(repo, "commit", "-m", "change")
        monkeypatch.chdir(repo)
        assert main(["--rules", "COST", "--changed", "--base", "main"]) == 1
        out = capsys.readouterr().out
        assert "touched_bad.py" in out and "COST001" in out
        assert "untouched_bad.py" not in out
