"""CLI surface of the effect analysis: `--rules` and `--effects`."""

import json
import subprocess

from repro.statcheck.cli import main

# Direct environment read inside a @memoize_sweep function: an EFF001
# finding that only the effect rules (not the older families) produce.
MEMO_DIRTY = """\
import os

from repro.perf import memoize_sweep


@memoize_sweep
def cached_model(n):
    return n * len(os.environ.get("SALT", ""))
"""

# A UNIT001 finding but no EFF findings.
UNIT_DIRTY = "def f(a_bytes, b_seconds):\n    return a_bytes + b_seconds\n"

CLEAN = "def f(a_bytes, b_bytes):\n    return a_bytes + b_bytes\n"


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


class TestRulesFlag:
    def test_exact_id(self, tmp_path, capsys):
        path = write(tmp_path, "memo.py", MEMO_DIRTY)
        assert main(["--rules", "EFF001", path]) == 1
        out = capsys.readouterr().out
        assert "EFF001" in out

    def test_family_prefix_expands(self, tmp_path, capsys):
        path = write(tmp_path, "memo.py", MEMO_DIRTY)
        assert main(["--rules", "EFF", path]) == 1
        assert "EFF001" in capsys.readouterr().out

    def test_rules_filter_excludes_other_families(self, tmp_path, capsys):
        # The file has a UNIT001 finding; an EFF-only run must not
        # report it (and therefore exits clean).
        path = write(tmp_path, "units.py", UNIT_DIRTY)
        assert main([path]) == 1
        capsys.readouterr()
        assert main(["--rules", "EFF,COMM", path]) == 0

    def test_multiple_tokens_union(self, tmp_path, capsys):
        path = write(tmp_path, "both.py", MEMO_DIRTY + UNIT_DIRTY)
        assert main(["--rules", "EFF001,UNIT001", path]) == 1
        out = capsys.readouterr().out
        assert "EFF001" in out and "UNIT001" in out

    def test_unknown_family_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", CLEAN)
        assert main(["--rules", "NOPE", path]) == 2
        assert "unknown rule or family" in capsys.readouterr().err

    def test_ids_and_families_combine_as_union(self, tmp_path, capsys):
        path = write(tmp_path, "both.py", MEMO_DIRTY + UNIT_DIRTY)
        assert main(["--rules", "UNIT001,EFF", path]) == 1
        out = capsys.readouterr().out
        assert "EFF001" in out and "UNIT001" in out

    def test_list_rules_includes_effect_family(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("EFF001", "EFF002", "EFF003", "COMM001"):
            assert rid in out


class TestRulesWithChanged:
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

    def repo_with_history(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        self.git(repo, "init", "-b", "main")
        (repo / "base.py").write_text(CLEAN)
        self.git(repo, "add", "-A")
        self.git(repo, "commit", "-m", "seed")
        self.git(repo, "checkout", "-b", "feature")
        (repo / "memo.py").write_text(MEMO_DIRTY)
        self.git(repo, "add", "memo.py")
        self.git(repo, "commit", "-m", "change")
        return repo

    def test_rules_applies_to_changed_files(self, tmp_path, capsys, monkeypatch):
        repo = self.repo_with_history(tmp_path)
        monkeypatch.chdir(repo)
        assert main(["--changed", "--base", "main", "--rules", "EFF001"]) == 1
        assert "memo.py" in capsys.readouterr().out

    def test_rules_with_empty_diff_is_clean(self, tmp_path, capsys, monkeypatch):
        repo = self.repo_with_history(tmp_path)
        monkeypatch.chdir(repo)
        assert main(["--changed", "--base", "feature", "--rules", "EFF"]) == 0


class TestEffectsReport:
    def test_report_is_valid_json(self, tmp_path, capsys):
        path = write(tmp_path, "memo.py", MEMO_DIRTY)
        assert main(["--effects", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["packages"] and doc["functions"]

    def test_report_carries_summaries(self, tmp_path, capsys):
        path = write(tmp_path, "memo.py", MEMO_DIRTY)
        main(["--effects", path])
        doc = json.loads(capsys.readouterr().out)
        by_name = {fn["qualname"]: fn for fn in doc["functions"]}
        fn = by_name["cached_model"]
        assert fn["pure"] is False
        assert any(atom[0] == "env" for atom in fn["transitive"])

    def test_pure_function_is_flagged_pure(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", CLEAN)
        main(["--effects", path])
        doc = json.loads(capsys.readouterr().out)
        assert [fn["pure"] for fn in doc["functions"]] == [True]

    def test_stats_are_reported_per_package(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", CLEAN)
        main(["--effects", path])
        doc = json.loads(capsys.readouterr().out)
        stats = doc["packages"][0]["stats"]
        assert stats["functions"] == 1
        assert stats["call_sites_resolved"] == stats["call_sites"]

    def test_module_command_front_end(self, tmp_path):
        # `python -m repro statcheck --effects` forwards to the same
        # reporter (the path a CI artifact step uses).
        import os
        import sys

        path = write(tmp_path, "clean.py", CLEAN)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            __import__("pathlib").Path(__file__).resolve().parents[2] / "src"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "statcheck", "--effects", path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["version"] == 1
