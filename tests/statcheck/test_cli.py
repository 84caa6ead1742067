"""The `python -m repro.statcheck` command-line front end."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.statcheck.cli import main

CLEAN = "def f(a_bytes, b_bytes):\n    return a_bytes + b_bytes\n"
DIRTY = "def f(a_bytes, b_seconds):\n    return a_bytes + b_seconds\n"


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        assert main([write(tmp_path, "clean.py", CLEAN)]) == 0
        assert "statcheck: 0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        assert main([write(tmp_path, "dirty.py", DIRTY)]) == 1
        out = capsys.readouterr().out
        assert "UNIT001" in out
        assert "dirty.py:2:" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_id_exits_two(self, tmp_path, capsys):
        assert main(["--rules", "NOPE999", write(tmp_path, "c.py", CLEAN)]) == 2
        assert "unknown rule ids" in capsys.readouterr().err

    def test_syntax_error_reported_not_raised(self, tmp_path, capsys):
        assert main([write(tmp_path, "broken.py", "def f(:\n")]) == 1
        assert "SYNT001" in capsys.readouterr().out


class TestSelection:
    def test_select_filters_rules(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main(["--rules", "DET004", path]) == 0
        capsys.readouterr()
        assert main(["--rules", "UNIT001", path]) == 1

    def test_ignore_drops_rules(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main(["--ignore", "UNIT001", path]) == 0

    def test_directory_traversal(self, tmp_path, capsys):
        (tmp_path / "pkg").mkdir()
        write(tmp_path, "pkg/one.py", CLEAN)
        write(tmp_path, "pkg/two.py", DIRTY)
        (tmp_path / "pkg" / "__pycache__").mkdir()
        write(tmp_path, "pkg/__pycache__/junk.py", DIRTY)
        assert main([str(tmp_path / "pkg")]) == 1
        out = capsys.readouterr().out
        assert "two.py" in out
        assert "__pycache__" not in out
        assert "statcheck: 1 finding" in out


class TestJsonMode:
    def test_json_document(self, tmp_path, capsys):
        assert main(["--json", write(tmp_path, "dirty.py", DIRTY)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["count"] == 1
        assert doc["findings"][0]["rule"] == "UNIT001"

    def test_json_clean(self, tmp_path, capsys):
        assert main(["--json", write(tmp_path, "clean.py", CLEAN)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"version": 1, "count": 0, "errors": 0, "findings": []}


class TestListRules:
    def test_catalogue_lists_every_family(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "UNIT001", "UNIT002", "UNIT003", "UNIT004",
            "DET001", "DET002", "DET003", "DET004", "DET005",
            "CFG001", "CFG002",
        ):
            assert rule_id in out


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        """`python -m repro.statcheck` works as a subprocess (the form CI
        and the benchmark harness invoke)."""
        src_dir = Path(__file__).resolve().parents[2] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro.statcheck", write(tmp_path, "d.py", DIRTY)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 1
        assert "UNIT001" in result.stdout


class TestReproCommand:
    """`repro statcheck` passes everything after it to this CLI."""

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        direct = capsys.readouterr().out
        with pytest.raises(SystemExit) as info:
            repro_main(["statcheck", "--list-rules"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert out == direct and "UNIT001" in out

    def test_ignore_exits_as_statcheck_does(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        code = main(["--ignore", "UNIT001", path])
        direct = capsys.readouterr().out
        with pytest.raises(SystemExit) as info:
            repro_main(["statcheck", "--ignore", "UNIT001", path])
        assert info.value.code == code == 0
        assert capsys.readouterr().out == direct


class TestExcludedDirs:
    def test_walker_skips_build_artifacts(self, tmp_path):
        from repro.statcheck.engine import EXCLUDED_DIRS, iter_python_files

        (tmp_path / "pkg").mkdir()
        write(tmp_path, "pkg/real.py", CLEAN)
        for skipped in ("build", "dist", ".mypy_cache", ".ruff_cache",
                        "__pycache__", ".venv"):
            assert skipped in EXCLUDED_DIRS
            (tmp_path / "pkg" / skipped).mkdir()
            write(tmp_path, f"pkg/{skipped}/junk.py", DIRTY)
        found = [p.name for p in iter_python_files([tmp_path / "pkg"])]
        assert found == ["real.py"]

    def test_package_below_an_excluded_dir_is_walked(self, tmp_path):
        # Excluded names are matched below the walked root: a checkout or
        # install under build/ or .venv/ keeps its files, contracts and
        # effect summaries.
        from repro.statcheck import check_file, iter_python_files
        from repro.statcheck.effects import analyze_path

        pkg = tmp_path / "build" / "pkg"
        pkg.mkdir(parents=True)
        write(pkg, "__init__.py", "")
        write(pkg, "kernels.py", (
            "from repro.contracts import cost, shaped\n\n"
            '@shaped("(N,K) -> (N,K)")\n'
            '@cost(flops="N*K", mem="8*N*K", assume=True)\n'
            "def double(x):\n"
            "    return x + x\n"
        ))
        write(pkg, "caller.py", (
            "from repro.contracts import cost, shaped\n"
            "from .kernels import double\n\n"
            '@shaped("(N,K) -> (N,K)")\n'
            '@cost(flops="2*N*K", mem="16*N*K")\n'
            "def twice(x):\n"
            "    return double(double(x))\n"
        ))
        found = [p.name for p in iter_python_files([pkg.resolve()])]
        assert found == ["__init__.py", "caller.py", "kernels.py"]
        assert check_file(pkg / "caller.py", select=["COST001"]) == []
        names = {s.qualname for s in analyze_path(pkg).summaries.values()}
        assert names == {"double", "twice"}

    def test_check_paths_ignores_excluded_trees(self, tmp_path, capsys):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "build").mkdir()
        write(tmp_path, "pkg/ok.py", CLEAN)
        write(tmp_path, "pkg/build/generated.py", DIRTY)
        assert main([str(tmp_path / "pkg")]) == 0
        assert "generated.py" not in capsys.readouterr().out


class TestChangedMode:
    """`--changed` lints only files touched vs a git base ref."""

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
        (repo / "untouched_dirty.py").write_text(DIRTY)
        self.git(repo, "add", "-A")
        self.git(repo, "commit", "-m", "seed")
        self.git(repo, "checkout", "-b", "feature")
        (repo / "touched.py").write_text(DIRTY)
        self.git(repo, "add", "touched.py")
        self.git(repo, "commit", "-m", "change")
        return repo

    def test_changed_lints_only_the_diff(self, tmp_path, capsys, monkeypatch):
        repo = self.repo_with_history(tmp_path)
        monkeypatch.chdir(repo)
        assert main(["--changed", "--base", "main"]) == 1
        out = capsys.readouterr().out
        assert "touched.py" in out
        # Pre-existing findings outside the diff are not reported.
        assert "untouched_dirty.py" not in out

    def test_untracked_files_are_included(self, tmp_path, capsys, monkeypatch):
        repo = self.repo_with_history(tmp_path)
        (repo / "scratch.py").write_text(DIRTY)
        monkeypatch.chdir(repo)
        assert main(["--changed", "--base", "main"]) == 1
        out = capsys.readouterr().out
        assert "scratch.py" in out

    def test_no_changes_is_clean(self, tmp_path, capsys, monkeypatch):
        repo = self.repo_with_history(tmp_path)
        monkeypatch.chdir(repo)
        assert main(["--changed", "--base", "feature"]) == 0
        assert "statcheck: 0 findings" in capsys.readouterr().out

    def test_changed_with_paths_is_usage_error(self, tmp_path, capsys):
        assert main(["--changed", str(tmp_path)]) == 2
        assert "exclusive" in capsys.readouterr().err

    def test_base_without_changed_is_usage_error(self, capsys):
        assert main(["--base", "main"]) == 2
        assert "--changed" in capsys.readouterr().err

    def test_bad_base_ref_exits_two(self, tmp_path, capsys, monkeypatch):
        repo = self.repo_with_history(tmp_path)
        monkeypatch.chdir(repo)
        assert main(["--changed", "--base", "no-such-ref"]) == 2
        assert "no base ref" in capsys.readouterr().err
