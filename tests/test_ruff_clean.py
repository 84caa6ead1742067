"""Guard: the tree stays clean under the curated ruff configuration.

The target container does not ship ruff (and cannot pip-install it), so
the check is skipped when the binary is missing — on developer machines
and CI images that do have ruff, any regression fails tier-1 here.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def ruff_binary():
    return shutil.which("ruff")


@pytest.mark.skipif(ruff_binary() is None, reason="ruff is not installed")
def test_ruff_clean():
    result = subprocess.run(
        [ruff_binary(), "check", "src", "tests", "examples"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, f"ruff found issues:\n{result.stdout}{result.stderr}"


def test_ruff_config_present():
    """The configuration itself is tier-1 even where ruff is absent: the
    curated rule selection must not be dropped from pyproject.toml."""
    config = (REPO / "pyproject.toml").read_text()
    assert "[tool.ruff]" in config
    assert "[tool.ruff.lint]" in config
    assert '"F"' in config  # pyflakes stays on
