"""Guard: the declared runtime dependencies are the ones the package
imports.

``install_requires`` in ``setup.py`` must name exactly the third-party
top-level modules imported anywhere under ``src/repro`` (the standard
library, per ``sys.stdlib_module_names``, and the package itself
excluded), so a dependency is neither missing nor declared for nothing.
"""

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def declared_requirements():
    tree = ast.parse((REPO / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            requirements = ast.literal_eval(node.value)
            return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0] for req in requirements}
    raise AssertionError("setup.py declares no install_requires")


def imported_third_party():
    modules = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules - set(sys.stdlib_module_names) - {"repro"}


def test_install_requires_matches_imports():
    assert declared_requirements() == imported_third_party()
