"""Guards on what the package imports.

``install_requires`` in ``setup.py`` must name exactly the third-party
top-level modules imported anywhere under ``src/repro`` (the standard
library, per ``sys.stdlib_module_names``, and the package itself
excluded), so a dependency is neither missing nor declared for nothing.

The simulator never loads the functional accuracy studies: ``scipy``,
``repro.nn`` and ``repro.prediction`` are imported only where Figs. 12
and 14 run, never by the CLI, the fault and planner packages or the
sweep modules.  Nor does it load the static analyser: the contract
decorators parse nothing at import, so ``repro.statcheck`` is loaded
only by the commands that run it.
"""

import ast
import os
import re
import subprocess
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


#: Imports the CLI, the fault and planner packages, both figure modules and
#: every sweep kernel, then prints each loaded training, prediction or
#: static-analysis module.
SIMULATOR_IMPORTS = """
import sys
import repro.analysis.figures, repro.analysis.planner, repro.cli, repro.faults, repro.planner
import repro.perf
repro.perf.import_sweep_modules()
stacks = ("scipy", "repro.nn", "repro.prediction", "repro.statcheck")
print(*sorted(m for m in sys.modules if m in stacks or m.startswith(tuple(s + "." for s in stacks))))
"""


def test_simulator_does_not_load_training_stack():
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SIMULATOR_IMPORTS],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == []
