"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fwdsim"


def outside_imports(path: Path) -> list[str]:
    """Absolute imports in one module whose top-level package is not part
    of the standard library."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in outside_imports(path)]
    assert found == []


def test_a_third_party_import_is_reported(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os\nfrom . import engine\nimport numpy as np\n"
                      "from hypothesis.strategies import integers\n")
    assert outside_imports(module) == ["mod.py:3: numpy",
                                       "mod.py:4: hypothesis.strategies"]
