"""The installed package needs nothing beyond the standard library.

Every import in ``src/kronecker`` is relative or names a standard-library
module, none reaches into the tests (whose references, numpy among their
needs, stay out of the package), and ``pyproject.toml`` declares no runtime
dependency.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kronecker"


def _absolute_imports(path):
    """Top-level module names of the absolute imports in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_itself_and_the_standard_library():
    outside = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert not outside, "imports outside the package: " + ", ".join(outside)


def test_project_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
