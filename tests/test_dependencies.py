"""NumPy is the only runtime dependency: every import under src/spincnn/
is of the standard library, NumPy or spincnn itself, and pyproject.toml
asks for NumPy alone. SciPy, pytest and hypothesis serve the tests."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "spincnn").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "spincnn"}


def imported_packages(tree):
    """Top-level package of every import in a module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_program_imports_only_stdlib_numpy_and_itself():
    foreign = sorted({f"{path.name}: {name}" for path in SOURCES
                      for name in imported_packages(ast.parse(
                          path.read_text())) if name not in ALLOWED})
    assert SOURCES and not foreign, foreign


def test_pyproject_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
