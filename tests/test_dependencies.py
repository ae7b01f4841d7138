"""The package imports nothing beyond numpy and the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "losmimo").glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of a module's absolute imports; relative ones are the package's own."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_numpy_and_the_standard_library(path):
    outside = {name for name in _absolute_imports(path)
               if name != "numpy" and name not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports {sorted(outside)}"
