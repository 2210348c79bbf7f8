"""Every exported name of the compute modules is used by the program itself.

A name in the ``__all__`` of a compute module must be referenced somewhere in
``src/myproc`` or ``scripts/`` other than where it is defined; code that only
tests call belongs in ``tests/``.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMPUTE_MODULES = ("paths", "matrixproc", "specialfn", "series", "trees", "stats")


def _referenced_names() -> set:
    """Identifiers read, called or imported anywhere in the package and the scripts."""
    names = set()
    for path in [*(ROOT / "src" / "myproc").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", COMPUTE_MODULES)
def test_exported_names_are_used(module):
    exported = importlib.import_module(f"myproc.{module}").__all__
    unused = sorted(set(exported) - _referenced_names())
    assert not unused, f"myproc.{module} exports names only tests use: {unused}"
