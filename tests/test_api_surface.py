"""Every exported name of the compute modules, and every module-level function,
class and assigned name of the package, is used by the program itself.

A name in the ``__all__`` of a compute module must be referenced somewhere in
``src/myproc`` or ``scripts/`` other than where it is defined, and so must every
module-level function, class and non-dunder assignment, private ones included;
code that only tests call belongs in ``tests/``.
"""

import ast
import importlib
from collections import Counter
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


def _name_counts(tree: ast.AST) -> Counter:
    """How often each identifier is read, called or imported in tree."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _defined_names(node: ast.stmt) -> list:
    """The module-level names a statement defines: a function, a class, or the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and not n.id.startswith("__")]


def test_every_definition_is_referenced():
    # a helper or constant that a refactor leaves behind is referenced only inside its own
    # definition, if at all; dunders such as __all__ are read by Python itself
    modules = {path.stem: ast.parse(path.read_text()) for path in (ROOT / "src" / "myproc").glob("*.py")}
    package = sum((_name_counts(tree) for tree in modules.values()), Counter())
    dead = sorted(f"{module}.{name}" for module, tree in modules.items() for node in tree.body
                  for name in _defined_names(node) if package[name] == _name_counts(node)[name])
    assert not dead, f"module-level definitions the package never references: {dead}"


def _internal_imports(module: str) -> set:
    """(source module, name) for every package-internal ImportFrom of a module, lazy ones included."""
    out = set()
    for node in ast.walk(ast.parse((ROOT / "src" / "myproc" / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "myproc"):
            source = (node.module or "").removeprefix("myproc").lstrip(".")
            out.update((source or alias.name, alias.name) for alias in node.names)
    return out


def test_compute_module_layering():
    # specialfn, stats and trees stand alone; each other compute module reads one below it
    imports = {module: _internal_imports(module) for module in COMPUTE_MODULES}
    assert {module: {source for source, _ in pairs} for module, pairs in imports.items()} == {
        "paths": {"specialfn"}, "matrixproc": {"paths"}, "series": {"specialfn"},
        "specialfn": set(), "stats": set(), "trees": set(),
    }
    private = {(module, source, name) for module, pairs in imports.items() for source, name in pairs
               if name.startswith("_")}
    assert private == {("paths", "specialfn", "_scaled_macdonald_integral")}
