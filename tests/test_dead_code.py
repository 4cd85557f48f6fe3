"""No unused imports and no unreferenced private helpers in ``src/spinaep/``.

A static check with the standard library's ``ast``: every name a module
imports is read in that module, and every module-level ``_private`` function
or class is read somewhere in the package outside its own definition.
``__init__.py`` re-exports names, so its imports are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinaep"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def read_names(node):
    """Every name read as a variable or as an attribute below ``node``."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_import_is_used():
    unused = []
    for name, tree in TREES.items():
        if name != "__init__.py":
            read = read_names(tree)
            unused += [f"{name}:{line} {imported}" for line, imported in imported_names(tree)
                       if imported not in read]
    assert not unused, f"imported but never read: {unused}"


def test_every_private_helper_is_referenced():
    helpers = [
        (name, node) for name, tree in TREES.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    unreferenced = []
    for name, helper in helpers:
        read = set().union(*(
            read_names(node) for tree in TREES.values() for node in tree.body if node is not helper
        ))
        if helper.name not in read:
            unreferenced.append(f"{name}:{helper.lineno} {helper.name}")
    assert not unreferenced, f"private helpers nothing reads: {unreferenced}"
