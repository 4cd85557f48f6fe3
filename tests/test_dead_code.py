"""No unused imports, unreferenced private helpers or unread exports in ``src/spinaep/``.

A static check with the standard library's ``ast``: every name a module
imports is read in that module, and every module-level ``_private`` function
or class is read somewhere in the package outside its own definition.
``__init__.py`` re-exports names, so its imports are exempt. Every name it
exports must be read in another module of the package, outside its own
definition, or be read by the README's "Library example" code, which is the
allowlist for names kept for library users alone. A string, a docstring or
a comment is not a read.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinaep"
README = PACKAGE.parents[1] / "README.md"
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


# (module, top-level node, names read below it) for every top-level node of the package
NODE_READS = [(name, node, read_names(node)) for name, tree in TREES.items() for node in tree.body]


def read_outside(definition, skip=()):
    """Every name the package reads outside the top-level node ``definition`` and the modules ``skip``."""
    return set().union(*(read for name, node, read in NODE_READS if node is not definition and name not in skip))


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
    unreferenced = [f"{name}:{helper.lineno} {helper.name}" for name, helper in helpers
                    if helper.name not in read_outside(helper)]
    assert not unreferenced, f"private helpers nothing reads: {unreferenced}"


def test_every_export_is_read_in_the_package_or_the_readme_example():
    example = re.search(r"## Library example\n+```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    allowlist = read_names(ast.parse(example.group(1)))
    definitions = {
        node.name: node for tree in TREES.values() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    unread = [f"__init__.py:{line} {name}" for line, name in imported_names(TREES["__init__.py"])
              if name not in allowlist and name not in read_outside(definitions.get(name), skip={"__init__.py"})]
    assert not unread, f"exported names only the tests read: {unread}"
