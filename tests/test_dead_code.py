"""No unused imports, unreferenced private helpers or unread exports in ``src/spinaep/``.

A static check with the standard library's ``ast``: every name a module
imports is read in that module, and every module-level ``_private`` function
or class is read somewhere in the package outside its own definition.
``__init__.py`` re-exports names, so its imports are exempt. Every name it
exports must be read in another module of the package, outside its own
definition, or be read by the README's "Library example" code, which is the
allowlist for names kept for library users alone. Every method and
property a class of the package defines without a leading ``_`` must be read
as an attribute in the package, outside its own definition, or by that
example code. Every public module-level function, class or constant of a
package module must be exported by ``__init__.py`` or read in the package
outside its own definition: a function such as ``interaction.energy_density``,
left in place once its one reader and its export are gone, fails.
``KEPT_PUBLIC`` holds the one exception, ``config.CONFIG_FORMAT_VERSION``,
which ``docs/config-format.md`` promises to library users. A string, a
docstring or a comment is not a read.

The method rule matches by name alone: a read of ``.n_sites`` on any object
keeps every ``n_sites`` method alive, so a member that shares its name with
a read member of another class goes unflagged. Dataclass fields are not
methods and stay out of its scope.
"""

import ast
import re
from collections import Counter
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


def readme_example_reads():
    """Every name the README's "Library example" code reads."""
    example = re.search(r"## Library example\n+```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return read_names(ast.parse(example.group(1)))


def attribute_reads(node):
    """How often each name is read as an attribute below ``node``."""
    return Counter(child.attr for child in ast.walk(node) if isinstance(child, ast.Attribute))


def test_every_export_is_read_in_the_package_or_the_readme_example():
    allowlist = readme_example_reads()
    definitions = {
        node.name: node for tree in TREES.values() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    unread = [f"__init__.py:{line} {name}" for line, name in imported_names(TREES["__init__.py"])
              if name not in allowlist and name not in read_outside(definitions.get(name), skip={"__init__.py"})]
    assert not unread, f"exported names only the tests read: {unread}"


# module-level names kept public for library users alone, as module.name
KEPT_PUBLIC = {"config.CONFIG_FORMAT_VERSION"}


def defined_names(node):
    """The names a top-level node binds: a function, a class or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_every_public_module_name_is_exported_or_read_in_the_package():
    exported = {name for _, name in imported_names(TREES["__init__.py"])}
    unread = [f"{module}:{node.lineno} {name}" for module, node, _ in NODE_READS if module != "__init__.py"
              for name in defined_names(node) if not name.startswith("_") and name not in exported
              and f"{module[:-3]}.{name}" not in KEPT_PUBLIC and name not in read_outside(node)]
    assert not unread, f"public names neither exported nor read in the package: {unread}"


def test_every_public_method_is_read_in_the_package_or_the_readme_example():
    allowlist = readme_example_reads()
    package_reads = sum((attribute_reads(tree) for tree in TREES.values()), Counter())
    methods = [
        (name, cls, node) for name, tree in TREES.items() for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    unread = [f"{name}:{node.lineno} {cls.name}.{node.name}" for name, cls, node in methods
              if node.name not in allowlist and package_reads[node.name] <= attribute_reads(node)[node.name]]
    assert not unread, f"methods and properties only the tests read: {unread}"
