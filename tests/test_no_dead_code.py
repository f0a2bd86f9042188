"""Every module-level function and class of the package has a caller.

A definition counts as used when its name appears as a ``Name``, as the
attribute of an ``Attribute`` or in an import, in the package, the tests or
the benchmark, outside its own definition.  Names in strings and docstrings
do not count.

Every name a module of the package imports is referenced in that module,
as a ``Name`` or in its ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kronecker"
SEARCHED = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _definitions(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def _references():
    """name -> set of (file, top-level definition name or None) it is
    referenced from."""
    refs = {}
    for top in SEARCHED:
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in tree.body:
                owner = getattr(node, "name", None)  # a def or class
                for name in _referenced_names(node):
                    refs.setdefault(name, set()).add((path, owner))
    return refs


def test_every_module_level_definition_is_referenced():
    refs = _references()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _definitions(tree):
            outside = refs.get(node.name, set()) - {(path, node.name)}
            if not outside:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "no reference outside their own definition: " + ", ".join(
        unused
    )


def _imported_names(tree):
    """(line, name) of every name a module binds by an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".", 1)[0]
                yield node.lineno, name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _exported_names(tree):
    """The strings listed in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        } | _exported_names(tree)
        unused.extend(
            f"{path.name}:{line} {name}"
            for line, name in _imported_names(tree)
            if name not in used
        )
    assert not unused, "imported but never referenced: " + ", ".join(unused)
