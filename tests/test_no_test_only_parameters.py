"""Every optional parameter of the package is passed by some caller in it.

A function or method of ``src/kronecker`` that is called in the package
must have each of its optional parameters passed, by keyword or by
position, by at least one of those calls; a parameter that only the tests
set is a constant in disguise.  Calls are matched by name, as in
``test_no_dead_code``: a function by its own name, a constructor by its
class name, a method by its name at any ``obj.name(...)``.  A function
that the package never calls by name is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kronecker"


def _trees():
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _optional_parameters(func, bound):
    """(position or None, name) of each parameter with a default; the
    position counts from the first argument a caller writes, so ``self`` of
    a method (``bound``) is not counted."""
    args = func.args
    positional = args.posonlyargs + args.args
    skip = 1 if bound else 0
    first_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i >= first_default:
            yield i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _definitions(tree):
    """(called name, function node, bound?) of every function and method;
    a method is bound to its first parameter, and ``__init__`` is called by
    its class name."""
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods.add(item)
                    name = node.name if item.name == "__init__" else item.name
                    yield name, item, True
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node not in methods:
            yield node.name, node, False


def _calls(trees):
    """name -> list of calls to it in the package."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                out.setdefault(node.func.id, []).append(node)
            elif isinstance(node.func, ast.Attribute):
                out.setdefault(node.func.attr, []).append(node)
    return out


def _passes(call, position, name):
    """Whether ``call`` may pass the parameter; a ``*args`` or ``**kwargs``
    argument may pass any."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    for kw in call.keywords:
        if kw.arg is None or kw.arg == name:
            return True
    return position is not None and position < len(call.args)


def test_every_optional_parameter_is_passed_by_the_package():
    trees = _trees()
    calls = _calls(trees)
    unpassed = []
    for path, tree in trees.items():
        for called, func, bound in _definitions(tree):
            sites = calls.get(called)
            if not sites:
                continue
            for position, name in _optional_parameters(func, bound):
                if not any(_passes(c, position, name) for c in sites):
                    unpassed.append(f"{path.name}:{func.lineno} {called}({name})")
    assert not unpassed, "optional parameters no call in src/ passes: " + ", ".join(
        unpassed
    )
