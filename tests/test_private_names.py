"""Every module-level private name and every import in the package is used.

A helper that loses its last caller in a refactor stays importable and
passes every test; this guard lists the `_name` functions, classes and
assignments at the top level of each module under src/invarc and asserts
that the package refers to each one somewhere besides its definition.
Likewise each name a module imports must be read in that module, and
each name a function imports must be read in that function, so neither
a dead import nor a re-export layer can come back, and each layer raises
one error type, so an exception subclass must be one that some `except`
clause tells apart, and every type but the usage error must fall under
the one refusal clause of `cli.run`.
"""

import ast
import importlib
from pathlib import Path

from invarc import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "invarc"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if _is_private(name)]


def _references(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name)
    return names


def test_every_private_module_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    defined = [(module, name) for module, tree in trees.items() for name in _definitions(tree)]
    assert defined, "no private names found: the package path is wrong"
    unused = [f"{module}: {name}" for module, name in defined if name not in used]
    assert unused == []


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports(scope) -> list[str]:
    """Names imported in the body of a module or function, outside any
    function nested in it."""
    names = []
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTIONS):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_import_is_used_in_its_module():
    # a module-level import must be read somewhere in the module, and one
    # inside a function within that same function, so a dead function-local
    # import fails even when its name is read elsewhere
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))]:
            loaded = {
                node.id
                for statement in scope.body
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            where = f"{path.name}: {getattr(scope, 'name', '<module>')}"
            unused += [f"{where}: {name}" for name in _imports(scope) if name not in loaded]
    assert unused == []


def _exception_classes() -> list[type]:
    """Every exception class defined in a module under src/invarc."""
    errors = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"invarc.{path.stem}")
        errors += [
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and issubclass(value, BaseException)
            and value.__module__ == module.__name__
        ]
    assert errors, "no exception classes found: the package path is wrong"
    return errors


def test_every_exception_subclass_is_caught_somewhere():
    # a layer's base derives from a builtin exception and carries the
    # refusal in its message; a subclass of it only earns its place when a
    # caller catches it by name
    caught = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    uncaught = [
        f"{cls.__module__}.{cls.__name__}"
        for cls in _exception_classes()
        if any(base.__module__ != "builtins" for base in cls.__bases__)
        and cls.__name__ not in caught
    ]
    assert uncaught == []


def test_every_refusal_type_is_one_that_run_catches():
    # cli.run maps a refusal to exit 2 by one clause, except (ArithmeticError,
    # ValueError), that names no layer's type; a layer error type outside
    # both would escape it as a traceback
    outside = [
        f"{cls.__module__}.{cls.__name__}"
        for cls in _exception_classes()
        if cls is not cli.UsageError and not issubclass(cls, (ArithmeticError, ValueError))
    ]
    assert outside == []
