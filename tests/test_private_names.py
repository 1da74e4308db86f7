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
the one refusal clause of `cli.run`.  Last, a function that no command
and no benchmark hook calls must be one listed with the ROADMAP item
that removes it: what only the tests call belongs in the tests.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from invarc import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invarc"
CHILD = ROOT / "perfbench" / "child.py"


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


# Each command on success, on a domain refusal and on a usage error (a
# verify-series argv can reach no domain refusal: its one exit 2 is a
# reference mismatch), with the exit code it must give; --help, a
# --flag=value argv and an --out argv; the subnormal and the overflowing
# circle bound of invert; and the benchmark's derive and seed-0 sweep-exact
# argv with a 200-row float grid.  "{tmp}" is a fresh directory.
_REACH_ARGV = [
    (["verify-series", "--order", "12"], 0),
    (["verify-series", "--order", "5"], 1),
    (["cfrac", "--depth", "8", "--freeze", "3/4"], 0),
    (["cfrac", "--depth", "8", "--freeze", "2/3"], 0),
    (["cfrac", "--depth", "4", "--freeze", "3/4", "--freeze-from", "5"], 2),
    (["cfrac", "--freeze-from", "2"], 1),
    (["error-table", "--lambda-min", "0.3", "--lambda-max", "0.4", "--steps", "2"], 0),
    (["error-table", "--lambda-min", "0.3", "--lambda-max", "0.9999999999999999",
      "--steps", "1"], 2),
    (["error-table", "--lambda-min", "0.5", "--lambda-max", "0.4"], 1),
    (["invert", "--perimeter", "7", "--sum", "2"], 0),
    (["invert", "--perimeter", "3", "--sum", "1"], 2),
    (["invert", "--perimeter", "1.5e-323", "--sum", "5e-324"], 2),
    (["invert", "--perimeter", "1", "--sum", "1e308"], 2),
    (["invert", "--perimeter", "7"], 1),
    (["--help"], 0),
    (["cfrac", "--depth=6"], 0),
    (["cfrac", "--depth", "6", "--out", "{tmp}/cfrac.out"], 0),
    (["verify-series", "--order", "40", "--format", "tsv"], 0),
    # the probe replays this one, the next to last, row by row
    (["error-table", "--lambda-min", "0.0008444218515250481", "--lambda-max", "0.345",
      "--steps", "1000"], 0),
    (["error-table", "--lambda-min", "0.36", "--lambda-max", "0.99", "--steps", "199"], 0),
]

# Runs the argv above in one fresh interpreter under sys.setprofile, then one
# write to /dev/full (so that cli._to_devnull runs) and the benchmark probe
# on the sweep-exact argv, and prints the package directory, the exit codes
# and the (file, first line) of every Python function that was called.
_REACH_SCRIPT = """
import io, json, os, runpy, sys, tempfile

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(profile)
import invarc.cli

child, cases = sys.argv[1], json.loads(sys.argv[2])
codes = []
with tempfile.TemporaryDirectory() as tmp:
    for argv, _ in cases:
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        codes.append(invarc.cli.run([arg.replace("{tmp}", tmp) for arg in argv]))
    with open("/dev/full", "w") as full:
        sys.stdout = full
        codes.append(invarc.cli.run(["invert", "--perimeter", "7", "--sum", "2"]))
    sys.stdout = io.StringIO()
    codes.append(runpy.run_path(child)["_probe"](os.path.join(tmp, "probe"), cases[-2][0]))
sys.setprofile(None)
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
package = os.path.dirname(invarc.cli.__file__)
called = [(os.path.relpath(f, package), line) for f, line in called
          if os.path.dirname(f) == package]
print(json.dumps({"package": package, "codes": codes, "called": called}))
"""

# What no command runs, each with the ROADMAP item that removes it.  The
# benchmark's tracer reads compose, divide, sqrt, revert, h_of and
# perimeter_agm by name; the four helpers after them serve only those.
_UNREACHED = {
    "series.PowerSeries.compose": "item 24, after item 6",
    "series.PowerSeries.divide": "item 24, after item 6",
    "series.PowerSeries.sqrt": "item 24, after item 6",
    "series.PowerSeries.revert": "item 24, after item 6",
    "series.PowerSeries.zero": "item 24, after item 6",
    "series.PowerSeries.monomial": "item 24, after item 6",
    "series.PowerSeries.truncate": "item 24, after item 6",
    "series.PowerSeries.valuation": "item 24, after item 6",
    "numeric.h_of": "items 9 and 23",
    "numeric.perimeter_agm": "items 9 and 23",
    "numeric.lambda_of": "item 23",
    "numeric.perimeter_series": "item 23",
}


def _functions(package: Path) -> dict[str, tuple[str, set[int]]]:
    """Each function defined in the package, by module.Class.name, with its
    file and the lines its code may give as the first: the def line and,
    for a decorated function, each decorator's."""
    found = {}

    def visit(node, prefix, file):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, *_FUNCTIONS)):
                if isinstance(child, _FUNCTIONS):
                    lines = {child.lineno, *(d.lineno for d in child.decorator_list)}
                    found[prefix + child.name] = (file, lines)
                visit(child, f"{prefix}{child.name}.", file)
            else:
                visit(child, prefix, file)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.", path.name)
    return found


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_every_function_is_reached_by_a_command_or_a_benchmark_hook():
    # run whichever invarc this process imports, as the cold-start tests do
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _REACH_SCRIPT, str(CHILD), json.dumps(_REACH_ARGV)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [code for _, code in _REACH_ARGV] + [2, 0]
    called = {tuple(pair) for pair in report["called"]}
    unreached = [
        name
        for name, (file, lines) in _functions(Path(report["package"])).items()
        if not re.fullmatch(r"__\w+__", name.rpartition(".")[2])
        and not any((file, line) in called for line in lines)
    ]
    unlisted = [name for name in unreached if name not in _UNREACHED]
    stale = [name for name in _UNREACHED if name not in unreached]
    assert (unlisted, stale) == ([], [])
