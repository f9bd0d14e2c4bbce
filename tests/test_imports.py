"""Every name a torelli3 module imports is used in that module, and every
error it defines or raises belongs to the package's one error model.

A deliberate re-export says so with ``# noqa: F401`` on its import.  The
scans are AST walks, so they need no linter.
"""

import ast
import builtins
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "torelli3"


def unused_imports(source):
    """(name, line) for each imported name the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported.append(((alias.asname or alias.name).split(".")[0], alias.lineno))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported if name not in used]


def test_scan_flags_unused_and_honours_noqa():
    # as in flake8, a noqa on any line of a statement covers the statement
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from math import gcd, lcm\n"
        "from json import dumps  # noqa: F401  re-exported\n"
        "from itertools import (\n"
        "    chain,  # noqa: F401\n"
        "    product,\n"
        ")\n"
        "def f(a):\n"
        "    import sys\n"
        "    return gcd(a, 2) + len(os.sep)\n"
    )
    assert unused_imports(source) == [("osp", 2), ("lcm", 3), ("sys", 10)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def error_model_problems(sources):
    """(kind, name) for each break of the one-base error model.

    An exception class is a class whose bases reach a builtin exception;
    each must reach ``Torelli3Error``.  Each ``raise Name(...)`` must name
    one of them.  A qualified raise such as ``argparse.ArgumentTypeError``
    in ``cli._mn``, which argparse turns into its own usage message, is
    not a ``Name`` and is not scanned.
    """
    trees = [ast.parse(source) for source in sources]
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def ancestors(name):
        seen, stack = set(), [name]
        while stack:
            for base in bases.get(stack.pop(), ()):
                if base not in seen:
                    seen.add(base)
                    stack.append(base)
        return seen

    def builtin_exception(name):
        kind = getattr(builtins, name, None)
        return isinstance(kind, type) and issubclass(kind, BaseException)

    errors = {name for name in bases if any(map(builtin_exception, ancestors(name)))}
    problems = [
        ("class", name)
        for name in sorted(errors)
        if name != "Torelli3Error" and "Torelli3Error" not in ancestors(name)
    ]
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name) and target.id not in errors:
                    problems.append(("raise", target.id))
    return problems


def test_error_scan_flags_foreign_classes_and_raises():
    source = (
        "import argparse\n"
        "class Torelli3Error(Exception): pass\n"
        "class UsageError(Torelli3Error, ValueError): pass\n"
        "class StrayError(ValueError): pass\n"
        "class Plain: pass\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise UsageError('fine')\n"
        "    try:\n"
        "        raise argparse.ArgumentTypeError('exempt')\n"
        "    except KeyError:\n"
        "        raise\n"
        "    raise ValueError('foreign')\n"
        "def g():\n"
        "    raise KeyError\n"
    )
    assert error_model_problems([source]) == [
        ("class", "StrayError"),
        ("raise", "ValueError"),
        ("raise", "KeyError"),
    ]


def test_every_error_derives_from_the_package_base():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert error_model_problems(sources) == []
