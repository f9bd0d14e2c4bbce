"""Every name a torelli3 module imports is used in that module.

A deliberate re-export says so with ``# noqa: F401`` on its import.  The
scan is an AST walk, so it needs no linter.
"""

import ast
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
