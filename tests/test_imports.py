"""Every name a torelli3 module imports is used in that module, every
error it defines or raises belongs to the package's one error model, no
check is an ``assert`` that ``python -O`` would drop, every trusted
constructor names the test that proves it and every function that calls
it, every public function is
reached by the package, the acceptance gate or the bench harness, every
test oracle that the package or the README cites exists, and only the
classes the package compares by value define equality.

A deliberate re-export says so with ``# noqa: F401`` on its import.  The
scans are AST walks, but for a regular expression that finds the cited
oracles, so they need no linter.
"""

import ast
import builtins
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torelli3"
TESTS = Path(__file__).resolve().parent


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


def assert_lines(source):
    """Line of each ``assert`` statement, which ``python -O`` drops; an
    internal check raises ``InternalInconsistencyError`` instead."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_scan_flags_statements_only():
    source = (
        "def f(x):\n"
        "    assert x, 'dropped under -O'\n"
        "    if x != 1:\n"
        "        raise AssertionError('kept')\n"
        "    assert_ok = x\n"
        "    return x  # assert in a comment\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert self\n"
    )
    assert assert_lines(source) == [2, 9]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_assert_statement(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def unproved_trusted(sources, test_names):
    """(class, named tests) for each ``_trusted`` classmethod whose
    docstring names no ``test_*`` function, or one not in ``test_names``.

    A trusted constructor skips the checks of ``__init__``; the test its
    docstring names passes what it builds through those checks.
    """
    problems = []
    for tree in map(ast.parse, sources):
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if not (
                    isinstance(node, ast.FunctionDef)
                    and node.name == "_trusted"
                    and any(isinstance(d, ast.Name) and d.id == "classmethod"
                            for d in node.decorator_list)
                ):
                    continue
                named = tuple(re.findall(r"\btest_\w+", ast.get_docstring(node) or ""))
                if not named or not set(named) <= test_names:
                    problems.append((cls.name, named))
    return problems


def defined_tests(sources):
    """Names of the ``test_*`` functions the sources define."""
    return {
        node.name
        for tree in map(ast.parse, sources)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }


def test_trusted_scan_flags_missing_and_unknown_tests():
    source = (
        "class Proved:\n"
        "    @classmethod\n"
        "    def _trusted(cls, x):\n"
        "        \"\"\"Proved in ``test_proof``.\"\"\"\n"
        "class Silent:\n"
        "    @classmethod\n"
        "    def _trusted(cls, x):\n"
        "        \"\"\"No test named.\"\"\"\n"
        "class Stale:\n"
        "    @classmethod\n"
        "    def _trusted(cls, x):\n"
        "        \"\"\"See ``test_proof`` and ``test_gone``.\"\"\"\n"
        "class Plain:\n"
        "    def _trusted(self):\n"
        "        pass\n"
    )
    assert defined_tests(["def test_proof():\n    pass\n"]) == {"test_proof"}
    assert unproved_trusted([source], {"test_proof"}) == [
        ("Silent", ()),
        ("Stale", ("test_proof", "test_gone")),
    ]


def test_every_trusted_constructor_names_an_existing_test():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    tests = [path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))]
    assert unproved_trusted(sources, defined_tests(tests)) == []


def uncited_trusted_callers(sources):
    """(class, caller) for each ``X._trusted(...)`` or ``cls._trusted(...)``
    call whose enclosing function ``X._trusted``'s docstring does not
    name; ``cls`` is the enclosing class.

    A trusted constructor's docstring holds the argument for each caller,
    so a new caller without one shows here.
    """
    docs, calls = {}, []

    def visit(node, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, func)
                continue
            if isinstance(child, ast.FunctionDef):
                if child.name == "_trusted" and cls:
                    docs[cls] = ast.get_docstring(child) or ""
                visit(child, cls, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "_trusted"
                and isinstance(child.func.value, ast.Name)
            ):
                owner = child.func.value.id
                calls.append((cls if owner == "cls" else owner, func))
            visit(child, cls, func)

    for tree in map(ast.parse, sources):
        visit(tree, None, None)
    return sorted(
        {
            (owner, caller)
            for owner, caller in calls
            if caller is None or not re.search(rf"\b{re.escape(caller)}\b", docs.get(owner, ""))
        },
        key=str,
    )


def test_trusted_caller_scan_flags_uncited_callers():
    source = (
        "class A:\n"
        "    @classmethod\n"
        "    def _trusted(cls, x):\n"
        "        \"\"\"Built by ``build``, ``make`` and ``other.remote``.\"\"\"\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls._trusted(1)\n"
        "    def copy(self):\n"
        "        return A._trusted(2)\n"
        "def build():\n"
        "    return A._trusted(3)\n"
        "def rebuild():\n"
        "    def inner():\n"
        "        return A._trusted(4)\n"
        "    return inner()\n"
        "def builder():\n"
        "    return A._trusted(5)\n"
        "def stray():\n"
        "    return B._trusted(6)\n"
        "A._trusted(7)\n"
    )
    other = "def remote():\n    return A._trusted(8)\n"
    assert uncited_trusted_callers([source, other]) == [
        ("A", "builder"),
        ("A", "copy"),
        ("A", "inner"),
        ("A", None),
        ("B", "stray"),
    ]


def test_every_trusted_call_is_named_in_its_docstring():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert uncited_trusted_callers(sources) == []


def unreached_public_functions(package, readers):
    """Name of each public module function or method of the package
    sources that no package or reader source reads.

    A read is an attribute or a string constant equal to the name (the
    bench harness wraps CLI suites by name), or, for a module function
    only, a bare name: a local variable that shares a method's name does
    not read the method.  A definition is no read.
    """
    trees = [ast.parse(source) for source in package + readers]
    names, read = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = []
    for tree in trees[: len(package)]:
        bodies = [(tree.body, read | names)] + [
            (n.body, read) for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
        ]
        unread += [
            node.name
            for body, reads in bodies
            for node in body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and node.name not in reads
        ]
    return sorted(unread)


def test_reach_scan_flags_unread_functions_and_methods():
    package = (
        "def used(): pass\n"
        "def by_name(): pass\n"
        "def dead():\n"
        "    def inner(): pass\n"
        "    return used()\n"
        "def _private(): pass\n"
        "class C:\n"
        "    def method(self): pass\n"
        "    def stale(self): return self.method\n"
        "    @property\n"
        "    def shadowed(self): return 1\n"
        "def loop(pairs):\n"
        "    return [shadowed for shadowed, _ in pairs]\n"
    )
    reader = "SUITES = ['by_name']\nloop([])\n"
    assert unreached_public_functions([package], [reader]) == ["dead", "shadowed", "stale"]


# every public function is reached; an exception is named here with why
REACH_ALLOWED = set()


def test_every_public_function_is_reached():
    package = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    readers = [
        path.read_text(encoding="utf-8")
        for path in [TESTS / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    ]
    assert set(unreached_public_functions(package, readers)) == REACH_ALLOWED


def cited_oracles(texts):
    """Each name NAME that a text cites as ``oracles.NAME``."""
    return {name for text in texts for name in re.findall(r"\boracles\.(\w+)", text)}


def defined_names(source):
    """The names a module defines at its top level."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return defined


def test_citation_scan_reads_cited_and_defined_names():
    text = "see ``tests/oracles.scan_subsets`` and `oracles.gone`; not myoracles.x"
    assert cited_oracles([text]) == {"scan_subsets", "gone"}
    source = "def f():\n    def inner(): pass\nclass C: pass\nX = Y = 1\n"
    assert defined_names(source) == {"f", "C", "X", "Y"}


def test_every_cited_oracle_is_defined():
    """Each ``oracles.NAME`` that the package or the README cites is
    defined in ``tests/oracles.py``, so a moved or renamed oracle cannot
    leave a dangling citation."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    cited = cited_oracles(texts)
    assert cited
    assert cited - defined_names((TESTS / "oracles.py").read_text(encoding="utf-8")) == set()


def classes_with_equality(sources):
    """Names of the classes whose body defines or assigns ``__eq__`` or
    ``__hash__``."""
    dunders = {"__eq__", "__hash__"}

    def defines(node):
        if isinstance(node, ast.FunctionDef):
            return node.name in dunders
        if isinstance(node, ast.Assign):
            return any(isinstance(t, ast.Name) and t.id in dunders for t in node.targets)
        return False

    return {
        node.name
        for tree in map(ast.parse, sources)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(map(defines, node.body))
    }


def test_equality_scan_flags_class_level_dunders_only():
    source = (
        "class Compared:\n"
        "    def __eq__(self, other): return True\n"
        "class Hashed:\n"
        "    def __hash__(self): return 0\n"
        "class Unhashable:\n"
        "    __hash__ = None\n"
        "class Keyed:\n"
        "    def key(self): return 1\n"
        "    def build(self):\n"
        "        def __eq__(a, b): return False\n"
        "        return __eq__\n"
        "def __eq__(a, b): return a is b\n"
    )
    assert classes_with_equality([source]) == {"Compared", "Hashed", "Unhashable"}


# the package compares vectors and page tags by value; every other object
# is compared through its key(), ordered_key() or unordered_key()
EQUALITY_CLASSES = {"HVector", "GeneratorTag"}


def test_only_the_compared_classes_define_equality():
    package = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert classes_with_equality(package) == EQUALITY_CLASSES
