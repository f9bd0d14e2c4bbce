"""List each ``raise`` line of ``src/torelli3`` that tier-1 never runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` line
recorder limited to the package's files, then prints ``file:line`` for
each raise statement whose line never ran.  It exits 1 when it lists
one, 0 otherwise; pytest's own exit code is printed, not passed on.
Beside pytest, which it runs, it needs only the standard library.  It
is not a test module, so tier-1 does not collect it:

    python3 tests/run_reach.py            # the whole of tier-1
    python3 tests/run_reach.py -k d22     # extra arguments go to pytest

Tracing makes tier-1 three to four times slower.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "torelli3"


def raise_lines(source):
    """Line numbers of the raise statements of a module's source."""
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise))


class LineRecorder:
    """Records, per file, the lines run in files whose name starts with
    ``prefix``, while it is entered; frames elsewhere are not traced.
    On exit it puts back the tracer it found, so one can run inside
    another."""

    def __init__(self, prefix):
        self.prefix = str(prefix)
        self.lines = {}

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        seen = self.lines.setdefault(name, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        self.outer = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self.outer)


def unreached(recorder, files):
    """(file, line) of each raise line of ``files`` that never ran."""
    return [
        (path, line)
        for path in files
        for line in raise_lines(path.read_text())
        if line not in recorder.lines.get(str(path), ())
    ]


def main(argv):
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    with LineRecorder(PACKAGE) as recorder:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    missed = unreached(recorder, sorted(PACKAGE.glob("*.py")))
    print(f"pytest exit code {int(status)}")
    for path, line in missed:
        print(f"{path.relative_to(ROOT)}:{line}: raise never ran")
    print(f"{len(missed)} raise lines never ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
