"""The raise-line collector of ``tests/run_reach.py`` on a small source:
it must list a raise that never ran and leave out one that did."""

import pytest

from run_reach import LineRecorder, raise_lines, unreached

SOURCE = (
    "def check(n):\n"
    "    if n < 0:\n"
    "        raise ValueError('negative')\n"
    "    if n > 9:\n"
    "        raise ValueError(\n"
    "            'large'\n"
    "        )\n"
    "    return n\n"
)


def test_reach_runner_lists_the_raise_that_never_ran(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(SOURCE)
    assert raise_lines(SOURCE) == [3, 5]
    namespace = {}
    with LineRecorder(tmp_path) as recorder:
        exec(compile(SOURCE, str(path), "exec"), namespace)
        assert namespace["check"](4) == 4
        with pytest.raises(ValueError, match="negative"):
            namespace["check"](-1)
    assert 3 in recorder.lines[str(path)]
    assert unreached(recorder, [path]) == [(path, 5)]
