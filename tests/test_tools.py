"""The code-line counter that ROADMAP.md and CHANGES.md quote (tools/code_lines.py)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# a module, a class and a function docstring, a comment-only line, blank lines,
# a three-line statement and a string that is not a docstring
SNIPPET = '''\
"""The module's docstring,
over two lines."""
import math

# a comment on a line of its own


class Box:
    """The class's docstring."""

    side = 2.0


def volume(box):
    """The function's docstring."""
    total = (box.side
             * box.side
             * box.side)
    "a string statement that is not the first: code"
    return math.fabs(total)  # a trailing comment
'''
# code: import (3), class (8), side (11), def (14), the statement (16-18), the
# string (19) and return (20)
SNIPPET_CODE_LINES = 9


def test_snippet_counts_by_hand():
    assert code_lines.code_lines(SNIPPET) == SNIPPET_CODE_LINES


def test_package_total_is_the_sum_of_its_modules(capsys):
    package = ROOT / "src" / "jchsim"
    assert code_lines.main(["code_lines.py", str(package)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    *modules, (label, total) = rows
    assert label == "total"
    assert [name for name, _ in modules] == sorted(path.stem for path in package.glob("*.py"))
    assert int(total) == sum(int(count) for _, count in modules)
    for name, count in modules:
        source = (package / f"{name}.py").read_text(encoding="utf-8")
        assert int(count) == code_lines.code_lines(source), name
