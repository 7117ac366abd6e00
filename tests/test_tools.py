"""The tools under tools/: the code-line counter that ROADMAP.md and CHANGES.md quote, the
benchmark pair summary and the untested-statement lister."""

from __future__ import annotations

import importlib.util
import sys
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


_pairs_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_pairs_spec)
_pairs_spec.loader.exec_module(bench_pairs)


def _canned(run_s: float, traj_per_s: float, failed: int = 0) -> dict:
    """One perfbench result with one workload, as run.py's last line gives it."""
    metrics = {"run_s": {"value": run_s, "unit": "s"},
               "traj_per_s": {"value": traj_per_s, "unit": "1/s"}}
    return {"correct": failed == 0,
            "workloads": {"w": {"correct": failed == 0, "attempted": 10, "failed": failed,
                                "metrics": metrics}}}


def test_pair_summary_on_canned_results():
    # five pairs: run_s is lower is better, traj_per_s higher is better
    parent = [_canned(r, t) for r, t in ((1.0, 10.0), (2.0, 20.0), (3.0, 30.0),
                                         (4.0, 40.0), (5.0, 50.0))]
    change = [_canned(r, t, f) for r, t, f in ((0.5, 11.0, 0), (2.5, 19.0, 0), (2.0, 31.0, 0),
                                               (3.0, 41.0, 2), (4.0, 40.0, 0))]
    spec = [{"name": "run_s", "better": "lower"}, {"name": "traj_per_s", "better": "higher"}]
    summary = bench_pairs.summarize(parent, change, spec)
    entry = summary["w"]
    # inclusive quartiles of 1..5: 2, 3, 4; of 0.5, 2, 2.5, 3, 4: 2, 2.5, 3
    assert entry["run_s"]["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert entry["run_s"]["change"] == {"median": 2.5, "q1": 2.0, "q3": 3.0}
    assert entry["run_s"]["change_better_pairs"] == 4
    assert entry["traj_per_s"]["change_better_pairs"] == 3
    assert entry["failed"] == {"parent": 0, "change": 2}
    assert entry["correct"] == {"parent": True, "change": False}
    assert list(summary) == ["w"]


_lines_spec = importlib.util.spec_from_file_location("untested_lines",
                                                     ROOT / "tools" / "untested_lines.py")
untested_lines = importlib.util.module_from_spec(_lines_spec)
_lines_spec.loader.exec_module(untested_lines)

# a package of two functions: the script calls one on both of its paths and
# never the other, whose body holds a two-line statement
FIXTURE_MODULE = '''\
"""The fixture's module docstring."""


def called(x):
    """Reached on both paths."""
    if x > 0:
        return x
    return -x


def never(x):
    """Defined, never called."""
    y = (x
         + 1)
    return y
'''
FIXTURE_SCRIPT = "import sys\nfrom tracedpkg.mod import called\ncalled(2)\nsys.exit(called(-3))\n"


def test_untested_lines_lists_the_uncalled_body(tmp_path, capsys, monkeypatch):
    package = tmp_path / "tracedpkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE_MODULE)
    script = tmp_path / "run.py"
    script.write_text(FIXTURE_SCRIPT)
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        # the command's exit status is the tool's
        assert untested_lines.main(["--package", str(package), str(script)]) == 3
    finally:
        for name in ("tracedpkg.mod", "tracedpkg"):
            sys.modules.pop(name, None)
    mod = package / "mod.py"
    assert capsys.readouterr().out.splitlines() == [
        f"{mod}:13: y = (x", f"{mod}:15: return y", "statements never executed: 2"]
