"""List the statements of a Python package that a command never executes.

    PYTHONPATH=src python3 tools/untested_lines.py -m pytest -q tests
    python3 tools/untested_lines.py --package some/pkg script.py arg ...

The command runs in this process, as ``python -m module ...`` or ``python
script.py ...`` would, under ``sys.settrace`` and ``threading.settrace``;
the package defaults to src/jchsim.  Each statement of the package that no
traced line reached is printed as ``path:line: source``, then their count.
A compound statement counts its header (``if``, ``for``, ``def`` ... up to
its body), a ``try`` nothing of its own, and docstrings are left out as
``tools/code_lines.py`` leaves them out.

Two caveats.  Subprocesses are not traced: a test that runs the program in
a subprocess reaches nothing here.  The tracer slows every call and
allocates for it, so tests that bound time or allocation can fail under
it: ``test_basis_peak_stays_under_its_count[6-2]`` read 45 936 B against
its 42 352 B bound.  The exit status is the command's.
"""

from __future__ import annotations

import ast
import importlib.util
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def statement_spans(source: str) -> list:
    """``(first line, lines)`` of each statement of ``source`` outside its
    docstrings: the lines a traced run of the statement reports."""
    tree = ast.parse(source)
    skipped = code_lines.docstring_lines(tree)
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node.lineno in skipped:
            continue
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans.append((node.lineno, set(range(first, last + 1))))
    return sorted(spans, key=lambda span: span[0])


def run_traced(files: set, argv: list) -> tuple:
    """Run ``argv`` (``-m module args`` or ``script args``) under the tracer:
    its exit status and, per file of ``files``, the line numbers reached."""
    reached = {path: set() for path in files}
    resolved: dict = {}          # a code object's file name -> its resolved path

    def local(frame, event, arg):
        if event == "line":
            reached[resolved[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            resolved[name] = str(Path(name).resolve())
        return local if resolved[name] in reached else None

    saved = sys.argv, sys.gettrace(), threading.gettrace()
    sys.argv = argv[1:] if argv[0] == "-m" else list(argv)
    threading.settrace(start)
    sys.settrace(start)
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.settrace(saved[1])
        threading.settrace(saved[2])
        sys.argv = saved[0]
    return status, reached


def main(argv: list) -> int:
    package = ROOT / "src" / "jchsim"
    if argv[:1] == ["--package"] and len(argv) > 2:
        package, argv = Path(argv[1]), argv[2:]
    if not argv or argv[0] == "--package" or argv == ["-m"]:
        print(__doc__, file=sys.stderr)
        return 2
    files = {str(path.resolve()): path for path in sorted(package.glob("*.py"))}
    status, reached = run_traced(set(files), argv)
    missed = 0
    for name, path in files.items():
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, span in statement_spans("\n".join(lines)):
            if not span & reached[name]:
                missed += 1
                print(f"{path}:{first}: {lines[first - 1].strip()}")
    print(f"statements never executed: {missed}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
