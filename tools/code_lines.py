"""Count the code lines of a Python package: comments, docstrings and blank lines left out.

A line counts when it holds a token other than a comment or a line break and
lies outside every docstring (a module's, class's or function's first
statement when it is a string).  A statement spread over several lines counts
each of them.

    python3 tools/code_lines.py            # src/jchsim, per module and in total
    python3 tools/code_lines.py some/pkg
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers every docstring of ``tree`` spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode("utf-8")).readline):
        if token.type not in _SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1] / "src" / "jchsim"
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(root.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:12} {count:5}")
    print(f"{'total':12} {sum(counts.values()):5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
