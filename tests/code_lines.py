"""Count the code lines of Python modules, leaving out comments, blank lines and docstrings.

A code line is a physical line that holds a token which is not a comment,
a newline, an indent or a dedent, and not part of a module, class or
function docstring.  A continuation line counts, and so does each line of
a string that is not a docstring.  It needs the standard library only:

    python tests/code_lines.py src/sfebounds

It prints one line per module, ``<module> <count>`` in name order, then
``total <count>``.  An argument is a directory, whose ``*.py`` files are
counted, or a single file.
"""

from __future__ import annotations

import ast
import io
import sys
import token
import tokenize
from pathlib import Path

_SKIPPED = {token.COMMENT, token.NEWLINE, token.NL, token.INDENT, token.DEDENT, token.ENDMARKER}
_HOLDERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The physical lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HOLDERS) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The count of code lines in ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED:
            continue
        if tok.type == token.STRING and tok.start[0] in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv:
        path = Path(arg)
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
