"""Count the code lines of Python files: no blank lines, comments or docstrings.

Usage: python tools/code_lines.py PATH...

Each PATH is a ``.py`` file or a directory searched recursively.  Prints one
line per file, then the total.  A line counts when some token other than a
comment or a docstring lies on it; a token spanning several lines, such as
a multi-line string that is not a docstring, counts every line it spans.  A
reader that closes the pipe early, as ``| head`` does, ends the run quietly.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The start positions of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _files(paths: list[str]) -> list[Path]:
    out = []
    for p in map(Path, paths):
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in _files(argv):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early, as ``| head`` does; point stdout at the
        # null device so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
