#!/usr/bin/env python3
"""Count the code lines of each module in src/pocketrag, and their total.

A code line is a line that holds part of a token other than a comment, a
docstring or layout (newlines and indentation), so blank lines, comments
and docstrings do not count, and reformatting code over more or fewer lines
does. ``tokenize`` finds the tokens and ``ast`` the docstrings: the string
that opens a module, class or function body. Run from the repository root:

    python3 tools/code_lines.py [directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                value = first.value
                spans.append(((value.lineno, value.col_offset), (value.end_lineno, value.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    spans = docstring_spans(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT:
            continue
        if any(start <= token.start and token.end <= end for start, end in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else REPO / "src" / "pocketrag"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:24} {count:6}")
    print(f"{'total':24} {total:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
