#!/usr/bin/env python3
"""Count the code lines of each module in src/pocketrag, and their total.

A code line is a line that holds part of a token other than a comment, a
docstring or layout (newlines and indentation), so blank lines, comments
and docstrings do not count, and reformatting code over more or fewer lines
does. ``tokenize`` finds the tokens and ``ast`` the docstrings: the string
that opens a module, class or function body. Run from the repository root:

    python3 tools/code_lines.py [--rev REV] [directory]

With ``--rev`` the table counts the modules as they are at the git revision
REV (read with ``git show REV:path`` from the local repository), and adds
each module's count in the working tree and its change since REV.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(root), *args], check=True, capture_output=True, text=True
    ).stdout


def _modules_at(root: Path, rev: str) -> dict[str, str]:
    """The source of each ``*.py`` file in ``root`` at git revision ``rev``."""
    names = _git(root, "ls-tree", "--name-only", rev, ".").splitlines()
    return {
        name: _git(root, "show", f"{rev}:./{name}") for name in names if name.endswith(".py")
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of each module.")
    parser.add_argument("--rev", help="count the modules at this git revision")
    parser.add_argument("directory", nargs="?", default=REPO / "src" / "pocketrag", type=Path)
    args = parser.parse_args(argv)
    now = {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(args.directory.glob("*.py"))
    }
    if args.rev is None:
        for name, count in now.items():
            print(f"{name:24} {count:6}")
        print(f"{'total':24} {sum(now.values()):6}")
        return 0
    then = {
        name: code_lines(source)
        for name, source in _modules_at(args.directory, args.rev).items()
    }
    print(f"{'module':24} {args.rev[:12]:>12} {'now':>6} {'change':>6}")
    for name in sorted(then.keys() | now.keys()):
        old, new = then.get(name, 0), now.get(name, 0)
        print(f"{name:24} {old:12} {new:6} {new - old:+6}")
    old, new = sum(then.values()), sum(now.values())
    print(f"{'total':24} {old:12} {new:6} {new - old:+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
