"""``tools/code_lines.py``: docstrings, comments and blank lines do not count."""

from __future__ import annotations

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a comment after code

# a comment line
def f(x):
    """A function docstring."""
    text = """a string over two lines
    is code"""
    return (x +
            1)


class C:
    """A class docstring."""

    y = "a string after the docstring is code"
'''


def test_only_code_lines_count():
    # import, def, the two lines of text, the two of return, class, y
    assert code_lines.code_lines(SAMPLE) == 8
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "8", "b.py", "1", "total", "9"]
