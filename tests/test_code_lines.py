"""``tools/code_lines.py``: docstrings, comments and blank lines do not count."""

from __future__ import annotations

import importlib.util
import subprocess
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


def test_rev_counts_the_modules_at_a_revision_and_their_change(tmp_path, capsys):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), *args], check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    git("add", ".")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "first")
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "c.py").write_text("z = 3\n")
    git("add", ".")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "second")
    (tmp_path / "a.py").unlink()
    assert code_lines.main(["--rev", "HEAD~1", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [
        "module", "HEAD~1", "now", "change",
        "a.py", "8", "0", "-8",
        "b.py", "1", "2", "+1",
        "c.py", "0", "1", "+1",
        "total", "9", "3", "-6",
    ]
