"""Every walkthrough in ``demos/`` runs to the end against the source tree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def repo_files() -> set[Path]:
    return {path for path in REPO.rglob("*") if ".git" not in path.relative_to(REPO).parts}


def test_every_demo_exits_0_and_writes_nothing(tmp_path):
    demos = sorted((REPO / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
    before = repo_files()
    for demo in demos:
        done = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, f"{demo.name} exited {done.returncode}:\n{done.stderr}"
    assert repo_files() == before
    assert list(tmp_path.iterdir()) == []
