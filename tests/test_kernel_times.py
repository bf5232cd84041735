"""``tools/kernel_times.py``: the in-process kernel table still runs."""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "kernel_times.py"


def test_kernel_times_prints_a_row_of_each_kind(monkeypatch, capsys):
    # the tool pins BLAS threads with ``os.environ.setdefault`` on import;
    # keep that from outliving the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    spec = importlib.util.spec_from_file_location("kernel_times", TOOL)
    kernel_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel_times)
    assert kernel_times.main(["--sizes", "14", "--repeats", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["rows", "n"]
    assert [row.split()[:2] for row in rows] == [["hashed", "14"], ["dense", "14"]]
    for row in rows:
        assert all(float(value) > 0 for value in row.split()[2:])
