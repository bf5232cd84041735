"""Smoke test for the benchmark: each workload once, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [workload["name"] for workload in SPEC["workloads"]]


def test_spec_matches_the_metrics_the_runner_defines():
    assert NAMES == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted(name, trace):
    record = run.run(name, seed=3, seconds=0, trace=trace, tiny=True, out_dir=None)
    assert record["failed"] == 0, record["errors"]
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(record["metrics"]) == expected
    assert all(isinstance(value, float) for value in record["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_a_wrong_planner_pick_fails_ops(name, monkeypatch):
    monkeypatch.setattr(
        workloads.RenderingPlanner,
        "pick_app",
        lambda self, query, candidates: candidates[-1].package_id,
    )
    record = run.run(name, seed=3, seconds=0, trace=False, tiny=True, out_dir=None)
    assert record["failed"] > 0
    assert record["metrics"]["ok_ratio"] < 1.0
