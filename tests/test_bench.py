"""Pack loading, validation, suite execution, report reproducibility."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from pocketrag.bench import (
    BenchmarkTask,
    compute_stats,
    load_benchmark,
    load_pack,
    read_run_log,
    run_benchmark,
    validate_pack,
)
from pocketrag.errors import (
    DanglingScenarioRefError,
    InvalidGroundTruthError,
    ManifestError,
)
from pocketrag.metrics import compute_metrics

from conftest import ALARM_SCRIPT, PACK_DIR, mini_scenario_dict


def test_load_desk_pack_stats_match_manifest():
    tasks, stats = load_benchmark(PACK_DIR)
    manifest = json.loads((Path(PACK_DIR) / "manifest.json").read_text())
    assert stats.to_dict() == manifest["stats"]
    assert stats.tasks == len(tasks)
    assert stats.avg_ops * stats.tasks == pytest.approx(stats.total_ops, abs=1e-9)


def test_desk_pack_tier_composition():
    tasks, stats = load_benchmark(PACK_DIR)
    tiers = {t.task_id: t.tier for t in tasks}
    assert stats.multi_app_tasks == sum(1 for t in tiers.values() if t == "multi_app")
    assert stats.no_app_tasks == sum(1 for t in tiers.values() if t == "open_scenario")
    assert stats.tasks >= 15
    assert stats.apps >= 12


def test_stats_arithmetic_example():
    # four tasks with expected-action lengths 3, 5, 4, 8 -> 20 total, 5.0 avg
    lengths = [3, 5, 4, 8]
    tasks = []
    for i, n in enumerate(lengths):
        tasks.append(
            BenchmarkTask.from_dict(
                {
                    "task_id": f"t{i}",
                    "instruction": "do something",
                    "tier": "atomic",
                    "scenario": "mini",
                    "ground_truth": {
                        "expected_apps": [],
                        "expected_actions": [{"kind": "stop"}] * n,
                        "sub_goals": [{"name": "s", "kind": "screen", "screen": "home"}],
                    },
                }
            )
        )
    stats = compute_stats(tasks, {})
    assert stats.total_ops == 20
    assert stats.avg_ops == pytest.approx(5.0)


def write_mini_pack(root: Path, mutate=None) -> Path:
    """A minimal loadable pack built around the shared mini scenario."""
    pack = root / "minipack"
    (pack / "scenarios").mkdir(parents=True)
    (pack / "tasks").mkdir()
    scenario = mini_scenario_dict()
    task = {
        "task_id": "alarm",
        "instruction": "Set an alarm for 8 am.",
        "tier": "atomic",
        "scenario": "mini",
        "ground_truth": {
            "expected_apps": ["com.clock"],
            "expected_actions": [
                {"kind": "launch", "target": "com.clock"},
                {"kind": "tap", "target": "alarms_tab"},
                {"kind": "type", "target": "time_field"},
                {"kind": "tap", "target": "save_alarm"},
                {"kind": "stop"},
            ],
            "sub_goals": [
                {"name": "alarm set", "kind": "flag", "flag": "alarm_set", "equals": "08:00"},
            ],
        },
        "script": ALARM_SCRIPT,
    }
    manifest = {
        "name": "minipack",
        "scenarios": ["scenarios/mini.json"],
        "tasks": ["tasks/alarm.json"],
        "suites": {"default": ["alarm"], "repeat": ["alarm", "alarm"]},
        "agent_config": {"tau_local": 0.3},
    }
    bundle = {"scenario": scenario, "task": task, "manifest": manifest}
    if mutate:
        mutate(bundle)
    (pack / "scenarios" / "mini.json").write_text(json.dumps(bundle["scenario"]))
    (pack / "tasks" / "alarm.json").write_text(json.dumps(bundle["task"]))
    (pack / "manifest.json").write_text(json.dumps(bundle["manifest"]))
    return pack


def test_mini_pack_loads(tmp_path):
    pack = load_pack(write_mini_pack(tmp_path))
    assert pack.stats.tasks == 1
    assert pack.agent_config.tau_local == 0.3


def test_dangling_scenario_ref(tmp_path):
    def mutate(bundle):
        bundle["task"]["scenario"] = "elsewhere"

    with pytest.raises(DanglingScenarioRefError):
        load_pack(write_mini_pack(tmp_path, mutate))


def test_expected_app_missing_from_catalogs(tmp_path):
    def mutate(bundle):
        bundle["task"]["ground_truth"]["expected_apps"] = ["com.ghost"]

    with pytest.raises(InvalidGroundTruthError):
        load_pack(write_mini_pack(tmp_path, mutate))


def test_frozen_stats_mismatch_detected(tmp_path):
    def mutate(bundle):
        bundle["manifest"]["stats"] = {"tasks": 99}

    with pytest.raises(ManifestError):
        load_pack(write_mini_pack(tmp_path, mutate))


def test_missing_manifest(tmp_path):
    with pytest.raises(ManifestError):
        load_pack(tmp_path)


def test_validate_desk_pack_is_clean():
    result = validate_pack(PACK_DIR)
    assert result.ok, result.violations


def test_validate_flags_single_app_multi_task(tmp_path):
    def mutate(bundle):
        bundle["task"]["tier"] = "multi_app"

    pack_dir = write_mini_pack(tmp_path, mutate)
    result = validate_pack(pack_dir)
    assert any("multi_app" in v for v in result.violations)


def test_validate_flags_open_scenario_without_fixtures(tmp_path):
    def mutate(bundle):
        bundle["task"]["tier"] = "open_scenario"
        bundle["task"]["instruction"] = "Set a morning wake up call."
        bundle["scenario"]["search_fixtures"] = {}

    result = validate_pack(write_mini_pack(tmp_path, mutate))
    assert any("search fixtures" in v for v in result.violations)


def test_validate_flags_missing_repeat_suite(tmp_path):
    def mutate(bundle):
        del bundle["manifest"]["suites"]["repeat"]

    result = validate_pack(write_mini_pack(tmp_path, mutate))
    assert any("repeat" in v for v in result.violations)


def test_run_benchmark_on_mini_pack(tmp_path):
    pack_dir = write_mini_pack(tmp_path)
    report = run_benchmark(pack_dir, memory_enabled=False)
    assert report.metrics.tsr_pct == 100.0
    assert report.metrics.as_pct == 100.0
    assert not report.harness_errors


def test_repeat_suite_exercises_replay(tmp_path):
    pack_dir = write_mini_pack(tmp_path)
    report = run_benchmark(pack_dir, memory_enabled=True, suite="repeat")
    assert len(report.per_pass) == 2
    second = report.per_pass[1].tasks[0]
    assert second.planner_calls == 0
    assert second.memory_hit == "exact"
    assert second.mobile_steps == report.per_pass[0].tasks[0].mobile_steps


def test_memory_disabled_keeps_passes_independent(tmp_path):
    pack_dir = write_mini_pack(tmp_path)
    report = run_benchmark(pack_dir, memory_enabled=False, suite="repeat")
    for row in report.metrics.tasks:
        assert row.memory_hit == "none"
        assert row.planner_calls > 0


def test_harness_error_becomes_failure_row(tmp_path):
    def mutate(bundle):
        bundle["task"]["script"] = [
            {"do": "act", "action": {"kind": "warp", "target": "x"}}
        ]

    pack_dir = write_mini_pack(tmp_path, mutate)
    report = run_benchmark(pack_dir, memory_enabled=False)
    assert len(report.harness_errors) == 1
    assert report.metrics.tsr_pct == 0.0  # errored task counts against success rate


def test_store_install_rank_for_discovered_app(backend):
    # after a store install is registered, the show's title retrieves the
    # new app first (rank checked against the exhaustive-sort oracle)
    from pocketrag.agent import AgentConfig, select_and_open_app
    from pocketrag.app_index import AppIndex
    from pocketrag.planning import ScriptedPlanner
    from pocketrag.simulator import Device

    from test_app_index import oracle_top_k

    pack = load_pack(PACK_DIR)
    scenario = pack.scenarios["discovery_den"]
    index = AppIndex.build(scenario.installed_apps, backend, threshold=0.2)
    device = Device(scenario)
    planner = ScriptedPlanner(
        [{"do": "select_app", "query": "q", "pick": "com.streamflix.video"}]
    )
    result = select_and_open_app(
        "stream exclusive series films squid game",
        index,
        device,
        planner,
        AgentConfig(tau_local=0.2),
    )
    assert result.installed_from_store
    outcome = index.retrieve("Squid Game")
    assert outcome.found
    assert outcome.matches[0].package_id == "com.streamflix.video"
    assert [m.package_id for m in outcome.matches] == [
        p for p, _ in oracle_top_k(index, "Squid Game", 3)
    ]


def test_memory_mode_does_not_change_first_pass():
    with_memory = run_benchmark(PACK_DIR, memory_enabled=True, suite="repeat")
    without = run_benchmark(PACK_DIR, memory_enabled=False, suite="default")
    assert with_memory.per_pass[0].to_dict() == without.metrics.to_dict()


def test_report_files_and_log_round_trip(tmp_path):
    out_dir = tmp_path / "out"
    report = run_benchmark(PACK_DIR, memory_enabled=False, out_dir=out_dir)
    assert (out_dir / "report.json").is_file()
    assert (out_dir / "report.txt").is_file()
    log_files = sorted((out_dir / "runs").glob("*.jsonl"))
    assert len(log_files) == len(report.runs)

    # metrics are reproducible from the run-log archive alone
    archived = [read_run_log(path) for path in log_files]
    pack = load_pack(PACK_DIR)
    truths = {t.task_id: t.ground_truth for t in pack.tasks}
    recomputed = compute_metrics(archived, truths)
    original = report.metrics
    assert recomputed.as_pct == original.as_pct
    assert recomputed.af_pct == original.af_pct
    assert recomputed.rp_pct == original.rp_pct
    assert recomputed.tcr_pct == original.tcr_pct
    assert recomputed.tsr_pct == original.tsr_pct
