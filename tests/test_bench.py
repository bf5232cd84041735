"""Pack loading, validation, suite execution, report reproducibility."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

from pocketrag import app_index, metrics
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
    MalformedEntryError,
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


def test_each_run_is_scored_once(monkeypatch):
    calls = []
    original = metrics.score_run

    def counting(run, truth, run_id=None):
        calls.append(run_id)
        return original(run, truth, run_id=run_id)

    monkeypatch.setattr(metrics, "score_run", counting)
    report = run_benchmark(PACK_DIR, memory_enabled=True, suite="repeat")
    assert len(report.per_pass) == 2
    assert calls == report.run_ids


@pytest.mark.parametrize("memory", [True, False])
def test_each_pass_report_equals_scoring_its_runs(memory):
    report = run_benchmark(PACK_DIR, memory_enabled=memory, suite="repeat")
    truths = {t.task_id: t.ground_truth for t in load_pack(PACK_DIR).tasks}
    assert len(report.per_pass) == 2
    for n, pass_report in enumerate(report.per_pass, start=1):
        pairs = [
            (run, run_id)
            for run, run_id in zip(report.runs, report.run_ids)
            if (run_id.partition("@")[2] or "1") == str(n)
        ]
        runs, run_ids = [run for run, _ in pairs], [run_id for _, run_id in pairs]
        assert runs
        assert pass_report.to_dict() == compute_metrics(runs, truths, run_ids=run_ids).to_dict()


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

    # a counter of another type is refused, not cast
    *events, last = log_files[0].read_text().splitlines()
    run = json.loads(last)
    run["run"]["counters"]["mobile_steps"] = "3"
    log_files[0].write_text("\n".join([*events, json.dumps(run)]) + "\n")
    with pytest.raises(MalformedEntryError, match="mobile_steps '3'"):
        read_run_log(log_files[0])


# sha256 over report.json, report.txt and every run log of a desk run, taken
# before per-pass reports were aggregated from the overall report's rows. The
# logs hold no retrieval or memory score, and the report's floats are ratios
# of integer sums, so the digests do not depend on the machine's BLAS.
DESK_OUTPUT_SHA256 = {
    ("default", True): "0974126771c080085e5e3bd0feb2f2da8a11976985fdec7dbd96e6f2dc4c26ea",
    ("default", False): "b64c81680cc1a4766dfaade158110bb8b2cf95e265403ac92b195fc2016c5ee5",
    ("repeat", True): "c826b927efafdcf0b92cc09b94349c10536a9a3bb17bb4878179d61799485341",
    ("repeat", False): "9edac612c5f99ef98ef3319e97a166ce7d9d7cf3dcecb74a5ec10b20d03df876",
}


def output_digest(out_dir: Path) -> str:
    files = [out_dir / "report.json", out_dir / "report.txt"]
    files += sorted((out_dir / "runs").glob("*.jsonl"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("suite,memory", sorted(DESK_OUTPUT_SHA256))
def test_desk_outputs_are_pinned(tmp_path, suite, memory):
    run_benchmark(PACK_DIR, memory_enabled=memory, suite=suite, out_dir=tmp_path)
    assert output_digest(tmp_path) == DESK_OUTPUT_SHA256[suite, memory]


@pytest.mark.parametrize("suite,memory", sorted(DESK_OUTPUT_SHA256))
def test_desk_outputs_do_not_depend_on_the_catalog_cache(tmp_path, monkeypatch, suite, memory):
    monkeypatch.setattr(app_index, "_catalogs", OrderedDict())
    outputs = []
    for run in ("cold", "warm"):
        run_benchmark(PACK_DIR, memory_enabled=memory, suite=suite, out_dir=tmp_path / run)
        files = (tmp_path / run).rglob("*")
        outputs.append({p.relative_to(tmp_path / run): p.read_bytes() for p in files if p.is_file()})
    assert outputs[0] == outputs[1]


# each event kind's payload keys, one set per variant, as README's run-log
# bullet documents them
EVENT_PAYLOADS = {
    "memory_lookup": [{"hit"}, {"hit", "matched_query"}, {"hit", "matched_query", "score"}],
    "install": [{"package", "phase"}],
    "replay": [{"status", "actions"}, {"status", "actions", "abort_index", "reason"}],
    "decision": [{"kind", "detail"}],
    "retrieval": [{"stage", "query", "results"}, {"stage", "query", "found"}],
    "selection": [{"query", "package", "from_store"}],
    "action": [{"step"}, {"step", "synthesized"}],
    "reflection": [{"index", "ok", "diagnosis"}],
    "finish": [{"success", "reason"}],
    "budget": [{"exhausted"}],
    "memory_commit": [{"query", "trace_length"}, {"query", "skipped"}],
    "run_end": [{"outcome", "counters"}],
    "run": [{"run"}],
}


@pytest.mark.parametrize("suite,memory", sorted(DESK_OUTPUT_SHA256))
def test_every_desk_event_carries_the_documented_keys(tmp_path, suite, memory):
    run_benchmark(PACK_DIR, memory_enabled=memory, suite=suite, out_dir=tmp_path)
    for path in sorted((tmp_path / "runs").glob("*.jsonl")):
        for line in path.read_text().splitlines():
            payload = json.loads(line)
            kind = payload.pop("event")
            assert set(payload) in EVENT_PAYLOADS[kind], (path.name, kind, sorted(payload))


def test_desk_pack_regenerates_byte_for_byte(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_desk_pack", "tools/make_desk_pack.py")
    generator = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the generator prepends src/
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "PACK_DIR", tmp_path)
    assert generator.main() == 0

    def files(root):
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    shipped, regenerated = files(Path(PACK_DIR)), files(tmp_path)
    assert sorted(regenerated) == sorted(shipped)
    assert [name for name in sorted(shipped) if regenerated[name] != shipped[name]] == []
