"""Command-line surface: wiring, outputs, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from pocketrag.bench import BenchmarkTask
from pocketrag.cli import main
from pocketrag.errors import MalformedEntryError, PlannerFailureError, ScenarioError
from pocketrag.planning import ScriptedPlanner
from pocketrag.simulator import Scenario
from pocketrag.task_memory import MemoryStore

from conftest import ALARM_SCRIPT, PACK_DIR, mini_scenario_dict

CATALOG = [
    {"name": "Maps", "package_id": "com.maps", "description": "maps navigation traffic routes"},
    {"name": "Music", "package_id": "com.music", "description": "music streaming songs playlists"},
    {"name": "Bank", "package_id": "com.bank", "description": "bank transfers balance savings"},
]


@pytest.fixture()
def catalog_file(tmp_path) -> Path:
    path = tmp_path / "apps.json"
    path.write_text(json.dumps(CATALOG))
    return path


@pytest.fixture()
def scenario_file(tmp_path) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(mini_scenario_dict()))
    return path


@pytest.fixture()
def task_file(tmp_path) -> Path:
    task = {
        "task_id": "alarm",
        "instruction": "Set an alarm for 8 am.",
        "tier": "atomic",
        "scenario": "mini",
        "ground_truth": {
            "expected_apps": ["com.clock"],
            "expected_actions": [{"kind": "stop"}],
            "sub_goals": [{"name": "set", "kind": "flag", "flag": "alarm_set", "equals": "08:00"}],
        },
        "script": ALARM_SCRIPT,
    }
    path = tmp_path / "task.json"
    path.write_text(json.dumps(task))
    return path


def test_index_build_and_query(tmp_path, catalog_file, capsys):
    index_path = tmp_path / "idx.json"
    assert main(["index", "build", "--catalog", str(catalog_file), "--out", str(index_path)]) == 0
    out = capsys.readouterr().out
    assert "indexed 3 apps" in out
    assert index_path.is_file()

    assert main(["index", "query", "--index", str(index_path), "--q", "music streaming songs"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("1. Music (com.music)")


def test_index_query_rejection_prints_best(tmp_path, catalog_file, capsys):
    index_path = tmp_path / "idx.json"
    main(["index", "build", "--catalog", str(catalog_file), "--out", str(index_path),
          "--threshold", "0.9"])
    capsys.readouterr()
    assert main(["index", "query", "--index", str(index_path), "--q", "pizza delivery"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("NO_LOCAL_APP")


def test_run_with_memory_round_trip(tmp_path, scenario_file, task_file, capsys):
    memory_path = tmp_path / "memory.json"
    code = main([
        "run", "--scenario", str(scenario_file), "--task", str(task_file),
        "--memory", str(memory_path), "--tau-local", "0.3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome: success" in out
    assert "memory_hit=none" in out
    assert memory_path.is_file()

    code = main([
        "run", "--scenario", str(scenario_file), "--task", str(task_file),
        "--memory", str(memory_path), "--tau-local", "0.3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "memory_hit=exact" in out
    assert "planner_calls=0" in out


def test_run_unknown_scenario_exits_2(capsys):
    code = main(["run", "--scenario", "/nonexistent/scenario.json",
                 "--instruction", "do something"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_run_failure_exit_code(tmp_path, scenario_file, capsys):
    task = {
        "task_id": "fail",
        "instruction": "Fail on purpose.",
        "tier": "atomic",
        "scenario": "mini",
        "ground_truth": {
            "expected_apps": [],
            "expected_actions": [{"kind": "stop"}],
            "sub_goals": [{"name": "s", "kind": "screen", "screen": "home"}],
        },
        "script": [{"do": "finish", "success": False, "reason": "nope"}],
    }
    task_path = tmp_path / "fail.json"
    task_path.write_text(json.dumps(task))
    code = main(["run", "--scenario", str(scenario_file), "--task", str(task_path)])
    assert code == 1


def test_bench_writes_reports(tmp_path, capsys):
    out_dir = tmp_path / "bench_out"
    code = main(["bench", "--pack", PACK_DIR, "--memory", "off", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "TSR" in out
    assert (out_dir / "report.json").is_file()
    assert (out_dir / "report.txt").is_file()


def test_memory_ls_clear_export(tmp_path, scenario_file, task_file, capsys):
    memory_path = tmp_path / "memory.json"
    main(["run", "--scenario", str(scenario_file), "--task", str(task_file),
          "--memory", str(memory_path), "--tau-local", "0.3"])
    capsys.readouterr()

    assert main(["memory", "ls", "--store", str(memory_path)]) == 0
    out = capsys.readouterr().out
    assert "set an alarm for 8 am" in out
    assert "steps=5" in out

    export_path = tmp_path / "export.json"
    assert main(["memory", "export", "--store", str(memory_path), "--out", str(export_path)]) == 0
    capsys.readouterr()
    assert json.loads(export_path.read_text())["records"]

    assert main(["memory", "clear", "--store", str(memory_path)]) == 0
    capsys.readouterr()
    assert main(["memory", "ls", "--store", str(memory_path)]) == 0
    assert "(empty)" in capsys.readouterr().out


def test_corpus_generate_counts(tmp_path, catalog_file, capsys):
    out_path = tmp_path / "corpus.jsonl"
    code = main([
        "corpus", "generate", "--catalog", str(catalog_file),
        "--per-app", "2", "--none", "0.25", "--out", str(out_path), "--seed", "0",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote 8 examples (2 none-cases)" in out  # 6 positives + 6*0.25/0.75
    lines = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(lines) == 8
    assert sum(1 for line in lines if line["is_none_case"]) == 2


def test_pack_validate_cli(capsys):
    assert main(["pack", "validate", "--pack", PACK_DIR]) == 0
    assert "pack OK" in capsys.readouterr().out


def test_run_tau_mem_flag_overrides_memory_file(tmp_path, scenario_file, task_file, capsys):
    memory_path = tmp_path / "memory.json"
    assert main([
        "run", "--scenario", str(scenario_file), "--task", str(task_file),
        "--memory", str(memory_path), "--tau-local", "0.3",
    ]) == 0
    assert json.loads(memory_path.read_text())["threshold"] == 0.8
    capsys.readouterr()
    # cosine 0.926 to the stored query: similar at the file's 0.8, none at 0.95
    task = json.loads(task_file.read_text())
    task["instruction"] = "Set an alarm for 8 am tomorrow."
    variant = tmp_path / "variant.json"
    variant.write_text(json.dumps(task))
    assert main([
        "run", "--scenario", str(scenario_file), "--task", str(variant),
        "--memory", str(memory_path), "--tau-local", "0.3", "--tau-mem", "0.95",
    ]) == 0
    assert "memory_hit=none" in capsys.readouterr().out


def test_run_tau_local_flag_overrides_index_file(tmp_path, scenario_file, task_file, capsys):
    catalog = tmp_path / "installed.json"
    catalog.write_text(json.dumps(mini_scenario_dict()["installed_apps"]))
    index_path = tmp_path / "index.json"
    assert main([
        "index", "build", "--catalog", str(catalog), "--out", str(index_path),
        "--threshold", "0.3",
    ]) == 0
    capsys.readouterr()
    # the clock app scores 0.57 for the script's query: a hit at the file's
    # 0.3, rejected at the flag's 0.99 (and the store has no clock app)
    main([
        "run", "--scenario", str(scenario_file), "--task", str(task_file),
        "--index", str(index_path), "--tau-local", "0.99",
    ])
    out = capsys.readouterr().out
    assert "launch com.clock" not in out


def test_config_typo_exits_2(tmp_path, scenario_file, task_file, capsys):
    # a typo, and the keys that are now constants of the agent
    config = tmp_path / "config.json"
    for key, value in [
        ("tau_locl", 0.4), ("k_search", 10), ("install_step_cost", 1), ("reflect_mode", "always"),
    ]:
        config.write_text(json.dumps({"agent": {key: value}}))
        code = main([
            "--config", str(config), "run", "--scenario", str(scenario_file),
            "--task", str(task_file),
        ])
        assert code == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "agent_config",
    [{"tau_mem": 1.5}, {"tau_local": "0.4"}, {"k_apps": None}],
    ids=["out-of-range", "string", "null"],
)
def test_config_bad_value_exits_2(tmp_path, scenario_file, task_file, capsys, agent_config):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"agent": agent_config}))
    code = main([
        "--config", str(config), "run", "--scenario", str(scenario_file),
        "--task", str(task_file),
    ])
    assert code == 2
    assert "invalid agent config" in capsys.readouterr().err


def _raise_first_value(data):
    data["apps"][0]["embedding"][0] += 0.5


def _drop_first_embedding(data):
    del data["apps"][0]["embedding"]


def _set_dimension_12(data):
    data["dimension"] = 12


def _blank_first_package_id(data):
    data["apps"][0]["package_id"] = ""


@pytest.mark.parametrize(
    "tamper",
    [_raise_first_value, _drop_first_embedding, _set_dimension_12, _blank_first_package_id],
    ids=["not-unit-norm", "no-embedding", "dimension-12", "empty-package-id"],
)
def test_index_query_on_malformed_index_file_exits_2(tmp_path, catalog_file, capsys, tamper):
    index_path = tmp_path / "idx.json"
    main(["index", "build", "--catalog", str(catalog_file), "--out", str(index_path)])
    data = json.loads(index_path.read_text())
    tamper(data)
    index_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["index", "query", "--index", str(index_path), "--q", "music"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "entry, named",
    [
        ({"name": "Blank", "package_id": "", "description": "blank package id"}, "'Blank'"),
        ({"name": "Mute", "package_id": "com.mute"}, "'com.mute'"),
    ],
    ids=["empty-package-id", "no-description"],
)
def test_index_build_on_malformed_catalog_exits_2(tmp_path, capsys, entry, named):
    catalog_path = tmp_path / "apps.json"
    catalog_path.write_text(json.dumps(CATALOG + [entry]))
    index_path = tmp_path / "idx.json"
    assert main(["index", "build", "--catalog", str(catalog_path), "--out", str(index_path)]) == 2
    assert named in capsys.readouterr().err
    assert not index_path.exists()


def test_memory_ls_on_non_unit_vector_exits_2(tmp_path, scenario_file, task_file, capsys):
    memory_path = tmp_path / "memory.json"
    main(["run", "--scenario", str(scenario_file), "--task", str(task_file),
          "--memory", str(memory_path), "--tau-local", "0.3"])
    data = json.loads(memory_path.read_text())
    data["records"][0]["embedding"][0] += 0.5
    memory_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["memory", "ls", "--store", str(memory_path)]) == 2
    assert "record 0" in capsys.readouterr().err


def test_index_build_threshold_follows_config(tmp_path, catalog_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"agent": {"tau_local": 0.35}}))
    index_path = tmp_path / "idx.json"
    build = ["--config", str(config), "index", "build", "--catalog", str(catalog_file),
             "--out", str(index_path)]
    assert main(build) == 0
    assert json.loads(index_path.read_text())["threshold"] == 0.35
    assert main(build + ["--threshold", "0.6"]) == 0
    assert json.loads(index_path.read_text())["threshold"] == 0.6


def test_memory_ls_on_malformed_flag_changes_exits_2(tmp_path, scenario_file, task_file, capsys):
    memory_path = tmp_path / "memory.json"
    main(["run", "--scenario", str(scenario_file), "--task", str(task_file),
          "--memory", str(memory_path), "--tau-local", "0.3"])
    data = json.loads(memory_path.read_text())
    data["records"][0]["trace"][0]["flag_changes"] = [1, 2]
    memory_path.write_text(json.dumps(data))
    capsys.readouterr()
    with pytest.raises(MalformedEntryError, match="record 0"):
        MemoryStore.load(memory_path)
    assert main(["memory", "ls", "--store", str(memory_path)]) == 2
    assert "record 0" in capsys.readouterr().err


def _drop_scenario_id(data):
    del data["scenario_id"]


def _drop_first_screens(data):
    del data["app_graphs"]["com.clock"]["screens"]


@pytest.mark.parametrize(
    "tamper", [_drop_scenario_id, _drop_first_screens], ids=["no-scenario-id", "no-screens"]
)
def test_run_on_malformed_scenario_exits_2(tmp_path, task_file, capsys, tamper):
    data = mini_scenario_dict()
    tamper(data)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError):
        Scenario.from_file(scenario_path)
    assert main(["run", "--scenario", str(scenario_path), "--task", str(task_file)]) == 2
    assert "scenario is malformed" in capsys.readouterr().err


def test_run_on_task_without_tier_exits_2(tmp_path, scenario_file, task_file, capsys):
    task = json.loads(task_file.read_text())
    del task["tier"]
    task_file.write_text(json.dumps(task))
    with pytest.raises(MalformedEntryError):
        BenchmarkTask.from_dict(task)
    assert main(["run", "--scenario", str(scenario_file), "--task", str(task_file)]) == 2
    assert "'tier'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [{"do": "fly"}, {"do": "act", "action": {"kind": "tap"}}],
    ids=["unknown-step", "act-without-target"],
)
def test_run_on_malformed_script_entry_exits_2(tmp_path, scenario_file, task_file, capsys, entry):
    task = json.loads(task_file.read_text())
    task["script"] = [entry]
    task_file.write_text(json.dumps(task))
    with pytest.raises(PlannerFailureError, match="script entry 0"):
        ScriptedPlanner([entry]).plan(None)
    code = main(["run", "--scenario", str(scenario_file), "--task", str(task_file),
                 "--tau-local", "0.3"])
    assert code == 2
    assert "script entry 0 is malformed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "query", "--index", "{index}", "--q", "music", "-k", "0"],
        ["corpus", "generate", "--catalog", "{catalog}", "--per-app", "0", "--out", "{out}"],
        ["corpus", "generate", "--catalog", "{catalog}", "--per-app", "1", "--none", "1.0",
         "--out", "{out}"],
    ],
    ids=["k-0", "per-app-0", "none-1.0"],
)
def test_out_of_range_numeric_flag_is_a_usage_error(tmp_path, capsys, argv):
    catalog_path = tmp_path / "apps.json"
    catalog_path.write_text(json.dumps(CATALOG[:2]))
    index_path = tmp_path / "idx.json"
    assert main(["index", "build", "--catalog", str(catalog_path), "--out", str(index_path)]) == 0
    paths = {"index": index_path, "catalog": catalog_path, "out": tmp_path / "corpus.jsonl"}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(**paths) for arg in argv])
    assert exit_info.value.code == 2
    assert "must be" in capsys.readouterr().err
    assert not paths["out"].exists()
