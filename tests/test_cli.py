"""Command-line surface: wiring, outputs, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from pocketrag.cli import main

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
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"agent": {"tau_locl": 0.4}}))
    code = main([
        "--config", str(config), "run", "--scenario", str(scenario_file),
        "--task", str(task_file),
    ])
    assert code == 2
    assert "tau_locl" in capsys.readouterr().err


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
