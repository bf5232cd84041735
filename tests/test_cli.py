"""Command-line surface: wiring, outputs, exit codes."""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocketrag.app_index import AppIndex
from pocketrag.bench import BenchmarkTask, load_pack
from pocketrag.cli import main
from pocketrag.errors import (
    DimensionMismatchError,
    EmptyTraceError,
    MalformedEntryError,
    PlannerFailureError,
    PocketRagError,
    ScenarioError,
    TraceWithoutStopError,
)
from pocketrag.planning import ScriptedPlanner
from pocketrag.simulator import Scenario
from pocketrag.task_memory import MemoryStore

from conftest import ALARM_SCRIPT, PACK_DIR, json_values, mini_scenario_dict
from test_bench import write_mini_pack

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


TASK = {
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


@pytest.fixture()
def task_file(tmp_path) -> Path:
    path = tmp_path / "task.json"
    path.write_text(json.dumps(TASK))
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
    [{"tau_mem": 1.5}, {"tau_local": "0.4"}, {"k_apps": None}, {"k_apps": 2.5},
     {"max_steps": 2.5}, {"k_apps": True}],
    ids=["out-of-range", "string", "null", "float-k-apps", "float-max-steps", "bool-k-apps"],
)
def test_config_bad_value_exits_2(tmp_path, scenario_file, task_file, capsys, agent_config):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"agent": agent_config}))
    code = main([
        "--config", str(config), "run", "--scenario", str(scenario_file),
        "--task", str(task_file),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid agent config" in err
    assert "Traceback" not in err


def _raise_first_value(data):
    data["apps"][0]["embedding"][0] += 0.5


def _drop_first_embedding(data):
    del data["apps"][0]["embedding"]


def _set_dimension_12(data):
    data["dimension"] = 12


def _blank_first_package_id(data):
    data["apps"][0]["package_id"] = ""


def _installed_as_a_string(data):
    data["apps"][0]["installed"] = "false"


@pytest.mark.parametrize(
    "tamper",
    [_raise_first_value, _drop_first_embedding, _set_dimension_12, _blank_first_package_id,
     _installed_as_a_string],
    ids=["not-unit-norm", "no-embedding", "dimension-12", "empty-package-id", "installed-string"],
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
        ({"name": "Null", "package_id": "com.null", "description": None}, "'com.null'"),
        ({"name": "Five", "package_id": 5, "description": "a numeric id"}, "'Five'"),
    ],
    ids=["empty-package-id", "no-description", "null-description", "int-package-id"],
)
def test_index_build_on_malformed_catalog_exits_2(tmp_path, capsys, entry, named):
    catalog_path = tmp_path / "apps.json"
    catalog_path.write_text(json.dumps(CATALOG + [entry]))
    index_path = tmp_path / "idx.json"
    assert main(["index", "build", "--catalog", str(catalog_path), "--out", str(index_path)]) == 2
    assert named in capsys.readouterr().err
    assert not index_path.exists()


@pytest.mark.parametrize(
    "config, catalog",
    [([1, 2], CATALOG), ({"agent": [1]}, CATALOG), (None, {"apps": 5})],
    ids=["config-list", "config-agent-list", "catalog-apps-int"],
)
def test_index_build_on_malformed_input_exits_2(tmp_path, capsys, config, catalog):
    catalog_path = tmp_path / "apps.json"
    catalog_path.write_text(json.dumps(catalog))
    argv = ["index", "build", "--catalog", str(catalog_path), "--out", str(tmp_path / "idx.json")]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "config.json")] + argv
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "idx.json").exists()


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


def test_memory_ls_on_repeated_query_exits_2(tmp_path, scenario_file, task_file, capsys):
    memory_path = tmp_path / "memory.json"
    main(["run", "--scenario", str(scenario_file), "--task", str(task_file),
          "--memory", str(memory_path), "--tau-local", "0.3"])
    data = json.loads(memory_path.read_text())
    data["records"].append(data["records"][0])
    memory_path.write_text(json.dumps(data))
    capsys.readouterr()
    with pytest.raises(MalformedEntryError, match="already stored"):
        MemoryStore.load(memory_path)
    assert main(["memory", "ls", "--store", str(memory_path)]) == 2



# unit vectors of another length than the backend's 384; numpy would
# broadcast the one-float vector into every coordinate of a row
@pytest.mark.parametrize("embedding", [[1.0] + [0.0] * 11, [1.0]], ids=["12-floats", "1-float"])
def test_a_vector_of_another_dimension_exits_2_naming_its_entry(
    tmp_path, catalog_file, scenario_file, task_file, capsys, embedding
):
    index_path, memory_path = tmp_path / "idx.json", tmp_path / "memory.json"
    main(["index", "build", "--catalog", str(catalog_file), "--out", str(index_path)])
    main(["run", "--scenario", str(scenario_file), "--task", str(task_file),
          "--memory", str(memory_path), "--tau-local", "0.3"])
    for loader, path, entries, key, command in [
        (AppIndex, index_path, "apps", "package_id", ["index", "query", "--index", str(index_path), "--q", "music"]),
        (MemoryStore, memory_path, "records", "normalized_query", ["memory", "ls", "--store", str(memory_path)]),
    ]:
        data = json.loads(path.read_text())
        data[entries][-1]["embedding"] = embedding
        path.write_text(json.dumps(data))
        named = repr(data[entries][-1][key])
        with pytest.raises(DimensionMismatchError, match=re.escape(named)):
            loader.load(path)
        capsys.readouterr()
        assert main(command) == 2
        assert named in capsys.readouterr().err


def test_a_file_dimension_other_than_the_backends_raises_dimension_mismatch(
    tmp_path, catalog_file, scenario_file, task_file
):
    index_path, memory_path = tmp_path / "idx.json", tmp_path / "memory.json"
    main(["index", "build", "--catalog", str(catalog_file), "--out", str(index_path)])
    main(["run", "--scenario", str(scenario_file), "--task", str(task_file),
          "--memory", str(memory_path), "--tau-local", "0.3"])
    for loader, path in [(AppIndex, index_path), (MemoryStore, memory_path)]:
        data = json.loads(path.read_text())
        data["dimension"] = 64
        path.write_text(json.dumps(data))
        with pytest.raises(DimensionMismatchError, match="has dimension 64"):
            loader.load(path)


def test_index_query_k_follows_config(tmp_path, catalog_file, capsys):
    index_path, config = tmp_path / "idx.json", tmp_path / "config.json"
    main(["index", "build", "--catalog", str(catalog_file), "--out", str(index_path),
          "--threshold", "0.1"])
    config.write_text(json.dumps({"agent": {"k_apps": 1}}))
    query = ["index", "query", "--index", str(index_path), "--q", "music streaming traffic"]
    capsys.readouterr()
    assert main(["--config", str(config), *query]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert main(["--config", str(config), *query, "-k", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


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


def _empty_trace(data):
    data["records"][0]["trace"] = []


def _drop_stop(data):
    data["records"][0]["trace"] = data["records"][0]["trace"][:-1]


def _fractional_success_count(data):
    data["records"][0]["success_count"] = 2.9


def _bool_created_at(data):
    data["records"][0]["created_at"] = True


def _fractional_capacity(data):
    data["capacity"] = 2.5


def _other_normalized_query(data):
    data["records"][0]["normalized_query"] = "another task"


# what a commit would refuse, or a field of the wrong type or value, each
# with the error it raises and the part of the file the error names
@pytest.mark.parametrize(
    "tamper, error, named",
    [
        (_empty_trace, EmptyTraceError, "record 0"),
        (_drop_stop, TraceWithoutStopError, "record 0"),
        (_fractional_success_count, MalformedEntryError, "record 0"),
        (_bool_created_at, MalformedEntryError, "record 0"),
        (_fractional_capacity, MalformedEntryError, "capacity"),
        (_other_normalized_query, MalformedEntryError, "record 0"),
    ],
    ids=["empty", "no-stop", "float-success-count", "bool-created-at", "float-capacity",
         "other-normalized-query"],
)
def test_memory_file_a_load_refuses_exits_2(
    tmp_path, scenario_file, task_file, capsys, tamper, error, named
):
    memory_path = tmp_path / "memory.json"
    run = ["run", "--scenario", str(scenario_file), "--task", str(task_file),
           "--memory", str(memory_path), "--tau-local", "0.3"]
    assert main(run) == 0
    data = json.loads(memory_path.read_text())
    assert len(data["records"][0]["trace"]) > 1
    tamper(data)
    memory_path.write_text(json.dumps(data))
    capsys.readouterr()
    with pytest.raises(error, match=named):
        MemoryStore.load(memory_path)
    assert main(["memory", "ls", "--store", str(memory_path)]) == 2
    assert named in capsys.readouterr().err
    assert main(run) == 2  # refused before the stored trace is replayed
    assert named in capsys.readouterr().err


def _drop_scenario_id(data):
    del data["scenario_id"]


def _drop_first_screens(data):
    del data["app_graphs"]["com.clock"]["screens"]


def _first_element(data) -> dict:
    return data["app_graphs"]["com.clock"]["screens"]["clock_home"]["elements"][0]


def _int_scenario_id(data):
    data["scenario_id"] = 5


def _int_element_id(data):
    _first_element(data)["element_id"] = 5


def _list_element_text(data):
    _first_element(data)["text"] = ["x"]


def _bool_and_float_bounds(data):
    _first_element(data)["bounds"] = [True, 0.5, 100, 100]


def _typed_fixture_hit(data):
    data["search_fixtures"]["weather tomorrow"] = [{"title": 7, "summary": ["a"], "url": 5}]


# each tamper with what the one error line must name
@pytest.mark.parametrize(
    "tamper, named",
    [
        (_drop_scenario_id, "scenario is malformed"),
        (_drop_first_screens, "scenario is malformed"),
        (_int_scenario_id, "scenario_id 5 is not a str"),
        (_int_element_id, "element_id 5 is not a str"),
        (_list_element_text, "text ['x'] is not a str"),
        (_bool_and_float_bounds, "invalid bounds (True, 0.5, 100, 100)"),
        (_typed_fixture_hit, "title 7 is not a str"),
    ],
    ids=["no-scenario-id", "no-screens", "int-scenario-id", "int-element-id", "list-element-text",
         "bool-and-float-bounds", "typed-fixture-hit"],
)
def test_run_on_malformed_scenario_exits_2(tmp_path, task_file, capsys, tamper, named):
    data = mini_scenario_dict()
    tamper(data)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match=re.escape(named)):
        Scenario.from_file(scenario_path)
    assert main(["run", "--scenario", str(scenario_path), "--task", str(task_file)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and named in line


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


def test_run_on_null_search_fixture_hit_exits_2(tmp_path, task_file, capsys):
    data = mini_scenario_dict()
    data["search_fixtures"]["weather tomorrow"] = [None]
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match="not an object"):
        Scenario.from_dict(data)
    assert main(["run", "--scenario", str(scenario_path), "--task", str(task_file)]) == 2
    assert "scenario is malformed" in capsys.readouterr().err


def test_run_on_store_app_without_graph_exits_2(tmp_path, task_file, capsys):
    data = mini_scenario_dict()
    del data["app_graphs"]["com.weather"]
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match="com.weather"):
        Scenario.from_dict(data)
    assert main(["run", "--scenario", str(scenario_path), "--task", str(task_file)]) == 2
    assert "store app com.weather has no screen graph" in capsys.readouterr().err


def test_run_on_list_action_target_exits_2(tmp_path, scenario_file, task_file, capsys):
    task = json.loads(task_file.read_text())
    task["script"][1]["action"]["target"] = [None]
    task_file.write_text(json.dumps(task))
    with pytest.raises(PlannerFailureError, match="script entry 1: action target"):
        BenchmarkTask.from_dict(task)
    assert main(["run", "--scenario", str(scenario_file), "--task", str(task_file)]) == 2
    assert "task script is malformed" in capsys.readouterr().err


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


@pytest.mark.parametrize("apps", [0, 1], ids=["no-apps", "one-app"])
def test_corpus_generate_on_too_small_catalog_exits_2(tmp_path, capsys, apps):
    catalog_path = tmp_path / "apps.json"
    catalog_path.write_text(json.dumps(CATALOG[:apps]))
    out_path = tmp_path / "corpus.jsonl"
    code = main(["corpus", "generate", "--catalog", str(catalog_path), "--per-app", "1",
                 "--out", str(out_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_path.exists()


def write_cli_world(root: Path) -> dict[str, Path]:
    """A valid file for every file argument of the CLI, and a mini pack."""
    paths = {}
    for name, data in [("config", {"agent": {"tau_local": 0.3}}), ("catalog", CATALOG),
                       ("scenario", mini_scenario_dict()), ("task", TASK)]:
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    paths["index"], paths["memory"] = root / "index.json", root / "memory.json"
    paths["out"], paths["pack"] = root / "out", write_mini_pack(root)
    assert main(["index", "build", "--catalog", str(paths["catalog"]),
                 "--out", str(paths["index"])]) == 0
    assert main(["run", "--scenario", str(paths["scenario"]), "--task", str(paths["task"]),
                 "--memory", str(paths["memory"]), "--tau-local", "0.3"]) == 0
    return paths


# command -> (the file argument it reads, its argv)
FILE_COMMANDS = {
    "config": ("config", "--config {config} run --scenario {scenario} --task {task}"),
    "index-build": ("catalog", "index build --catalog {catalog} --out {out}"),
    "corpus-generate": ("catalog", "corpus generate --catalog {catalog} --per-app 1 --out {out}"),
    "index": ("index", "index query --index {index} --q music"),
    "memory": ("memory", "memory ls --store {memory}"),
    "scenario": ("scenario", "run --scenario {scenario} --task {task}"),
    "task": ("task", "run --scenario {scenario} --task {task}"),
}


def _argv(template: str, paths: dict[str, Path]) -> list[str]:
    return [arg.format(**paths) for arg in template.split()]


@pytest.mark.parametrize(
    "command, damage",
    [(command, damage)
     for command in ("config", "index", "scenario", "task", "index-build", "memory")
     for damage in ("directory", "not-utf-8")
     if (command, damage) != ("memory", "directory")],  # a store that is no file lists empty
)
def test_unreadable_input_file_exits_2(tmp_path, capsys, command, damage):
    paths = write_cli_world(tmp_path)
    argument, template = FILE_COMMANDS[command]
    path = paths[argument]
    path.unlink()
    if damage == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"name": "caf\xe9"}')
    capsys.readouterr()
    assert main(_argv(template, paths)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory) -> dict[str, Path]:
    return write_cli_world(tmp_path_factory.mktemp("cli_world"))


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
@settings(max_examples=25)
@given(value=json_values())
def test_no_json_input_file_crashes_the_cli(cli_world, command, value):
    argument, template = FILE_COMMANDS[command]
    path = cli_world[argument]
    original = path.read_bytes()
    path.write_text(json.dumps(value))
    try:
        assert main(_argv(template, cli_world)) in (0, 1, 2)
    finally:
        path.write_bytes(original)


@pytest.mark.parametrize(
    "key", [None, "scenarios", "tasks", "suites", "stats", "agent_config", "name"],
    ids=lambda key: key or "whole-manifest",
)
@settings(max_examples=20)
@given(value=json_values())
def test_no_manifest_crashes_pack_validate_or_bench(cli_world, key, value):
    path = cli_world["pack"] / "manifest.json"
    original = path.read_text()
    path.write_text(json.dumps(value if key is None else {**json.loads(original), key: value}))
    try:
        for command in ("pack validate", "bench"):
            assert main(command.split() + ["--pack", str(cli_world["pack"])]) in (0, 1, 2)
    finally:
        path.write_text(original)


@pytest.mark.parametrize("command", ["pack validate", "bench"])
def test_a_manifest_agent_config_of_the_wrong_type_exits_2_at_load(tmp_path, capsys, command):
    def mutate(bundle):
        bundle["manifest"]["agent_config"]["k_apps"] = 2.5

    pack = write_mini_pack(tmp_path, mutate)
    with pytest.raises(PocketRagError, match="k_apps 2.5"):
        load_pack(pack)
    assert main(command.split() + ["--pack", str(pack)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    lead = "error: " if command == "bench" else "violation: pack failed to load"
    assert line.startswith(lead) and "k_apps 2.5" in line


# one mistyped field of the desk's t01_alarm_set ground truth, with what the
# error must name
DESK_GROUND_TRUTH_DAMAGE = {
    "int-equals": (lambda truth: truth["sub_goals"][0].update(equals=8), "equals 8"),
    "unknown-kind": (lambda truth: truth["expected_actions"][1].update(kind="tapp"), "'tapp'"),
    "int-target": (lambda truth: truth["expected_actions"][1].update(target=5), "target 5"),
    "string-apps": (lambda truth: truth.update(expected_apps="com.x"), "expected_apps 'com.x'"),
    "int-name": (lambda truth: truth["sub_goals"][0].update(name=3), "name 3"),
}


@pytest.mark.parametrize("damage", sorted(DESK_GROUND_TRUTH_DAMAGE))
@pytest.mark.parametrize("command", ["pack validate", "bench"])
def test_a_mistyped_desk_ground_truth_exits_2_at_load(tmp_path, capsys, command, damage):
    pack = tmp_path / "desk"
    shutil.copytree(PACK_DIR, pack)
    path = pack / "tasks" / "t01_alarm_set.json"
    task = json.loads(path.read_text())
    change, named = DESK_GROUND_TRUTH_DAMAGE[damage]
    change(task["ground_truth"])
    path.write_text(json.dumps(task))
    with pytest.raises(PocketRagError, match=re.escape(named)):
        load_pack(pack)
    assert main(command.split() + ["--pack", str(pack)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    lead = "error: " if command == "bench" else "violation: pack failed to load"
    assert line.startswith(lead) and named in line


def nested_paths(value, path=()):
    """The path of every value nested inside ``value`` (not ``value`` itself)."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from nested_paths(child, path + (key,))


def replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


# the commands whose input file has one nested value changed at a time
NESTED_FILES = ("config", "index", "memory", "scenario", "task")


@pytest.mark.parametrize("command", NESTED_FILES)
@settings(max_examples=60)
@given(data=st.data(), value=json_values())
def test_no_nested_value_crashes_the_cli(cli_world, command, data, value):
    argument, template = FILE_COMMANDS[command]
    file = cli_world[argument]
    original = file.read_bytes()
    valid = json.loads(original)
    # the coordinates of a vector are left out: they would crowd out every other field
    paths = [path for path in nested_paths(valid) if "embedding" not in path[:-1]]
    path = data.draw(st.sampled_from(sorted(paths, key=repr)))
    file.write_text(json.dumps(replaced(valid, path, value)))
    try:
        assert main(_argv(template, cli_world)) in (0, 1, 2)
    finally:
        file.write_bytes(original)
