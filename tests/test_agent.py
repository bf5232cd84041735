"""Agent control flow: memory-first routing, knowledge, selection, budgets."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pocketrag.agent import (
    INSTALL_STEP_COST,
    AgentConfig,
    TaskRun,
    run_task,
    select_and_open_app,
)
from pocketrag.app_index import AppIndex
from pocketrag.embedding import HashedTokenEmbedder
from pocketrag.errors import NoAppAnywhereError, ScenarioMismatchError
from pocketrag.planning import EffectReflector, ScriptedPlanner
from pocketrag.simulator import SWIPE_DIRECTIONS, Device, Scenario, UiElement
from pocketrag.task_memory import MemoryStore
from pocketrag.web_search import FixtureSearchBackend

from conftest import ALARM_SCRIPT, mini_scenario_dict

CONFIG = AgentConfig(tau_local=0.3, max_steps=25, max_planner_calls=25)

KNOWLEDGE_SCRIPT = [
    {"do": "need_knowledge", "entities": ["tomorrow weather"]},
    {"do": "select_app", "query": "weather forecast rain sunny", "pick": "com.weather"},
    {"do": "act", "action": {"kind": "tap", "target": "forecast_tab"}},
    {"do": "finish", "success": True},
]


def build_world(backend, scenario_dict=None):
    scenario = Scenario.from_dict(scenario_dict or mini_scenario_dict())
    index = AppIndex.build(scenario.installed_apps, backend, threshold=CONFIG.tau_local)
    counter = itertools.count(1)
    memory = MemoryStore(backend, clock=lambda: float(next(counter)))
    search = FixtureSearchBackend(scenario.search_fixtures)
    return scenario, index, memory, search


def run_alarm(backend, memory=None, index=None, script=ALARM_SCRIPT, instruction="Set an alarm for 8 am."):
    scenario, built_index, built_memory, search = build_world(backend)
    return run_task(
        instruction=instruction,
        scenario=scenario,
        index=index if index is not None else built_index,
        memory=memory if memory is not None else built_memory,
        search_backend=search,
        planner=ScriptedPlanner(script),
        reflector=EffectReflector(),
        config=CONFIG,
        task_id="alarm",
    )


def test_successful_run_counters(backend):
    run = run_alarm(backend)
    assert run.outcome == "success"
    assert run.counters.planner_calls == 5
    assert run.counters.mobile_steps == 5 == len(run.trace)
    assert run.counters.memory_hit == "none"
    assert run.app_selections == (("alarm clock wake up", "com.clock"),)
    assert run.trace.ends_with_stop
    assert [s.action.kind for s in run.trace.steps] == [
        "launch", "tap", "type", "tap", "stop",
    ]


def test_reflections_cover_act_steps(backend):
    run = run_alarm(backend)
    # acts are steps 1..3 (launch and synthesized stop are not reflected)
    assert [i for i, _ in run.reflections] == [1, 2, 3]
    assert all(v.ok for _, v in run.reflections)


def test_success_commits_to_memory(backend):
    scenario, index, memory, search = build_world(backend)
    run = run_task(
        "Set an alarm for 8 am.", scenario, index, memory, search,
        ScriptedPlanner(ALARM_SCRIPT), EffectReflector(), CONFIG,
    )
    assert run.outcome == "success"
    assert len(memory) == 1
    assert memory.lookup("set an alarm for 8 am.").is_exact


def test_exact_repeat_replays_with_zero_planner_calls(backend):
    scenario, index, memory, search = build_world(backend)
    first = run_task(
        "Set an alarm for 8 am.", scenario, index, memory, search,
        ScriptedPlanner(ALARM_SCRIPT), EffectReflector(), CONFIG,
    )
    fresh_index = AppIndex.build(scenario.installed_apps, backend, threshold=0.3)
    second = run_task(
        "set an alarm for 8 am.", scenario, fresh_index, memory, search,
        ScriptedPlanner([]), EffectReflector(), CONFIG,
    )
    assert second.outcome == "success"
    assert second.counters.memory_hit == "exact"
    assert second.counters.planner_calls == 0
    assert second.counters.mobile_steps == len(first.trace)
    assert second.trace == first.trace


def test_exact_replay_reinstalls_store_apps(backend):
    scenario, index, memory, search = build_world(backend)
    first = run_task(
        "Check the weather for tomorrow.", scenario, index, memory, search,
        ScriptedPlanner(KNOWLEDGE_SCRIPT), EffectReflector(), CONFIG,
    )
    assert first.outcome == "success"
    assert first.counters.installs == 1

    fresh_index = AppIndex.build(scenario.installed_apps, backend, threshold=0.3)
    second = run_task(
        "check the weather for tomorrow", scenario, fresh_index, memory, search,
        ScriptedPlanner([]), EffectReflector(), CONFIG,
    )
    assert second.outcome == "success"
    assert second.counters.planner_calls == 0
    assert second.counters.installs == 1
    assert second.counters.mobile_steps == len(first.trace)
    assert "com.weather" in fresh_index


def test_exact_replay_of_an_app_nowhere_aborts_at_its_launch(backend):
    scenario, index, memory, search = build_world(backend)
    first = run_task(
        "Check the weather for tomorrow.", scenario, index, memory, search,
        ScriptedPlanner(KNOWLEDGE_SCRIPT), EffectReflector(), CONFIG,
    )
    assert first.outcome == "success"
    launch = [s.action.kind for s in first.trace.steps].index("launch")

    # same memory, but a phone whose store no longer sells the weather app
    unsold = mini_scenario_dict()
    unsold["store_catalog"] = []
    del unsold["app_graphs"]["com.weather"]
    unsold_scenario = Scenario.from_dict(unsold)
    fresh_index = AppIndex.build(unsold_scenario.installed_apps, backend, threshold=0.3)
    second = run_task(
        "check the weather for tomorrow", unsold_scenario, fresh_index, memory, search,
        ScriptedPlanner([{"do": "finish", "success": False, "reason": "no app"}]),
        EffectReflector(), CONFIG,
    )
    assert second.counters.memory_hit == "exact"
    assert second.counters.installs == 0
    assert not [e for e in second.events if e["event"] == "install"]
    [replay_event] = [e for e in second.events if e["event"] == "replay"]
    assert replay_event["status"] == "aborted"
    assert replay_event["abort_index"] == launch
    assert replay_event["reason"] == "AppNotInstalledError"
    assert second.counters.planner_calls == 1  # planning resumed after the abort
    assert second.outcome == "failure"
    assert "com.weather" not in fresh_index


def test_aborted_replay_falls_back_to_planning(backend):
    scenario, index, memory, search = build_world(backend)
    run_task(
        "Set an alarm for 8 am.", scenario, index, memory, search,
        ScriptedPlanner(ALARM_SCRIPT), EffectReflector(), CONFIG,
    )
    # same memory, but a world where the alarm list lost its save button
    altered = mini_scenario_dict()
    screen = altered["app_graphs"]["com.clock"]["screens"]["alarm_list"]
    screen["elements"] = [e for e in screen["elements"] if e["element_id"] != "save_alarm"]
    del screen["transitions"]["tap:save_alarm"]
    altered_scenario = Scenario.from_dict(altered)
    fresh_index = AppIndex.build(altered_scenario.installed_apps, backend, threshold=0.3)
    recovery_script = [{"do": "finish", "success": False, "reason": "cannot save"}]
    second = run_task(
        "set an alarm for 8 am.", altered_scenario, fresh_index, memory, search,
        ScriptedPlanner(recovery_script), EffectReflector(), CONFIG,
    )
    assert second.counters.memory_hit == "exact"  # the hit stays exact; abort is logged
    assert second.counters.planner_calls == 1
    assert second.outcome == "failure"
    replay_events = [e for e in second.events if e["event"] == "replay"]
    assert replay_events and replay_events[0]["status"] == "aborted"
    # memory still holds the original record, unchanged
    assert len(memory) == 1
    assert memory.lookup("set an alarm for 8 am.").record.success_count == 1


def test_similar_match_provides_guidance(backend):
    scenario, index, memory, search = build_world(backend)
    run_task(
        "please open travel planner and book morning train tickets now",
        scenario, index, memory, search,
        ScriptedPlanner([{"do": "finish", "success": True}]),
        EffectReflector(),
        CONFIG,
    )
    fresh_index = AppIndex.build(scenario.installed_apps, backend, threshold=0.3)
    second = run_task(
        "please open travel planner and book morning train tickets soon",
        scenario, fresh_index, memory, search,
        ScriptedPlanner([{"do": "finish", "success": True}]),
        EffectReflector(),
        CONFIG,
    )
    assert second.counters.memory_hit == "similar"
    assert second.counters.planner_calls >= 1


def test_need_knowledge_costs_no_steps(backend):
    scenario, index, memory, search = build_world(backend)
    run = run_task(
        "Check the weather for tomorrow.", scenario, index, memory, search,
        ScriptedPlanner(KNOWLEDGE_SCRIPT), EffectReflector(), CONFIG,
    )
    assert run.counters.searches == 1
    # steps: launch + tap + stop; the knowledge call added none
    assert run.counters.mobile_steps == 3
    retrievals = [e for e in run.events if e["event"] == "retrieval" and e["stage"] == "web"]
    assert retrievals and retrievals[0]["results"] == 1


def test_store_install_flow_accounting(backend):
    scenario, index, memory, search = build_world(backend)
    run = run_task(
        "Check the weather for tomorrow.", scenario, index, memory, search,
        ScriptedPlanner(KNOWLEDGE_SCRIPT), EffectReflector(), CONFIG,
    )
    assert run.outcome == "success"
    assert run.counters.installs == 1
    assert run.app_selections == (
        ("weather forecast rain sunny", "com.weather"),
    )
    launches = [s for s in run.trace.steps if s.action.kind == "launch"]
    assert len(launches) == 1
    assert "com.weather" in index  # registered into the live index


def test_select_and_open_local_app_uses_one_step(backend):
    scenario = Scenario.from_dict(mini_scenario_dict())
    device = Device(scenario)
    index = AppIndex.build(scenario.installed_apps, backend, threshold=0.3)
    planner = ScriptedPlanner([{"do": "select_app", "query": "q", "pick": "com.clock"}])
    planner.plan  # planner cursor untouched; pick list already parsed
    result = select_and_open_app("alarm clock wake up", index, device, planner, CONFIG)
    assert result.package_id == "com.clock"
    assert len(device.history) == 1
    assert not result.installed_from_store
    assert device.observe().foreground_package == "com.clock"


def test_select_and_open_store_app_costs_install(backend):
    scenario = Scenario.from_dict(mini_scenario_dict())
    device = Device(scenario)
    index = AppIndex.build(scenario.installed_apps, backend, threshold=0.3)
    planner = ScriptedPlanner([{"do": "select_app", "query": "q", "pick": "com.weather"}])
    result = select_and_open_app(
        "weather forecast rain sunny", index, device, planner, CONFIG
    )
    assert result.package_id == "com.weather"
    assert len(device.history) == 1
    assert result.installed_from_store


def test_select_rejects_when_nothing_matches(backend):
    scenario = Scenario.from_dict(mini_scenario_dict())
    device = Device(scenario)
    index = AppIndex.build(scenario.installed_apps, backend, threshold=0.3)
    planner = ScriptedPlanner([])
    with pytest.raises(NoAppAnywhereError):
        select_and_open_app(
            "quantum yak grooming appointments", index, device, planner, CONFIG
        )


def test_no_app_anywhere_surfaces_to_planner(backend):
    scenario, index, memory, search = build_world(backend)
    script = [
        {"do": "select_app", "query": "quantum yak grooming appointments"},
        {"do": "finish", "success": False, "reason": "no app can do this"},
    ]
    run = run_task(
        "Groom a quantum yak.", scenario, index, memory, search,
        ScriptedPlanner(script), EffectReflector(), CONFIG,
    )
    assert run.outcome == "failure"
    assert run.app_selections == ()
    assert len(memory) == 0  # failures never touch the store


def test_failed_run_never_commits(backend):
    scenario, index, memory, search = build_world(backend)
    script = [{"do": "finish", "success": False, "reason": "gave up"}]
    before = memory.to_dict()
    run = run_task(
        "Set an alarm for 8 am.", scenario, index, memory, search,
        ScriptedPlanner(script), EffectReflector(), CONFIG,
    )
    assert run.outcome == "failure"
    assert memory.to_dict() == before
    assert run.trace.ends_with_stop  # stop is synthesized even on failure
    assert run.trace.steps[-1].action.success is False


def test_budget_exhaustion_planner_calls(backend):
    scenario, index, memory, search = build_world(backend)
    spin = [{"do": "act", "action": {"kind": "swipe", "direction": "up"}}] * 50
    config = AgentConfig(tau_local=0.3, max_steps=50, max_planner_calls=4)
    run = run_task(
        "Set an alarm for 8 am.", scenario, index, memory, search,
        ScriptedPlanner(spin), EffectReflector(), config,
    )
    assert run.outcome == "budget_exhausted"
    assert run.counters.planner_calls == 4
    assert len(memory) == 0


def test_budget_exhaustion_mobile_steps(backend):
    scenario, index, memory, search = build_world(backend)
    spin = [{"do": "act", "action": {"kind": "swipe", "direction": "up"}}] * 50
    config = AgentConfig(tau_local=0.3, max_steps=3, max_planner_calls=50)
    run = run_task(
        "Set an alarm for 8 am.", scenario, index, memory, search,
        ScriptedPlanner(spin), EffectReflector(), config,
    )
    assert run.outcome == "budget_exhausted"
    assert run.counters.mobile_steps == 3


def test_memory_first_invariant(backend):
    run = run_alarm(backend)
    events = [e["event"] for e in run.events]
    assert events.index("memory_lookup") < events.index("decision")


def test_run_is_deterministic(backend):
    left = run_alarm(backend)
    right = run_alarm(backend)
    assert left.to_dict() == right.to_dict()
    assert left.events == right.events


def test_task_run_serialization_round_trip(backend):
    run = run_alarm(backend)
    assert TaskRun.from_dict(run.to_dict()).to_dict() == run.to_dict()


def test_scenario_mismatch_detected(backend):
    scenario, _, memory, search = build_world(backend)
    wrong_index = AppIndex.build(
        [{"name": "Other", "package_id": "com.other", "description": "unrelated app"}],
        backend,
        threshold=0.3,
    )
    with pytest.raises(ScenarioMismatchError):
        run_task(
            "Set an alarm for 8 am.", scenario, wrong_index, memory, search,
            ScriptedPlanner(ALARM_SCRIPT), EffectReflector(), CONFIG,
        )


def test_budget_charges_a_store_install(backend):
    # launch (1 step) + install (INSTALL_STEP_COST) use up max_steps=2
    scenario, index, memory, search = build_world(backend)
    script = [
        {"do": "select_app", "query": "weather forecast rain sunny", "pick": "com.weather"},
        {"do": "act", "action": {"kind": "tap", "target": "forecast_tab"}},
        {"do": "finish", "success": True},
    ]
    config = AgentConfig(tau_local=0.3, max_steps=2, max_planner_calls=10)
    run = run_task(
        "Check the weather tomorrow.", scenario, index, memory, search,
        ScriptedPlanner(script), EffectReflector(), config,
    )
    assert INSTALL_STEP_COST == 1
    assert run.outcome == "budget_exhausted"
    assert run.counters.installs == 1
    assert [s.action.kind for s in run.trace.steps] == ["launch"]
    assert run.counters.planner_calls == 1


def test_a_failed_select_does_not_shift_later_picks(backend):
    # the first select finds nothing anywhere, so its pick is never confirmed;
    # the second select must still confirm its own pick
    scenario, _, memory, search = build_world(backend)
    index = AppIndex.build(scenario.installed_apps, backend, threshold=0.05)
    script = [
        {"do": "select_app", "query": "zebra xylophone quokka", "pick": "com.clock"},
        {"do": "select_app", "query": "alarms notes reminders", "pick": "com.notes"},
        {"do": "finish", "success": True},
    ]
    run = run_task(
        "Open my notes.", scenario, index, memory, search,
        ScriptedPlanner(script), EffectReflector(), AgentConfig(tau_local=0.05),
    )
    assert run.app_selections == (("alarms notes reminders", "com.notes"),)


def test_store_index_is_built_once_per_scenario(backend, monkeypatch):
    builds = []
    build = AppIndex.build.__func__

    def counting_build(cls, catalog, *args, **kwargs):
        builds.append(kwargs.get("installed", True))
        return build(cls, catalog, *args, **kwargs)

    monkeypatch.setattr(AppIndex, "build", classmethod(counting_build))
    scenario = Scenario.from_dict(mini_scenario_dict())
    assert builds == []  # never at construction
    for _ in range(2):
        device = Device(scenario)
        index = AppIndex.build(scenario.installed_apps, backend, threshold=0.3)
        planner = ScriptedPlanner([{"do": "select_app", "query": "q", "pick": "com.weather"}])
        result = select_and_open_app("weather forecast rain sunny", index, device, planner, CONFIG)
        assert result.installed_from_store
    # two local indexes, one store index shared by both misses
    assert builds == [True, False, True]
    assert scenario.store_index(backend, 0.3) is scenario.store_index(backend, 0.3)
    assert scenario.store_index(backend, 0.4) is not scenario.store_index(backend, 0.3)
    assert len(builds) == 4

    # a fresh scenario from the same data builds its own: no cross-scenario cache
    fresh = Scenario.from_dict(mini_scenario_dict())
    assert fresh.store_index(backend, 0.3) is not scenario.store_index(backend, 0.3)
    assert len(builds) == 5


def test_store_index_is_not_mutated_by_installs(backend):
    scenario, index, memory, search = build_world(backend)
    run = run_task(
        "Check the weather tomorrow.", scenario, index, memory, search,
        ScriptedPlanner(KNOWLEDGE_SCRIPT), EffectReflector(), CONFIG,
    )
    assert run.outcome == "success"
    store = scenario.store_index(backend, CONFIG.tau_local)
    assert [r.package_id for r in store.records()] == ["com.weather"]
    assert not store.get("com.weather").installed
    assert "com.weather" in index


class SaltedEmbedder:
    """A backend whose vectors depend on ``salt``; every instance has one name."""

    name = "http"

    def __init__(self, salt: str, dimension: int = 64) -> None:
        self.dimension = dimension
        self._salt = salt
        self._inner = HashedTokenEmbedder(dimension)

    def encode(self, text):
        return self._inner.encode(f"{self._salt} {text}")


def test_store_index_is_never_shared_between_different_backends():
    scenario = Scenario.from_dict(mini_scenario_dict())
    first, second = SaltedEmbedder("alpha"), SaltedEmbedder("omega")
    first_index = scenario.store_index(first, 0.3)
    second_index = scenario.store_index(second, 0.3)
    assert second_index is not first_index
    assert second_index.backend is second
    assert second_index.get("com.weather").embedding != first_index.get("com.weather").embedding
    assert scenario.store_index(first, 0.3) is first_index


def test_store_index_is_shared_between_equal_backends():
    scenario = Scenario.from_dict(mini_scenario_dict())
    index = scenario.store_index(HashedTokenEmbedder(64), 0.3)
    assert scenario.store_index(HashedTokenEmbedder(64), 0.3) is index
    assert scenario.store_index(HashedTokenEmbedder(32), 0.3) is not index


def test_saved_store_index_labels_its_records_as_store_catalog(backend, tmp_path):
    scenario = Scenario.from_dict(mini_scenario_dict())
    path = tmp_path / "store.json"
    scenario.store_index(backend, 0.3).save(path)
    labels = [(a["package_id"], a["installed"], a["source"])
              for a in json.loads(path.read_text())["apps"]]
    assert labels == [("com.weather", False, "store_catalog")]
    assert [(r.installed, r.source) for r in AppIndex.load(path).records()] == [
        (False, "store_catalog")
    ]
    data = json.loads(path.read_text())  # a file without labels: installed decides
    del data["apps"][0]["source"]
    path.write_text(json.dumps(data))
    assert AppIndex.load(path).get("com.weather").source == "store_catalog"


# texts whose signed token hashes cancel to the zero vector in 384 dimensions
UNEMBEDDABLE = ["food browser", "zudami vaperi dizopa nezege"]


@pytest.mark.parametrize("text", UNEMBEDDABLE)
def test_unembeddable_instruction_misses_a_nonempty_memory(backend, text):
    scenario, index, memory, search = build_world(backend)
    run_alarm(backend, memory=memory)  # one record, so lookup has to embed
    script = [{"do": "finish", "success": False, "reason": "gave up"}]
    run = run_task(
        text, scenario, index, memory, search,
        ScriptedPlanner(script), EffectReflector(), CONFIG,
    )
    assert run.outcome == "failure"
    assert run.counters.memory_hit == "none"
    assert run.events[0] == {"event": "memory_lookup", "hit": "none"}


@pytest.mark.parametrize("text", UNEMBEDDABLE)
def test_unembeddable_successful_run_is_not_committed(backend, text):
    scenario, index, memory, search = build_world(backend)
    run = run_alarm(backend, memory=memory, instruction=text)
    assert run.outcome == "success"
    assert len(memory) == 0
    assert {"event": "memory_commit", "query": text, "skipped": "unembeddable"} in run.events


@pytest.mark.parametrize("text", UNEMBEDDABLE)
def test_unembeddable_app_query_is_no_app_anywhere(backend, text):
    scenario, index, memory, search = build_world(backend)
    with pytest.raises(NoAppAnywhereError):
        select_and_open_app(text, index, Device(scenario), ScriptedPlanner([]), CONFIG)
    script = [
        {"do": "select_app", "query": text},
        {"do": "finish", "success": False, "reason": "no app can do this"},
    ]
    run = run_task(
        "Open something.", scenario, index, memory, search,
        ScriptedPlanner(script), EffectReflector(), CONFIG,
    )
    assert run.outcome == "failure"
    assert run.app_selections == ()
    assert {"event": "retrieval", "stage": "apps", "query": text, "found": False} in run.events


def test_two_runs_on_one_scenario_build_its_home_grid_once(backend, monkeypatch):
    # the home grid and the screen graphs belong to the scenario: the first
    # task run builds the two icons and the graph of the one app it launches,
    # and a second run, on a new device of the same scenario, builds nothing
    scenario, index, _, search = build_world(backend)
    built = []  # the element ids built in each run
    check = UiElement.__post_init__

    def counted(self):
        built[-1].append(self.element_id)
        check(self)

    monkeypatch.setattr(UiElement, "__post_init__", counted)
    for _ in range(2):
        built.append([])
        run = run_task(
            instruction="Set an alarm for 8 am.",
            scenario=scenario,
            index=index,
            memory=MemoryStore(backend),  # empty, so both runs plan from the home screen
            search_backend=search,
            planner=ScriptedPlanner(ALARM_SCRIPT),
            reflector=EffectReflector(),
            config=CONFIG,
        )
        assert run.outcome == "success"
    assert built == [
        ["icon_com.clock", "icon_com.notes", "alarms_tab", "time_field", "save_alarm"],
        [],
    ]


# the mini scenario's vocabulary: element ids (home icons included), app
# queries that hit Clock, Notes, the store's Weather and nothing, and
# instructions whose repeats hit memory exactly or similarly
ELEMENT_IDS = [
    "icon_com.clock", "icon_com.notes", "alarms_tab", "time_field", "save_alarm",
    "new_note", "note_body", "forecast_tab", "tomorrow_row",
]
APP_QUERIES = ["alarm clock wake up", "write notes lists", "weather forecast rain sunny", "violin harbor pottery"]
INSTRUCTIONS = ["Set an alarm for 8 am.", "set an alarm for 8 am", "set an alarm for 9 am", "Check the weather."]
SMALL_BUDGET = AgentConfig(tau_local=0.3, max_steps=8, max_planner_calls=10)

acts = st.one_of(
    st.builds(lambda t: {"kind": "tap", "target": t}, st.sampled_from(ELEMENT_IDS)),
    st.builds(
        lambda t, x: {"kind": "type", "target": t, "text": x},
        st.sampled_from(ELEMENT_IDS),
        st.sampled_from(["08:00", "milk"]),
    ),
    st.builds(lambda d: {"kind": "swipe", "direction": d}, st.sampled_from(SWIPE_DIRECTIONS)),
    st.just({"kind": "back"}),
    st.builds(lambda ok: {"kind": "stop", "success": ok}, st.booleans()),
)
scripts = st.lists(
    st.one_of(
        st.builds(
            lambda q, p: {"do": "select_app", "query": q, "pick": p},
            st.sampled_from(APP_QUERIES),
            st.sampled_from([None, "com.clock", "com.notes", "com.weather"]),
        ),
        st.builds(lambda a: {"do": "act", "action": a}, acts),
        st.builds(lambda e: {"do": "need_knowledge", "entities": e}, st.sampled_from([["tomorrow weather"], []])),
        st.builds(lambda ok: {"do": "finish", "success": ok}, st.booleans()),
    ),
    max_size=14,
)


def assert_counters_match_events(run):
    events, counters = run.events, run.counters
    kinds = [e["event"] for e in events]
    assert counters.planner_calls == kinds.count("decision") <= SMALL_BUDGET.max_planner_calls
    assert counters.searches == sum(e["event"] == "retrieval" and e["stage"] == "web" for e in events)
    assert counters.installs == kinds.count("install")
    assert run.app_selections == tuple((e["query"], e["package"]) for e in events if e["event"] == "selection")
    assert [(i, v.ok, v.diagnosis) for i, v in run.reflections] == [
        (e["index"], e["ok"], e["diagnosis"]) for e in events if e["event"] == "reflection"
    ]
    replayed = sum(e["actions"] for e in events if e["event"] == "replay")
    assert len(run.trace) == counters.mobile_steps == kinds.count("action") + replayed
    assert [counters.memory_hit] == [e["hit"] for e in events if e["event"] == "memory_lookup"]
    assert kinds[-1] == "run_end"


@given(scripts, st.sampled_from(INSTRUCTIONS), st.sampled_from(INSTRUCTIONS))
@example(KNOWLEDGE_SCRIPT, "Check the weather.", "Check the weather.")  # a store install, then its replay
@example(ALARM_SCRIPT, "Set an alarm for 8 am.", "set an alarm for 9 am")  # a similar hit
def test_counters_and_selections_match_the_event_log(script, first, second):
    # two runs on one memory, each on a fresh index, so the second replays
    # (and reinstalls) what the first committed when their texts match
    backend = HashedTokenEmbedder()
    scenario, _, memory, search = build_world(backend)
    for instruction in (first, second):
        index = AppIndex.build(scenario.installed_apps, backend, threshold=SMALL_BUDGET.tau_local)
        run = run_task(
            instruction, scenario, index, memory, search,
            ScriptedPlanner(script), EffectReflector(), SMALL_BUDGET,
        )
        assert_counters_match_events(run)
