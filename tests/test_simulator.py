"""Device semantics: observation purity, action effects, store, determinism."""

from __future__ import annotations

import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocketrag.bench import load_pack
from pocketrag.errors import (
    AppNotInstalledError,
    DeviceStoppedError,
    NotInStoreError,
    ScenarioError,
)
from pocketrag.simulator import (
    _ACTION_FIELD_TYPES,
    SWIPE_DIRECTIONS,
    Action,
    ActionTrace,
    Device,
    Scenario,
    UiElement,
)
from pocketrag.task_memory import MemoryRecord, replay

from conftest import PACK_DIR, mini_scenario_dict


def fresh_device() -> Device:
    return Device(Scenario.from_dict(mini_scenario_dict()))


def test_initial_state_is_home_with_icons(mini_scenario):
    device = Device(mini_scenario)
    state = device.observe()
    assert state.foreground_package == "home"
    assert state.screen_id == "home"
    assert state.element_ids() == {"icon_com.clock", "icon_com.notes"}


def test_observe_is_pure(mini_scenario):
    device = Device(mini_scenario)
    first = device.observe()
    second = device.observe()
    assert first == second
    assert len(device.history) == 0


def test_launch_enters_entry_screen(mini_scenario):
    device = Device(mini_scenario)
    step = device.execute(Action.launch("com.clock"))
    state = device.observe()
    assert state.foreground_package == "com.clock"
    assert state.screen_id == "clock_home"
    assert step.effect == "transitioned"
    assert len(device.history) == 1


def test_launch_not_installed_raises(mini_scenario):
    device = Device(mini_scenario)
    with pytest.raises(AppNotInstalledError):
        device.execute(Action.launch("com.weather"))
    assert len(device.history) == 0  # failed launches are not steps


def test_tap_with_transition(mini_scenario):
    device = Device(mini_scenario)
    device.execute(Action.launch("com.clock"))
    step = device.execute(Action.tap("alarms_tab"))
    assert step.effect == "transitioned"
    assert device.observe().screen_id == "alarm_list"


def test_tap_unknown_target_is_noop(mini_scenario):
    device = Device(mini_scenario)
    device.execute(Action.launch("com.clock"))
    step = device.execute(Action.tap("no_such_element"))
    assert step.effect == "no_op"
    assert step.pre_screen_id == step.post_screen_id == "clock_home"


def test_type_stores_text_into_flag(mini_scenario):
    device = Device(mini_scenario)
    device.execute(Action.launch("com.clock"))
    device.execute(Action.tap("alarms_tab"))
    step = device.execute(Action.type_text("time_field", "08:00"))
    assert step.effect == "flag_update"
    assert step.flag_changes == (("alarm_input", "08:00"),)
    assert device.observe().state_flags["alarm_input"] == "08:00"


def test_flag_reference_substitution(mini_scenario):
    device = Device(mini_scenario)
    device.execute(Action.launch("com.clock"))
    device.execute(Action.tap("alarms_tab"))
    device.execute(Action.type_text("time_field", "07:45"))
    step = device.execute(Action.tap("save_alarm"))
    assert step.flag_changes == (("alarm_set", "07:45"),)


def test_retype_same_text_is_noop(mini_scenario):
    device = Device(mini_scenario)
    device.execute(Action.launch("com.clock"))
    device.execute(Action.tap("alarms_tab"))
    device.execute(Action.type_text("time_field", "06:00"))
    step = device.execute(Action.type_text("time_field", "06:00"))
    assert step.effect == "no_op"


def test_back_pops_stack_then_home(mini_scenario):
    device = Device(mini_scenario)
    device.execute(Action.launch("com.clock"))
    device.execute(Action.tap("alarms_tab"))
    step = device.execute(Action.back())
    assert step.post_screen_id == "clock_home"
    step = device.execute(Action.back())
    assert step.post_screen_id == "home"
    assert device.observe().foreground_package == "home"
    step = device.execute(Action.back())
    assert step.effect == "no_op"


def test_home_icon_tap_launches(mini_scenario):
    device = Device(mini_scenario)
    step = device.execute(Action.tap("icon_com.clock"))
    assert step.effect == "transitioned"
    assert device.observe().foreground_package == "com.clock"


def test_stop_freezes_device(mini_scenario):
    device = Device(mini_scenario)
    step = device.execute(Action.stop(True))
    assert step.effect == "no_op"
    assert device.stopped
    with pytest.raises(DeviceStoppedError):
        device.execute(Action.back())


def test_swipe_without_transition_is_noop(mini_scenario):
    device = Device(mini_scenario)
    device.execute(Action.launch("com.clock"))
    step = device.execute(Action.swipe("up"))
    assert step.effect == "no_op"


def test_install_from_store(mini_scenario):
    device = Device(mini_scenario)
    seed = device.install_from_store("com.weather")
    assert seed.package_id == "com.weather"
    assert sorted(device.installed_ids) == ["com.clock", "com.notes", "com.weather"]
    step = device.execute(Action.launch("com.weather"))
    assert step.effect == "transitioned"
    # new icon appears on home
    device.execute(Action.back())
    assert "icon_com.weather" in device.observe().element_ids()


def test_install_missing_package(mini_scenario):
    device = Device(mini_scenario)
    with pytest.raises(NotInStoreError):
        device.install_from_store("com.nowhere")


def test_install_already_installed_is_warning_not_error(mini_scenario, caplog):
    device = Device(mini_scenario)
    seed = device.install_from_store("com.clock")
    assert seed.package_id == "com.clock"
    assert sorted(device.installed_ids) == ["com.clock", "com.notes"]


def test_alarm_scripted_sequence_sets_flag(mini_scenario):
    device = Device(mini_scenario)
    for action in [
        Action.launch("com.clock"),
        Action.tap("alarms_tab"),
        Action.type_text("time_field", "08:00"),
        Action.tap("save_alarm"),
        Action.stop(True),
    ]:
        device.execute(action)
    assert device.observe().state_flags["alarm_set"] == "08:00"
    assert len(device.history) == 5


def test_determinism_across_devices(mini_scenario):
    rng = random.Random(123)
    actions = []
    pool = [
        Action.launch("com.clock"),
        Action.tap("alarms_tab"),
        Action.tap("icon_com.notes"),
        Action.type_text("time_field", "05:00"),
        Action.tap("save_alarm"),
        Action.back(),
        Action.swipe("down"),
        Action.tap("new_note"),
        Action.type_text("note_body", "hello"),
    ]
    for _ in range(60):
        actions.append(rng.choice(pool))

    def run(scenario_dict):
        device = Device(Scenario.from_dict(scenario_dict))
        steps = []
        for action in actions:
            try:
                steps.append(device.execute(action))
            except AppNotInstalledError:
                steps.append(None)
        return steps, device.observe()

    steps_a, final_a = run(mini_scenario_dict())
    steps_b, final_b = run(mini_scenario_dict())
    assert steps_a == steps_b
    assert final_a == final_b


def test_closure_over_declared_screens(mini_scenario):
    declared = {
        screen_id
        for graph in mini_scenario.app_graphs.values()
        for screen_id in graph.screens
    } | {"home"}
    rng = random.Random(9)
    device = Device(mini_scenario)
    pool = [
        Action.launch("com.clock"),
        Action.launch("com.notes"),
        Action.tap("alarms_tab"),
        Action.tap("new_note"),
        Action.back(),
        Action.swipe("left"),
        Action.tap("save_alarm"),
    ]
    for _ in range(200):
        try:
            device.execute(rng.choice(pool))
        except AppNotInstalledError:
            pass
        assert device.observe().screen_id in declared


def test_action_validation():
    with pytest.raises(ValueError):
        Action(kind="tap")
    with pytest.raises(ValueError):
        Action(kind="type", target="x")
    with pytest.raises(ValueError):
        Action(kind="swipe", direction="sideways")
    with pytest.raises(ValueError):
        Action(kind="stop")
    with pytest.raises(ValueError):
        Action(kind="nonsense")


def test_action_serialization_round_trip():
    actions = [
        Action.tap("x"),
        Action.type_text("y", "text"),
        Action.swipe("up"),
        Action.back(),
        Action.stop(False),
        Action.launch("com.app"),
    ]
    for action in actions:
        assert Action.from_dict(action.to_dict()) == action


def test_action_field_types_are_the_action_fields_in_order():
    assert list(_ACTION_FIELD_TYPES) == [f.name for f in dataclasses.fields(Action)]
    assert list(Action.type_text("y", "text").to_dict()) == ["kind", "target", "text"]
    with pytest.raises(KeyError):
        Action.from_dict({"target": "x"})


def test_trace_serialization_round_trip(mini_scenario):
    device = Device(mini_scenario)
    device.execute(Action.launch("com.clock"))
    device.execute(Action.tap("alarms_tab"))
    device.execute(Action.type_text("time_field", "09:15"))
    device.execute(Action.stop(True))
    trace = ActionTrace(steps=tuple(device.history))
    assert ActionTrace.from_jsonable(trace.to_jsonable()) == trace


def test_ui_element_validation():
    with pytest.raises(ScenarioError):
        UiElement("id", "nonsense_role")
    with pytest.raises(ScenarioError):
        UiElement("id", "button", bounds=(0, 0, 0, 10))


def test_scenario_validation_rejects_dangling_transition():
    data = mini_scenario_dict()
    data["app_graphs"]["com.clock"]["screens"]["clock_home"]["transitions"][
        "tap:alarms_tab"
    ] = {"next": "missing_screen"}
    with pytest.raises(ScenarioError):
        Scenario.from_dict(data)


def test_scenario_validation_rejects_duplicate_elements():
    data = mini_scenario_dict()
    elements = data["app_graphs"]["com.clock"]["screens"]["clock_home"]["elements"]
    elements.append(dict(elements[0]))
    with pytest.raises(ScenarioError):
        Scenario.from_dict(data)


def test_scenario_validation_requires_graph_for_installed():
    data = mini_scenario_dict()
    del data["app_graphs"]["com.notes"]
    with pytest.raises(ScenarioError):
        Scenario.from_dict(data)


def test_scenario_rejects_conflicting_catalog_overlap():
    data = mini_scenario_dict()
    data["store_catalog"].append(
        {
            "name": "Clock2",
            "package_id": "com.clock",
            "description": "different description entirely",
        }
    )
    with pytest.raises(ScenarioError):
        Scenario.from_dict(data)


def test_typed_text_is_stored_literally():
    device = Device(Scenario.from_file(f"{PACK_DIR}/scenarios/alarm_basic.json"))
    for action in (
        Action.launch("com.deskos.clock"),
        Action.tap("alarms_tab"),
        Action.tap("add_alarm"),
        Action.type_text("time_field", "08:00"),
        Action.tap("save_alarm"),
        Action.launch("com.deskos.notes"),
        Action.tap("new_note"),
        Action.type_text("note_body", "{flag:alarm_set}"),
    ):
        device.execute(action)
    flags = device.observe().state_flags
    assert flags["alarm_set"] == "08:00"
    assert flags["note_draft"] == "{flag:alarm_set}"
    device.execute(Action.tap("save_note"))
    # a flag value is inserted as it is, never expanded again
    assert device.observe().state_flags["note_saved"] == "{flag:alarm_set}"


def test_typed_text_placeholder_is_not_expanded(mini_scenario):
    device = Device(mini_scenario)
    device.execute(Action.launch("com.clock"))
    device.execute(Action.tap("alarms_tab"))
    device.execute(Action.type_text("time_field", "{text} at {flag:missing}"))
    device.execute(Action.tap("save_alarm"))
    assert device.observe().state_flags["alarm_set"] == "{text} at {flag:missing}"


TYPED_TEXTS = ("08:00", "milk", "{text}", "{flag:x}", "")


def play_random_actions(data, device: Device, count: int) -> list[Action]:
    """Draw and execute ``count`` actions, each valid on the screen it meets.

    Taps and types target an element of the current screen; swipes, back
    and launches of installed apps may be drawn anywhere.
    """
    actions = []
    for _ in range(count):
        element_ids = sorted(device.observe().element_ids())
        kinds = ["swipe", "back", "launch"] + (["tap", "type"] if element_ids else [])
        kind = data.draw(st.sampled_from(kinds))
        if kind == "tap":
            action = Action.tap(data.draw(st.sampled_from(element_ids)))
        elif kind == "type":
            action = Action.type_text(
                data.draw(st.sampled_from(element_ids)), data.draw(st.sampled_from(TYPED_TEXTS))
            )
        elif kind == "swipe":
            action = Action.swipe(data.draw(st.sampled_from(SWIPE_DIRECTIONS)))
        elif kind == "back":
            action = Action.back()
        else:
            action = Action.launch(data.draw(st.sampled_from(sorted(device.installed_ids))))
        device.execute(action)
        actions.append(action)
    return actions


@functools.cache
def desk_scenarios() -> list[Scenario]:
    return sorted(load_pack(PACK_DIR).scenarios.values(), key=lambda s: s.scenario_id)


@settings(max_examples=60)
@given(st.integers(0, 30), st.data())
def test_random_actions_are_deterministic(count, data):
    # the first device is observed before every step, the second never is
    scenario = data.draw(st.sampled_from(desk_scenarios()))
    first = Device(scenario)
    actions = play_random_actions(data, first, count)
    second = Device(scenario)
    for action in actions:
        second.execute(action)
    assert second.history == first.history
    assert second.observe() == first.observe()


@settings(max_examples=60)
@given(st.integers(0, 30), st.booleans(), st.data())
def test_replaying_a_stopped_trace_reproduces_flags_and_screen(count, success, data):
    scenario = data.draw(st.sampled_from(desk_scenarios()))
    device = Device(scenario)
    play_random_actions(data, device, count)
    device.execute(Action.stop(success))
    trace = ActionTrace(steps=tuple(device.history))
    record = MemoryRecord("task", "task", trace, created_at=1.0)

    fresh = Device(scenario)
    outcome = replay(record, fresh)
    assert outcome.completed
    assert outcome.actions_executed == len(trace)
    assert fresh.history == device.history
    assert fresh.observe() == device.observe()


def store_world() -> Scenario:
    """Six installed apps and eight store apps, each with a one-screen graph."""

    def seed(prefix, i):
        return {"name": f"{prefix.title()} {i}", "package_id": f"com.{prefix}{i}",
                "description": f"{prefix} app number {i}"}

    installed = [seed("local", i) for i in range(6)]
    store = [seed("store", i) for i in range(8)]
    graph = {"entry": "main", "screens": {"main": {"elements": [{"element_id": "go", "role": "button"}]}}}
    return Scenario.from_dict({
        "scenario_id": "store-world",
        "installed_apps": installed,
        "store_catalog": store,
        "app_graphs": {app["package_id"]: graph for app in installed + store},
    })


def home_of(scenario: Scenario, installed: list) -> tuple[UiElement, ...]:
    """The home screen of a new device on a copy of ``scenario`` with ``installed`` preinstalled."""
    copy = Scenario(scenario.scenario_id, installed, scenario.store_catalog, scenario.app_graphs)
    return Device(copy).observe().elements


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 7) | st.none()), max_size=14))
def test_home_reflects_each_devices_own_installs(ops):
    # ops: (device, store app to install, or None to observe only)
    scenario = store_world()
    devices = [Device(scenario), Device(scenario)]
    installed = [list(scenario.installed_apps), list(scenario.installed_apps)]
    for which, store_app in ops:
        if store_app is not None:
            seed = devices[which].install_from_store(f"com.store{store_app}")
            if seed not in installed[which]:
                installed[which].append(seed)
        for device, apps in zip(devices, installed):
            assert device.observe().elements == home_of(scenario, apps)
    assert Device(scenario).observe().elements == home_of(scenario, scenario.installed_apps)
