"""Shared fixtures: a reference backend, a small self-contained world, and
a Hypothesis profile and JSON strategy for the property tests."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from pocketrag.embedding import HashedTokenEmbedder
from pocketrag.simulator import Scenario

PACK_DIR = "packs/desk"

# Examples embed, simulate and load files; their time varies too much for a deadline.
settings.register_profile("pocketrag", deadline=None)
settings.load_profile("pocketrag")

# Every key that some input file format or planner reply reads, so that
# generated objects reach past the first missing-key check.
INPUT_KEYS = (
    "agent embedder live_planner search tau_local tau_mem k_apps max_steps max_planner_calls "
    "apps name app_name package_id description backend dimension threshold embedding "
    "installed source records query normalized_query trace created_at success_count seq "
    "capacity action kind target text direction package success pre_screen post_screen "
    "effect flag_changes scenario_id installed_apps store_catalog app_graphs entry screens "
    "elements element_id role bounds transitions next flags initial foreground "
    "search_fixtures task_id instruction tier scenario ground_truth expected_apps "
    "expected_actions sub_goals flag equals screen script do pick entities reason decision "
    "scenarios tasks suites stats agent_config default repeat"
).split()


def json_values():
    """Any JSON value; object keys are mostly the keys the input formats read."""
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=8)
    )
    keys = st.sampled_from(INPUT_KEYS) | st.text(max_size=4)
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(keys, children, max_size=5),
        max_leaves=12,
    )


@pytest.fixture(scope="session")
def backend():
    return HashedTokenEmbedder()


def mini_scenario_dict() -> dict:
    """One installed clock app, one store weather app, a couple of fixtures."""
    return {
        "scenario_id": "mini",
        "installed_apps": [
            {
                "name": "Clock",
                "package_id": "com.clock",
                "description": "alarms timers clock wake up schedule mornings",
            },
            {
                "name": "Notes",
                "package_id": "com.notes",
                "description": "write notes lists reminders text saved",
            },
        ],
        "store_catalog": [
            {
                "name": "Weather",
                "package_id": "com.weather",
                "description": "weather forecast rain temperature sunny outlook",
            }
        ],
        "app_graphs": {
            "com.clock": {
                "entry": "clock_home",
                "screens": {
                    "clock_home": {
                        "elements": [
                            {
                                "element_id": "alarms_tab",
                                "role": "button",
                                "text": "Alarms",
                                "bounds": [0, 0, 100, 100],
                            }
                        ],
                        "transitions": {"tap:alarms_tab": {"next": "alarm_list"}},
                    },
                    "alarm_list": {
                        "elements": [
                            {
                                "element_id": "time_field",
                                "role": "text_field",
                                "text": "",
                                "bounds": [0, 120, 100, 100],
                            },
                            {
                                "element_id": "save_alarm",
                                "role": "button",
                                "text": "Save",
                                "bounds": [0, 240, 100, 100],
                            },
                        ],
                        "transitions": {
                            "type:time_field": {"flags": {"alarm_input": "{text}"}},
                            "tap:save_alarm": {
                                "flags": {"alarm_set": "{flag:alarm_input}"}
                            },
                        },
                    },
                },
            },
            "com.notes": {
                "entry": "notes_home",
                "screens": {
                    "notes_home": {
                        "elements": [
                            {
                                "element_id": "new_note",
                                "role": "button",
                                "text": "+",
                                "bounds": [0, 0, 100, 100],
                            }
                        ],
                        "transitions": {"tap:new_note": {"next": "note_editor"}},
                    },
                    "note_editor": {
                        "elements": [
                            {
                                "element_id": "note_body",
                                "role": "text_field",
                                "text": "",
                                "bounds": [0, 0, 100, 100],
                            }
                        ],
                        "transitions": {
                            "type:note_body": {"flags": {"note_text": "{text}"}}
                        },
                    },
                },
            },
            "com.weather": {
                "entry": "weather_home",
                "screens": {
                    "weather_home": {
                        "elements": [
                            {
                                "element_id": "forecast_tab",
                                "role": "button",
                                "text": "Forecast",
                                "bounds": [0, 0, 100, 100],
                            }
                        ],
                        "transitions": {"tap:forecast_tab": {"next": "forecast"}},
                    },
                    "forecast": {
                        "elements": [
                            {
                                "element_id": "tomorrow_row",
                                "role": "label",
                                "text": "Tomorrow 72F",
                                "bounds": [0, 0, 100, 100],
                            }
                        ],
                        "transitions": {},
                    },
                },
            },
        },
        "initial": {"foreground": "home", "screen_id": "home", "flags": {}},
        "search_fixtures": {
            "weather tomorrow": [
                {
                    "title": "Tomorrow stays sunny",
                    "summary": "Expect 72F and clear skies.",
                    "url": "https://wx.example/tomorrow",
                }
            ]
        },
    }


@pytest.fixture()
def mini_scenario() -> Scenario:
    return Scenario.from_dict(mini_scenario_dict())


ALARM_SCRIPT = [
    {"do": "select_app", "query": "alarm clock wake up", "pick": "com.clock"},
    {"do": "act", "action": {"kind": "tap", "target": "alarms_tab"}},
    {"do": "act", "action": {"kind": "type", "target": "time_field", "text": "08:00"}},
    {"do": "act", "action": {"kind": "tap", "target": "save_alarm"}},
    {"do": "finish", "success": True},
]
