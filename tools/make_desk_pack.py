#!/usr/bin/env python3
"""Regenerate the shipped desk benchmark pack under packs/desk.

The pack is committed as static data; this script exists so the manifest's
frozen statistics and the scenario/task JSON stay consistent when edited.
Run from the repository root:

    python3 tools/make_desk_pack.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from pocketrag.bench import compute_stats, load_pack, validate_pack  # noqa: E402

PACK_DIR = REPO / "packs" / "desk"


def el(element_id: str, role: str, text: str, slot: int) -> dict:
    return {
        "element_id": element_id,
        "role": role,
        "text": text,
        "bounds": [40, 150 + slot * 190, 1000, 160],
    }


def screen(elements: list[dict], transitions: dict) -> dict:
    return {"elements": elements, "transitions": transitions}


# --- app catalog ---------------------------------------------------------

APPS = {
    "clock": {
        "name": "Clock",
        "package_id": "com.deskos.clock",
        "description": "Alarms, timers and a stopwatch. Set a wake up alarm or countdown timer quickly.",
    },
    "notes": {
        "name": "Notes",
        "package_id": "com.deskos.notes",
        "description": "Write notes, reminders and checklists. Keep your notes organised and saved.",
    },
    "messages": {
        "name": "Messages",
        "package_id": "com.deskos.messages",
        "description": "Send and receive text messages. Chat with friends and contacts in threads.",
    },
    "tunewave": {
        "name": "TuneWave",
        "package_id": "com.tunewave.music",
        "description": "Stream music online: songs, albums, playlists and artist radio for every mood.",
    },
    "melodeon": {
        "name": "Melodeon",
        "package_id": "com.melodeon.player",
        "description": "Local music player for downloaded songs with playlists and an equalizer.",
    },
    "cinemax": {
        "name": "CineMax",
        "package_id": "com.cinemax.tv",
        "description": "Stream movies and TV series, manage your watchlist and rate shows.",
    },
    "mapnav": {
        "name": "MapNav",
        "package_id": "com.mapnav.go",
        "description": "Maps and navigation with nearby places, directions and live traffic.",
    },
    "calendar": {
        "name": "Calendar",
        "package_id": "com.deskos.calendar",
        "description": "Calendar with events, schedules and date reminders at a glance.",
    },
    "mail": {
        "name": "Mail",
        "package_id": "com.deskos.mail",
        "description": "Email client to compose, send and read mail across your accounts.",
    },
    "streamflix": {
        "name": "StreamFlix",
        "package_id": "com.streamflix.video",
        "description": "Stream exclusive series and films, including Korean survival drama Squid Game and top box sets.",
    },
    "podcastle": {
        "name": "Podcastle",
        "package_id": "com.podcastle.audio",
        "description": "Podcasts app: discover trending shows, subscribe and listen to episodes.",
    },
    "weatherly": {
        "name": "Weatherly",
        "package_id": "com.weatherly.app",
        "description": "Weather forecasts: hourly temperature, rain radar and tomorrow outlook.",
    },
    "chirper": {
        "name": "Chirper",
        "package_id": "com.chirper.social",
        "description": "Short posts social feed. Follow accounts, read and publish chirps.",
    },
    "fitpulse": {
        "name": "FitPulse",
        "package_id": "com.fitpulse.health",
        "description": "Workout tracking for runs, steps and heart rate with daily goals.",
    },
}

PKG = {key: value["package_id"] for key, value in APPS.items()}


# --- screen graphs ---------------------------------------------------------


def clock_graph() -> dict:
    return {
        "entry": "clock_home",
        "screens": {
            "clock_home": screen(
                [
                    el("alarms_tab", "button", "Alarms", 0),
                    el("timer_tab", "button", "Timer", 1),
                    el("stopwatch_tab", "button", "Stopwatch", 2),
                ],
                {
                    "tap:alarms_tab": {"next": "clock_alarm_list"},
                    "tap:timer_tab": {"next": "clock_timer"},
                },
            ),
            "clock_alarm_list": screen(
                [
                    el("add_alarm", "button", "+", 0),
                    el("alarm_row_1", "list_item", "07:00 weekdays", 1),
                ],
                {"tap:add_alarm": {"next": "clock_alarm_editor"}},
            ),
            "clock_alarm_editor": screen(
                [
                    el("time_field", "text_field", "", 0),
                    el("save_alarm", "button", "Save", 1),
                ],
                {
                    "type:time_field": {"flags": {"alarm_time_input": "{text}"}},
                    "tap:save_alarm": {
                        "next": "clock_alarm_list",
                        "flags": {"alarm_set": "{flag:alarm_time_input}"},
                    },
                },
            ),
            "clock_timer": screen(
                [
                    el("minutes_field", "text_field", "", 0),
                    el("start_timer", "button", "Start", 1),
                ],
                {
                    "type:minutes_field": {"flags": {"timer_minutes_input": "{text}"}},
                    "tap:start_timer": {
                        "flags": {"timer_running": "{flag:timer_minutes_input}"}
                    },
                },
            ),
        },
    }


def notes_graph() -> dict:
    return {
        "entry": "notes_home",
        "screens": {
            "notes_home": screen(
                [
                    el("new_note", "button", "+", 0),
                    el("search_notes", "text_field", "", 1),
                ],
                {"tap:new_note": {"next": "notes_editor"}},
            ),
            "notes_editor": screen(
                [
                    el("note_body", "text_field", "", 0),
                    el("save_note", "button", "Save", 1),
                ],
                {
                    "type:note_body": {"flags": {"note_draft": "{text}"}},
                    "tap:save_note": {
                        "next": "notes_home",
                        "flags": {"note_saved": "{flag:note_draft}"},
                    },
                },
            ),
        },
    }


def messages_graph() -> dict:
    return {
        "entry": "msg_home",
        "screens": {
            "msg_home": screen(
                [
                    el("new_message", "button", "New", 0),
                    el("thread_jelly", "list_item", "Jelly", 1),
                    el("thread_mike", "list_item", "Mike", 2),
                ],
                {
                    "tap:thread_jelly": {"next": "msg_chat_jelly"},
                    "tap:thread_mike": {"next": "msg_chat_mike"},
                },
            ),
            "msg_chat_jelly": screen(
                [
                    el("message_input", "text_field", "", 0),
                    el("send_button", "button", "Send", 1),
                ],
                {
                    "type:message_input": {"flags": {"message_draft": "{text}"}},
                    "tap:send_button": {
                        "flags": {"message_sent_jelly": "{flag:message_draft}"}
                    },
                },
            ),
            "msg_chat_mike": screen(
                [
                    el("message_input", "text_field", "", 0),
                    el("send_button", "button", "Send", 1),
                ],
                {
                    "type:message_input": {"flags": {"message_draft": "{text}"}},
                    "tap:send_button": {
                        "flags": {"message_sent_mike": "{flag:message_draft}"}
                    },
                },
            ),
        },
    }


def tunewave_graph() -> dict:
    return {
        "entry": "tw_home",
        "screens": {
            "tw_home": screen(
                [
                    el("search_box", "text_field", "", 0),
                    el("search_go", "button", "Search", 1),
                    el("library_tab", "button", "Library", 2),
                ],
                {
                    "type:search_box": {"flags": {"tw_query": "{text}"}},
                    "tap:search_go": {"next": "tw_results"},
                },
            ),
            "tw_results": screen(
                [
                    el("result_1", "list_item", "Top result", 0),
                    el("result_2", "list_item", "More results", 1),
                ],
                {
                    "tap:result_1": {
                        "next": "tw_now_playing",
                        "flags": {"tw_playing": "{flag:tw_query}"},
                    }
                },
            ),
            "tw_now_playing": screen(
                [
                    el("play_pause", "button", "Pause", 0),
                    el("like_button", "button", "Like", 1),
                    el("share_button", "button", "Share", 2),
                ],
                {
                    "tap:like_button": {"flags": {"tw_liked": "{flag:tw_playing}"}},
                    "tap:share_button": {"next": "tw_share_sheet"},
                },
            ),
            "tw_share_sheet": screen(
                [el("share_to_messages", "button", "Messages", 0)],
                {
                    "tap:share_to_messages": {
                        "next": "tw_now_playing",
                        "flags": {"tw_shared": "{flag:tw_playing}"},
                    }
                },
            ),
        },
    }


def melodeon_graph() -> dict:
    return {
        "entry": "md_home",
        "screens": {
            "md_home": screen(
                [
                    el("search_field", "text_field", "", 0),
                    el("search_button", "button", "Search", 1),
                    el("downloads_tab", "button", "Downloads", 2),
                ],
                {
                    "type:search_field": {"flags": {"md_query": "{text}"}},
                    "tap:search_button": {"next": "md_results"},
                },
            ),
            "md_results": screen(
                [el("md_result_1", "list_item", "Best match", 0)],
                {
                    "tap:md_result_1": {
                        "next": "md_player",
                        "flags": {"md_playing": "{flag:md_query}"},
                    }
                },
            ),
            "md_player": screen([el("md_play", "button", "Play", 0)], {}),
        },
    }


def cinemax_graph() -> dict:
    return {
        "entry": "cm_home",
        "screens": {
            "cm_home": screen(
                [
                    el("search_bar", "text_field", "", 0),
                    el("search_btn", "button", "Search", 1),
                    el("watchlist_tab", "button", "Watchlist", 2),
                ],
                {
                    "type:search_bar": {"flags": {"cm_query": "{text}"}},
                    "tap:search_btn": {"next": "cm_results"},
                    "tap:watchlist_tab": {"next": "cm_watchlist"},
                },
            ),
            "cm_results": screen(
                [el("show_result_1", "list_item", "Top match", 0)],
                {"tap:show_result_1": {"next": "cm_detail"}},
            ),
            "cm_detail": screen(
                [
                    el("add_watchlist", "button", "Add to Watchlist", 0),
                    el("like_show", "button", "Like", 1),
                ],
                {
                    "tap:add_watchlist": {
                        "flags": {"cm_watchlist_added": "{flag:cm_query}"}
                    },
                    "tap:like_show": {"flags": {"cm_liked": "{flag:cm_query}"}},
                },
            ),
            "cm_watchlist": screen(
                [el("watchlist_row_1", "list_item", "Saved shows", 0)], {}
            ),
        },
    }


def mapnav_graph() -> dict:
    return {
        "entry": "map_home",
        "screens": {
            "map_home": screen(
                [
                    el("search_place", "text_field", "", 0),
                    el("search_place_go", "button", "Search", 1),
                    el("nearby_tab", "button", "Nearby", 2),
                ],
                {"tap:nearby_tab": {"next": "map_nearby"}},
            ),
            "map_nearby": screen(
                [
                    el("gas_filter", "button", "Gas", 0),
                    el("coffee_filter", "button", "Coffee", 1),
                ],
                {
                    "tap:gas_filter": {"next": "map_gas"},
                    "tap:coffee_filter": {"next": "map_coffee"},
                },
            ),
            "map_gas": screen(
                [
                    el("station_row_1", "label", "Shell 4.15", 0),
                    el("station_row_2", "label", "BP 4.05", 1),
                    el("station_row_3", "label", "Arco 3.95", 2),
                ],
                {},
            ),
            "map_coffee": screen(
                [
                    el("coffee_row_1", "label", "Brew Lab Coffee", 0),
                    el("coffee_row_2", "label", "Bean Corner", 1),
                ],
                {},
            ),
        },
    }


def calendar_graph() -> dict:
    return {
        "entry": "cal_home",
        "screens": {
            "cal_home": screen(
                [
                    el("today_tab", "button", "Today", 0),
                    el("event_row_1", "list_item", "Design review 10:00", 1),
                ],
                {"tap:event_row_1": {"next": "cal_event_detail"}},
            ),
            "cal_event_detail": screen(
                [
                    el("event_title", "label", "Design review", 0),
                    el("event_time", "label", "10:00", 1),
                ],
                {},
            ),
        },
    }


def mail_graph() -> dict:
    return {
        "entry": "mail_home",
        "screens": {
            "mail_home": screen(
                [
                    el("compose_button", "button", "Compose", 0),
                    el("inbox_row_1", "list_item", "Welcome aboard", 1),
                ],
                {"tap:compose_button": {"next": "mail_compose"}},
            ),
            "mail_compose": screen(
                [
                    el("to_field", "text_field", "", 0),
                    el("subject_field", "text_field", "", 1),
                    el("send_mail", "button", "Send", 2),
                ],
                {
                    "type:to_field": {"flags": {"mail_to": "{text}"}},
                    "type:subject_field": {"flags": {"mail_subject": "{text}"}},
                    "tap:send_mail": {
                        "next": "mail_home",
                        "flags": {"mail_sent": "{flag:mail_to}|{flag:mail_subject}"},
                    },
                },
            ),
        },
    }


def streamflix_graph() -> dict:
    return {
        "entry": "sf_home",
        "screens": {
            "sf_home": screen(
                [
                    el("sf_search", "text_field", "", 0),
                    el("sf_search_go", "button", "Search", 1),
                ],
                {
                    "type:sf_search": {"flags": {"sf_query": "{text}"}},
                    "tap:sf_search_go": {"next": "sf_results"},
                },
            ),
            "sf_results": screen(
                [el("sf_result_1", "list_item", "Top match", 0)],
                {
                    "tap:sf_result_1": {
                        "next": "sf_player",
                        "flags": {"sf_playing": "{flag:sf_query}"},
                    }
                },
            ),
            "sf_player": screen([el("sf_play", "button", "Play", 0)], {}),
        },
    }


def podcastle_graph() -> dict:
    return {
        "entry": "pc_home",
        "screens": {
            "pc_home": screen(
                [
                    el("pc_search", "text_field", "", 0),
                    el("pc_trending_tab", "button", "Trending", 1),
                ],
                {"tap:pc_trending_tab": {"next": "pc_trending"}},
            ),
            "pc_trending": screen(
                [el("pc_show_1", "list_item", "Daily Deep Dive", 0)],
                {
                    "tap:pc_show_1": {
                        "flags": {"pc_playing": "Daily Deep Dive"}
                    }
                },
            ),
        },
    }


def weatherly_graph() -> dict:
    return {
        "entry": "wx_home",
        "screens": {
            "wx_home": screen(
                [
                    el("today_panel", "label", "Now 68F cloudy", 0),
                    el("forecast_tab", "button", "Forecast", 1),
                ],
                {"tap:forecast_tab": {"next": "wx_forecast"}},
            ),
            "wx_forecast": screen(
                [el("tomorrow_row", "label", "Tomorrow 72F sunny", 0)], {}
            ),
        },
    }


def chirper_graph() -> dict:
    return {
        "entry": "chirp_home",
        "screens": {
            "chirp_home": screen(
                [
                    el("chirp_feed", "list_item", "Latest chirps", 0),
                    el("post_button", "button", "Post", 1),
                ],
                {},
            )
        },
    }


def fitpulse_graph() -> dict:
    return {
        "entry": "fit_home",
        "screens": {
            "fit_home": screen([el("start_workout", "button", "Start", 0)], {})
        },
    }


GRAPHS = {
    "clock": clock_graph,
    "notes": notes_graph,
    "messages": messages_graph,
    "tunewave": tunewave_graph,
    "melodeon": melodeon_graph,
    "cinemax": cinemax_graph,
    "mapnav": mapnav_graph,
    "calendar": calendar_graph,
    "mail": mail_graph,
    "streamflix": streamflix_graph,
    "podcastle": podcastle_graph,
    "weatherly": weatherly_graph,
    "chirper": chirper_graph,
    "fitpulse": fitpulse_graph,
}


def scenario(sid: str, installed: list[str], store: list[str], fixtures) -> dict:
    return {
        "scenario_id": sid,
        "installed_apps": [APPS[key] for key in installed],
        "store_catalog": [APPS[key] for key in store],
        "app_graphs": {PKG[key]: GRAPHS[key]() for key in installed + store},
        "initial": {"foreground": "home", "screen_id": "home", "flags": {}},
        "search_fixtures": fixtures,
    }


S5_FIXTURES = {
    "where to watch squid game": [
        {
            "title": "Squid Game: where to stream it",
            "summary": "The Korean survival drama Squid Game streams exclusively on StreamFlix in every region.",
            "url": "https://screenwire.example/squid-game-streaming",
        },
        {
            "title": "Squid Game season guide",
            "summary": "All seasons ranked and explained, spoiler free.",
            "url": "https://screenwire.example/squid-game-seasons",
        },
        {
            "title": "StreamFlix picks up Squid Game",
            "summary": "StreamFlix adds the global hit to its exclusive catalogue.",
            "url": "https://mediadaily.example/streamflix-squid-game",
        },
    ],
    "nba score today": [
        {
            "title": "Lakers edge Celtics in the finals",
            "summary": "Lakers 112 - Celtics 108 after a late three-point run.",
            "url": "https://courtside.example/lakers-celtics-final",
        },
        {
            "title": "Scores and standings roundup",
            "summary": "All of last night's results and the updated playoff picture.",
            "url": "https://courtside.example/scores",
        },
    ],
}

S6_FIXTURES = {
    "most popular podcast app": [
        {
            "title": "Podcastle tops the podcast charts",
            "summary": "Podcastle is the most downloaded podcast player this year, ahead of every rival.",
            "url": "https://appranks.example/podcast-apps",
        },
        {
            "title": "Best podcast players compared",
            "summary": "We compare the leading podcast players on features and price.",
            "url": "https://appranks.example/podcast-compare",
        },
    ]
}

SCENARIOS = [
    ("alarm_basic", ["clock", "notes", "messages"], ["fitpulse"], "s1_fixtures.json", {}),
    ("note_desk", ["notes", "clock", "messages"], ["chirper"], "s2_fixtures.json", {}),
    (
        "music_studio",
        ["tunewave", "melodeon", "notes", "messages"],
        ["fitpulse"],
        "s3_fixtures.json",
        {},
    ),
    ("movie_night", ["cinemax", "messages", "notes"], ["chirper"], "s4_fixtures.json", {}),
    (
        "discovery_den",
        ["messages", "notes", "clock"],
        ["streamflix", "chirper", "fitpulse"],
        "s5_fixtures.json",
        S5_FIXTURES,
    ),
    (
        "app_market",
        ["clock", "notes"],
        ["podcastle", "weatherly", "chirper"],
        "s6_fixtures.json",
        S6_FIXTURES,
    ),
    ("city_trip", ["mapnav", "notes", "messages"], ["fitpulse"], "s7_fixtures.json", {}),
    ("office_day", ["calendar", "mail", "notes"], ["chirper"], "s8_fixtures.json", {}),
]


# --- tasks ---------------------------------------------------------------

Q_CLOCK = "alarm timer stopwatch wake up"
Q_NOTES = "write notes reminders checklists"
Q_MESSAGES = "send text messages chat"
Q_TUNEWAVE = "stream music songs playlists"
Q_MELODEON = "local music player downloaded songs"
Q_CINEMAX = "stream movies tv series watchlist"
Q_MAPNAV = "maps navigation nearby places"
Q_CALENDAR = "calendar events date reminders"
Q_MAIL = "email compose send mail"
Q_SQUID = "stream exclusive series films squid game"
Q_PODCAST = "podcasts trending shows episodes listen"
Q_WEATHER = "weather forecasts temperature tomorrow"


def sel(query: str, pick: str) -> dict:
    return {"do": "select_app", "query": query, "pick": PKG[pick]}


def tap(target: str) -> dict:
    return {"do": "act", "action": {"kind": "tap", "target": target}}


def type_(target: str, text: str) -> dict:
    return {"do": "act", "action": {"kind": "type", "target": target, "text": text}}


def know(*entities: str) -> dict:
    return {"do": "need_knowledge", "entities": list(entities)}


def finish(success: bool = True) -> dict:
    return {"do": "finish", "success": success}


def launch_p(app: str) -> dict:
    return {"kind": "launch", "target": PKG[app]}


def tap_p(target: str) -> dict:
    return {"kind": "tap", "target": target}


def type_p(target: str) -> dict:
    return {"kind": "type", "target": target}


STOP_P = {"kind": "stop"}


def flag_goal(name: str, flag: str, equals: str) -> dict:
    return {"name": name, "kind": "flag", "flag": flag, "equals": equals}


def screen_goal(name: str, screen_id: str) -> dict:
    return {"name": name, "kind": "screen", "screen": screen_id}


TASKS = [
    {
        "task_id": "t01_alarm_set",
        "instruction": "Set an alarm for 8 am.",
        "tier": "atomic",
        "scenario": "alarm_basic",
        "ground_truth": {
            "expected_apps": [PKG["clock"]],
            "expected_actions": [
                launch_p("clock"),
                tap_p("alarms_tab"),
                tap_p("add_alarm"),
                type_p("time_field"),
                tap_p("save_alarm"),
                STOP_P,
            ],
            "sub_goals": [
                flag_goal("alarm saved at 08:00", "alarm_set", "08:00"),
                screen_goal("alarm editor opened", "clock_alarm_editor"),
            ],
        },
        "script": [
            sel(Q_CLOCK, "clock"),
            tap("alarms_tab"),
            tap("add_alarm"),
            type_("time_field", "08:00"),
            tap("save_alarm"),
            finish(),
        ],
    },
    {
        "task_id": "t02_note_reminder",
        "instruction": "Write a reminder note: dinner tonight at 6:30.",
        "tier": "atomic",
        "scenario": "note_desk",
        "ground_truth": {
            "expected_apps": [PKG["notes"]],
            "expected_actions": [
                launch_p("notes"),
                tap_p("new_note"),
                type_p("note_body"),
                tap_p("save_note"),
                STOP_P,
            ],
            "sub_goals": [
                flag_goal(
                    "note saved", "note_saved", "dinner tonight at 6:30"
                ),
                screen_goal("editor opened", "notes_editor"),
            ],
        },
        "script": [
            sel(Q_NOTES, "notes"),
            tap("new_note"),
            type_("note_body", "dinner tonight at 6:30"),
            tap("save_note"),
            finish(),
        ],
    },
    {
        "task_id": "t03_music_piano",
        "instruction": "Play a piano track in TuneWave.",
        "tier": "atomic",
        "scenario": "music_studio",
        "ground_truth": {
            "expected_apps": [PKG["tunewave"]],
            "expected_actions": [
                launch_p("tunewave"),
                type_p("search_box"),
                tap_p("search_go"),
                tap_p("result_1"),
                STOP_P,
            ],
            "sub_goals": [
                flag_goal("piano playing", "tw_playing", "piano"),
                screen_goal("player opened", "tw_now_playing"),
            ],
        },
        "script": [
            sel(Q_TUNEWAVE, "tunewave"),
            type_("search_box", "piano"),
            tap("search_go"),
            tap("result_1"),
            finish(),
        ],
    },
    {
        "task_id": "t04_watchlist_add",
        "instruction": "Add The Boys to the watchlist in CineMax.",
        "tier": "atomic",
        "scenario": "movie_night",
        "ground_truth": {
            "expected_apps": [PKG["cinemax"]],
            "expected_actions": [
                launch_p("cinemax"),
                type_p("search_bar"),
                tap_p("search_btn"),
                tap_p("show_result_1"),
                tap_p("add_watchlist"),
                STOP_P,
            ],
            "sub_goals": [
                flag_goal("show added", "cm_watchlist_added", "The Boys"),
                screen_goal("detail page seen", "cm_detail"),
            ],
        },
        "script": [
            sel(Q_CINEMAX, "cinemax"),
            type_("search_bar", "The Boys"),
            tap("search_btn"),
            tap("show_result_1"),
            tap("add_watchlist"),
            finish(),
        ],
    },
    {
        "task_id": "t05_alarm_weekday",
        "instruction": "Set an alarm for 7:30 am.",
        "tier": "atomic",
        "scenario": "alarm_basic",
        "ground_truth": {
            "expected_apps": [PKG["clock"]],
            "expected_actions": [
                launch_p("clock"),
                tap_p("alarms_tab"),
                tap_p("add_alarm"),
                type_p("time_field"),
                tap_p("save_alarm"),
                STOP_P,
            ],
            "sub_goals": [
                flag_goal("alarm saved at 07:30", "alarm_set", "07:30"),
                screen_goal("alarm editor opened", "clock_alarm_editor"),
            ],
        },
        "script": [
            sel(Q_CLOCK, "clock"),
            tap("alarms_tab"),
            tap("add_alarm"),
            type_("time_field", "07:30"),
            tap("save_alarm"),
            finish(),
        ],
    },
    {
        "task_id": "t06_greet_jelly",
        "instruction": "Send a greeting message to Jelly.",
        "tier": "atomic",
        "scenario": "discovery_den",
        "ground_truth": {
            "expected_apps": [PKG["messages"]],
            "expected_actions": [
                launch_p("messages"),
                tap_p("thread_jelly"),
                type_p("message_input"),
                tap_p("send_button"),
                STOP_P,
            ],
            "sub_goals": [
                flag_goal(
                    "greeting delivered",
                    "message_sent_jelly",
                    "Hello Jelly, have a great day!",
                )
            ],
        },
        "script": [
            sel(Q_MESSAGES, "messages"),
            tap("thread_jelly"),
            type_("message_input", "Hello Jelly, have a great day!"),
            tap("send_button"),
            finish(),
        ],
    },
    {
        "task_id": "t07_timer_start",
        "instruction": "Start a 10 minute timer in Clock.",
        "tier": "atomic",
        "scenario": "alarm_basic",
        "ground_truth": {
            "expected_apps": [PKG["clock"]],
            "expected_actions": [
                launch_p("clock"),
                tap_p("timer_tab"),
                type_p("minutes_field"),
                tap_p("start_timer"),
                STOP_P,
            ],
            "sub_goals": [
                flag_goal("timer running", "timer_running", "10"),
                screen_goal("timer screen", "clock_timer"),
            ],
        },
        "script": [
            sel(Q_CLOCK, "clock"),
            tap("timer_tab"),
            type_("minutes_field", "10"),
            tap("start_timer"),
            finish(),
        ],
    },
    {
        "task_id": "t10_song_check_multi",
        "instruction": (
            "Check if the song Starlit Sky is available in both installed music "
            "apps and record the result in Notes."
        ),
        "tier": "multi_app",
        "scenario": "music_studio",
        "ground_truth": {
            "expected_apps": [PKG["tunewave"], PKG["melodeon"], PKG["notes"]],
            "expected_actions": [
                launch_p("tunewave"),
                type_p("search_box"),
                tap_p("search_go"),
                tap_p("result_1"),
                launch_p("melodeon"),
                type_p("search_field"),
                tap_p("search_button"),
                tap_p("md_result_1"),
                launch_p("notes"),
                tap_p("new_note"),
                type_p("note_body"),
                tap_p("save_note"),
                STOP_P,
            ],
            "sub_goals": [
                flag_goal("checked in TuneWave", "tw_playing", "Starlit Sky"),
                flag_goal("checked in Melodeon", "md_playing", "Starlit Sky"),
                flag_goal(
                    "availability recorded",
                    "note_saved",
                    "Starlit Sky: available in TuneWave and Melodeon",
                ),
            ],
        },
        "script": [
            sel(Q_TUNEWAVE, "tunewave"),
            type_("search_box", "Starlit Sky"),
            tap("search_go"),
            tap("result_1"),
            sel(Q_MELODEON, "melodeon"),
            type_("search_field", "Starlit Sky"),
            tap("search_button"),
            tap("md_result_1"),
            sel(Q_NOTES, "notes"),
            tap("new_note"),
            type_("note_body", "Starlit Sky: available in TuneWave and Melodeon"),
            tap("save_note"),
            finish(),
        ],
    },
    {
        "task_id": "t11_boys_invite",
        "instruction": (
            "Find The Boys in CineMax, add it to the watchlist, then message "
            "Mike to invite him to watch it."
        ),
        "tier": "multi_app",
        "scenario": "movie_night",
        "ground_truth": {
            "expected_apps": [PKG["cinemax"], PKG["messages"]],
            "expected_actions": [
                launch_p("cinemax"),
                type_p("search_bar"),
                tap_p("search_btn"),
                tap_p("show_result_1"),
                tap_p("add_watchlist"),
                launch_p("messages"),
                tap_p("thread_mike"),
                type_p("message_input"),
                tap_p("send_button"),
                STOP_P,
            ],
            "sub_goals": [
                flag_goal("show added", "cm_watchlist_added", "The Boys"),
                flag_goal(
                    "invite sent",
                    "message_sent_mike",
                    "Want to watch The Boys with me?",
                ),
            ],
        },
        "script": [
            sel(Q_CINEMAX, "cinemax"),
            type_("search_bar", "The Boys"),
            tap("search_btn"),
            tap("show_result_1"),
            tap("add_watchlist"),
            sel(Q_MESSAGES, "messages"),
            tap("thread_mike"),
            type_("message_input", "Want to watch The Boys with me?"),
            tap("send_button"),
            finish(),
        ],
    },
    {
        "task_id": "t12_gas_notes",
        "instruction": (
            "Summarize the prices of three nearby gas stations in MapNav and "
            "record them in Notes."
        ),
        "tier": "multi_app",
        "scenario": "city_trip",
        "ground_truth": {
            "expected_apps": [PKG["mapnav"], PKG["notes"]],
            "expected_actions": [
                launch_p("mapnav"),
                tap_p("nearby_tab"),
                tap_p("gas_filter"),
                launch_p("notes"),
                tap_p("new_note"),
                type_p("note_body"),
                tap_p("save_note"),
                STOP_P,
            ],
            "sub_goals": [
                screen_goal("gas stations listed", "map_gas"),
                flag_goal(
                    "prices recorded",
                    "note_saved",
                    "Gas prices: Shell 4.15, BP 4.05, Arco 3.95",
                ),
            ],
        },
        "script": [
            sel(Q_MAPNAV, "mapnav"),
            tap("nearby_tab"),
            tap("gas_filter"),
            sel(Q_NOTES, "notes"),
            tap("new_note"),
            type_("note_body", "Gas prices: Shell 4.15, BP 4.05, Arco 3.95"),
            tap("save_note"),
            finish(),
        ],
    },
    {
        "task_id": "t13_song_share",
        "instruction": "Play Starlit Sky in TuneWave and tell Mike about it in Messages.",
        "tier": "multi_app",
        "scenario": "music_studio",
        "ground_truth": {
            "expected_apps": [PKG["tunewave"], PKG["messages"]],
            "expected_actions": [
                launch_p("tunewave"),
                type_p("search_box"),
                tap_p("search_go"),
                tap_p("result_1"),
                launch_p("messages"),
                tap_p("thread_mike"),
                type_p("message_input"),
                tap_p("send_button"),
                STOP_P,
            ],
            "sub_goals": [
                flag_goal("song playing", "tw_playing", "Starlit Sky"),
                flag_goal(
                    "mike told",
                    "message_sent_mike",
                    "Listening to Starlit Sky, join me!",
                ),
            ],
        },
        "script": [
            sel(Q_TUNEWAVE, "tunewave"),
            type_("search_box", "Starlit Sky"),
            tap("search_go"),
            tap("result_1"),
            sel(Q_MESSAGES, "messages"),
            tap("thread_mike"),
            type_("message_input", "Listening to Starlit Sky, join me!"),
            tap("send_button"),
            finish(),
        ],
    },
    {
        "task_id": "t14_coffee_message",
        "instruction": "Find a coffee shop nearby in MapNav and message Mike the name.",
        "tier": "multi_app",
        "scenario": "city_trip",
        "ground_truth": {
            "expected_apps": [PKG["mapnav"], PKG["messages"]],
            "expected_actions": [
                launch_p("mapnav"),
                tap_p("nearby_tab"),
                tap_p("coffee_filter"),
                launch_p("messages"),
                tap_p("thread_mike"),
                type_p("message_input"),
                tap_p("send_button"),
                STOP_P,
            ],
            "sub_goals": [
                screen_goal("coffee shops listed", "map_coffee"),
                flag_goal(
                    "name shared", "message_sent_mike", "Meet me at Brew Lab Coffee"
                ),
            ],
        },
        "script": [
            sel(Q_MAPNAV, "mapnav"),
            tap("nearby_tab"),
            tap("coffee_filter"),
            sel(Q_MESSAGES, "messages"),
            tap("thread_mike"),
            type_("message_input", "Meet me at Brew Lab Coffee"),
            tap("send_button"),
            finish(),
        ],
    },
    {
        "task_id": "t15_event_email",
        "instruction": (
            "Check the first event in Calendar today and email its title to "
            "Anna in Mail."
        ),
        "tier": "multi_app",
        "scenario": "office_day",
        "ground_truth": {
            "expected_apps": [PKG["calendar"], PKG["mail"]],
            "expected_actions": [
                launch_p("calendar"),
                tap_p("event_row_1"),
                launch_p("mail"),
                tap_p("compose_button"),
                type_p("to_field"),
                type_p("subject_field"),
                tap_p("send_mail"),
                STOP_P,
            ],
            "sub_goals": [
                screen_goal("event opened", "cal_event_detail"),
                flag_goal("mail sent", "mail_sent", "Anna|Design review"),
            ],
        },
        "script": [
            sel(Q_CALENDAR, "calendar"),
            tap("event_row_1"),
            sel(Q_MAIL, "mail"),
            tap("compose_button"),
            type_("to_field", "Anna"),
            type_("subject_field", "Design review"),
            tap("send_mail"),
            finish(),
        ],
    },
    {
        "task_id": "t20_squid_download",
        "instruction": "Download the app to watch Squid Game.",
        "tier": "open_scenario",
        "scenario": "discovery_den",
        "ground_truth": {
            "expected_apps": [PKG["streamflix"]],
            "expected_actions": [launch_p("streamflix"), STOP_P],
            "sub_goals": [screen_goal("new app opened", "sf_home")],
        },
        "script": [
            know("Squid Game"),
            sel(Q_SQUID, "streamflix"),
            finish(),
        ],
    },
    {
        "task_id": "t21_squid_message",
        "instruction": "Send a message to Jelly about which app can play Squid Game.",
        "tier": "open_scenario",
        "scenario": "discovery_den",
        "ground_truth": {
            "expected_apps": [PKG["messages"]],
            "expected_actions": [
                launch_p("messages"),
                tap_p("thread_jelly"),
                type_p("message_input"),
                tap_p("send_button"),
                STOP_P,
            ],
            "sub_goals": [
                flag_goal(
                    "answer delivered",
                    "message_sent_jelly",
                    "Squid Game is on StreamFlix.",
                )
            ],
        },
        "script": [
            know("Squid Game"),
            sel(Q_MESSAGES, "messages"),
            tap("thread_jelly"),
            type_("message_input", "Squid Game is on StreamFlix."),
            tap("send_button"),
            finish(),
        ],
    },
    {
        "task_id": "t22_podcast_install",
        "instruction": "Download the most popular podcast app and open it.",
        "tier": "open_scenario",
        "scenario": "app_market",
        "ground_truth": {
            "expected_apps": [PKG["podcastle"]],
            "expected_actions": [launch_p("podcastle"), STOP_P],
            "sub_goals": [screen_goal("podcast app opened", "pc_home")],
        },
        "script": [
            know("most popular podcast app"),
            sel(Q_PODCAST, "podcastle"),
            finish(),
        ],
    },
    {
        "task_id": "t23_nba_message",
        "instruction": "What is the NBA score today? Send the result to Jelly.",
        "tier": "open_scenario",
        "scenario": "discovery_den",
        "ground_truth": {
            "expected_apps": [PKG["messages"]],
            "expected_actions": [
                launch_p("messages"),
                tap_p("thread_jelly"),
                type_p("message_input"),
                tap_p("send_button"),
                STOP_P,
            ],
            "sub_goals": [
                flag_goal(
                    "score delivered",
                    "message_sent_jelly",
                    "Lakers 112 - Celtics 108",
                )
            ],
        },
        "script": [
            know("NBA score today"),
            sel(Q_MESSAGES, "messages"),
            tap("thread_jelly"),
            type_("message_input", "Lakers 112 - Celtics 108"),
            tap("send_button"),
            finish(),
        ],
    },
    {
        "task_id": "t24_weather_install",
        "instruction": (
            "Install an app that shows the weather and check the forecast for "
            "tomorrow."
        ),
        "tier": "open_scenario",
        "scenario": "app_market",
        "ground_truth": {
            "expected_apps": [PKG["weatherly"]],
            "expected_actions": [
                launch_p("weatherly"),
                tap_p("forecast_tab"),
                STOP_P,
            ],
            "sub_goals": [screen_goal("forecast checked", "wx_forecast")],
        },
        "script": [
            sel(Q_WEATHER, "weatherly"),
            tap("forecast_tab"),
            finish(),
        ],
    },
]

AGENT_CONFIG = {
    "tau_local": 0.35,
    "tau_mem": 0.8,
    "k_apps": 3,
    "max_steps": 40,
    "max_planner_calls": 40,
}


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def main() -> int:
    scenario_files = []
    for sid, installed, store, fixture_file, fixtures in SCENARIOS:
        data = scenario(sid, installed, store, fixtures)
        if fixtures:
            write_json(PACK_DIR / "fixtures" / fixture_file, fixtures)
            data["search_fixtures"] = f"../fixtures/{fixture_file}"
        write_json(PACK_DIR / "scenarios" / f"{sid}.json", data)
        scenario_files.append(f"scenarios/{sid}.json")

    task_files = []
    task_ids = []
    for task in TASKS:
        write_json(PACK_DIR / "tasks" / f"{task['task_id']}.json", task)
        task_files.append(f"tasks/{task['task_id']}.json")
        task_ids.append(task["task_id"])

    manifest = {
        "name": "desk",
        "scenarios": scenario_files,
        "tasks": task_files,
        "suites": {
            "default": task_ids,
            "repeat": task_ids + task_ids,
        },
        "agent_config": AGENT_CONFIG,
        "stats": {},
    }
    write_json(PACK_DIR / "manifest.json", manifest)

    # freeze recomputed stats into the manifest
    pack = load_pack(PACK_DIR)
    manifest["stats"] = compute_stats(pack.tasks, pack.scenarios).to_dict()
    write_json(PACK_DIR / "manifest.json", manifest)

    result = validate_pack(PACK_DIR)
    print(json.dumps(result.stats.to_dict(), indent=2))
    if not result.ok:
        for violation in result.violations:
            print(f"VIOLATION: {violation}")
        return 1
    print(f"pack OK: {len(task_ids)} tasks, {len(scenario_files)} scenarios")
    return 0


if __name__ == "__main__":
    sys.exit(main())
