"""Deterministic simulated mobile device.

Apps are screen-transition graphs; the device exposes structured screens
(no rendering, no OCR) and executes the atomic action set: Tap, Type,
Swipe, Back, Stop, plus LaunchApp by package id. Wrong-target actions are
absorbed as no-ops, mirroring how a real GUI swallows mistaps. A simulated
app store installs new apps into the running device.

A scenario checks every app's screen graph when it loads, in one walk over
its JSON, and builds an app's graph on the app's first launch; the built
graph is kept on the scenario and shared by every device, so a scenario
with a large store builds only the graphs that its tasks open.

Identical (scenario, action sequence) inputs always produce identical
final states and step effects, which is what makes replayed traces and
benchmark reports reproducible.
"""

from __future__ import annotations

import functools
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, KeysView, Mapping, get_type_hints

from .app_index import AppIndex, AppSeed
from .embedding import EmbedderBackend
from .errors import (
    AppNotInstalledError,
    DeviceStoppedError,
    NotInStoreError,
    ScenarioError,
    check_types,
    malformed,
)
from .web_search import check_hits

logger = logging.getLogger(__name__)

HOME_PACKAGE = "home"
HOME_SCREEN = "home"
ICON_PREFIX = "icon_"  # a home icon's element id is this prefix and its package id

ELEMENT_ROLES = ("button", "text_field", "list_item", "icon", "label")
SWIPE_DIRECTIONS = ("up", "down", "left", "right")
ACTION_KINDS = ("tap", "type", "swipe", "back", "stop", "launch")

EFFECT_TRANSITIONED = "transitioned"
EFFECT_NO_OP = "no_op"
EFFECT_FLAG_UPDATE = "flag_update"

# ``{text}`` or ``{flag:name}`` in a flag-effect template
_TEMPLATE_REF = re.compile(r"\{(?:text|flag:([A-Za-z0-9_]+))\}")


@dataclass(frozen=True)
class UiElement:
    """One observable widget on a screen; bounds are (x, y, w, h)."""

    element_id: str
    role: str
    text: str = ""
    bounds: tuple[int, int, int, int] = (0, 0, 100, 100)

    def __post_init__(self) -> None:
        _check_element(self.element_id, self.role, self.bounds)


def _check_element(element_id: str, role: str, bounds: tuple) -> None:
    """Raise ScenarioError for an unknown role or bounds that are not four
    ints with a non-negative origin and a positive size."""
    if role not in ELEMENT_ROLES:
        raise ScenarioError(f"unknown element role {role!r}")
    x, y, w, h = bounds
    if not type(x) is type(y) is type(w) is type(h) is int or x < 0 or y < 0 or w <= 0 or h <= 0:
        raise ScenarioError(f"element {element_id!r} has invalid bounds {bounds}")


@dataclass(frozen=True)
class ScreenState:
    """Everything the agent can observe at one instant."""

    foreground_package: str
    screen_id: str
    elements: tuple[UiElement, ...]
    state_flags: dict[str, str]

    def element_ids(self) -> set[str]:
        return {e.element_id for e in self.elements}


@dataclass(frozen=True)
class Action:
    """One atomic device action.

    Exactly one kind per action; payload fields are only meaningful for
    their kind (target for tap/type, text for type, direction for swipe,
    package for launch, success for stop).
    """

    kind: str
    target: str | None = None
    text: str | None = None
    direction: str | None = None
    package: str | None = None
    success: bool | None = None

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind in ("tap", "type") and not self.target:
            raise ValueError(f"{self.kind} action needs a target element id")
        if self.kind == "type" and self.text is None:
            raise ValueError("type action needs text")
        if self.kind == "swipe" and self.direction not in SWIPE_DIRECTIONS:
            raise ValueError(f"swipe direction must be one of {SWIPE_DIRECTIONS}")
        if self.kind == "launch" and not self.package:
            raise ValueError("launch action needs a package id")
        if self.kind == "stop" and self.success is None:
            raise ValueError("stop action needs a success verdict")

    # convenience constructors
    @staticmethod
    def tap(target: str) -> "Action":
        return Action(kind="tap", target=target)

    @staticmethod
    def type_text(target: str, text: str) -> "Action":
        return Action(kind="type", target=target, text=text)

    @staticmethod
    def swipe(direction: str) -> "Action":
        return Action(kind="swipe", direction=direction)

    @staticmethod
    def back() -> "Action":
        return Action(kind="back")

    @staticmethod
    def stop(success: bool) -> "Action":
        return Action(kind="stop", success=success)

    @staticmethod
    def launch(package: str) -> "Action":
        return Action(kind="launch", package=package)

    @property
    def key(self) -> str | None:
        """What the action acts on: a tap's or type's target, a swipe's
        direction, a launch's package, and nothing for back or stop."""
        kind = self.kind
        if kind == "tap" or kind == "type":
            return self.target
        if kind == "swipe":
            return self.direction
        return self.package if kind == "launch" else None

    def describe(self) -> str:
        if self.kind == "stop":
            return f"stop ({'success' if self.success else 'failure'})"
        key = self.key
        if self.kind == "type":
            return f"type {key}: {self.text}"
        return self.kind if key is None else f"{self.kind} {key}"

    def to_dict(self) -> dict:
        """The fields that are set, in field order. Read by ``getattr``, not
        ``vars``, which would give every written action an instance dict."""
        data = {}
        for name in _ACTION_FIELD_TYPES:
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "Action":
        """Raises KeyError without a kind, and ValueError for a field of the
        wrong type (``check_types``) or an action its kind does not allow."""
        check_types(data, _ACTION_FIELD_TYPES)
        if "kind" not in data:
            raise KeyError("kind")
        return cls(*map(data.get, _ACTION_FIELD_TYPES))


# ``Action``'s fields in field order (``from_dict`` passes them by position),
# each with its annotated type: null leaves any field but ``kind`` unset
_ACTION_FIELD_TYPES = get_type_hints(Action)


@dataclass(frozen=True)
class ActionStep:
    """One executed action with its observed effect.

    ``flag_changes`` records the state flags this step actually changed,
    so a trace alone is enough to check flag-based sub-goals later.
    """

    action: Action
    pre_screen_id: str
    post_screen_id: str
    effect: str
    flag_changes: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        data = {
            "action": self.action.to_dict(),
            "pre_screen": self.pre_screen_id,
            "post_screen": self.post_screen_id,
            "effect": self.effect,
        }
        if self.flag_changes:
            data["flag_changes"] = {k: v for k, v in self.flag_changes}
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ActionStep":
        return cls(
            action=Action.from_dict(data["action"]),
            pre_screen_id=data["pre_screen"],
            post_screen_id=data["post_screen"],
            effect=data["effect"],
            flag_changes=tuple(sorted(data.get("flag_changes", {}).items())),
        )


@dataclass(frozen=True)
class ActionTrace:
    """An ordered sequence of executed steps."""

    steps: tuple[ActionStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def ends_with_stop(self) -> bool:
        return bool(self.steps) and self.steps[-1].action.kind == "stop"

    def to_jsonable(self) -> list[dict]:
        return [step.to_dict() for step in self.steps]

    @classmethod
    def from_jsonable(cls, data: Iterable[Mapping]) -> "ActionTrace":
        return cls(steps=tuple(ActionStep.from_dict(d) for d in data))


@dataclass(frozen=True)
class Transition:
    """Graph edge: optional next screen plus flag effects.

    Flag-effect values may contain ``{text}`` (replaced by the typed text)
    and ``{flag:name}`` (replaced by the flag's current value). Both are
    expanded in one pass over the template, so typed text and flag values
    are inserted literally, never read as templates themselves.
    """

    next_screen: str | None = None
    flags: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ScreenDef:
    """One in-app screen: its elements and its edges.

    ``element_ids`` is built on first use and kept, so a tap tests its target
    with one lookup; a store-sized scenario holds thousands of screens that
    no task visits, and those never build it.
    """

    elements: tuple[UiElement, ...]
    transitions: dict[str, Transition]

    @functools.cached_property
    def element_ids(self) -> frozenset[str]:
        return frozenset([e.element_id for e in self.elements])


@dataclass(frozen=True)
class AppGraph:
    entry: str
    screens: dict[str, ScreenDef]


@dataclass
class Scenario:
    """A self-contained simulated world.

    Installed apps, the downloadable store catalog, per-app screen graphs,
    the initial device state, and canned search fixtures for the knowledge
    backend.

    ``app_graphs`` holds each app's screen graph as the scenario's JSON
    gives it. Validation checks every graph in one walk over that JSON and
    collects ``screen_ids``, every screen id of every app and ``home``; an
    app's ``AppGraph`` is built on its first launch (``graph``), so a
    store-sized scenario builds only the graphs its tasks open.

    State that depends only on the scenario is built once and shared by
    every ``Device`` and task run on it: the package-id maps of the two
    catalogs and ``screen_ids`` (built by validation), the home grid of the
    installed apps (``home_elements``, on first use), each app's graph
    (``graph``, on its first launch) and the store catalog's ``AppIndex``
    (``store_index``, on first use per backend and threshold). A device
    copies the installed map and never writes to anything shared, so the
    catalogs and the graph JSON must not be changed after construction;
    ``from_dict`` keeps the caller's graph JSON rather than a copy, so the
    caller must not change ``data`` after the call either.
    """

    scenario_id: str
    installed_apps: list[AppSeed]
    store_catalog: list[AppSeed]
    app_graphs: dict[str, dict]
    initial_flags: dict[str, str] = field(default_factory=dict)
    search_fixtures: dict[str, list[dict[str, str]]] = field(default_factory=dict)
    _installed: dict[str, AppSeed] = field(init=False, repr=False, compare=False)
    _store: dict[str, AppSeed] = field(init=False, repr=False, compare=False)
    screen_ids: frozenset[str] = field(init=False, repr=False, compare=False)
    _graphs: dict[str, AppGraph] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _home: tuple[UiElement, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _store_indexes: dict[tuple[EmbedderBackend, float], AppIndex] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._validate()

    def home_elements(self) -> tuple[UiElement, ...]:
        """The home grid of the installed apps, built on the first call."""
        if self._home is None:
            self._home = _home_grid(self._installed)
        return self._home

    def graph(self, package: str) -> AppGraph:
        """The screen graph of ``package``, built on the first call and kept."""
        graph = self._graphs.get(package)
        if graph is None:
            data = self.app_graphs[package]
            screens = {}
            for screen_id, screen in data["screens"].items():
                elements = tuple(
                    UiElement(e["element_id"], e["role"], e.get("text", ""), tuple(e.get("bounds", _BOUNDS)))
                    for e in screen.get("elements", [])
                )
                transitions = {
                    key: Transition(t.get("next"), tuple(sorted(t.get("flags", {}).items())))
                    for key, t in screen.get("transitions", {}).items()
                }
                screens[screen_id] = ScreenDef(elements, transitions)
            graph = self._graphs[package] = AppGraph(data["entry"], screens)
        return graph

    def store_index(self, backend: EmbedderBackend, threshold: float) -> AppIndex:
        """The store catalog indexed with ``backend`` at ``threshold``.

        Built on the first call for each (backend, threshold) and kept on
        this scenario, so every device and task run on it shares one store
        index. Backends are compared with ``==``, which is identity unless
        the backend class says that two instances embed alike
        (``HashedTokenEmbedder`` does, by dimension), so a backend never
        receives an index built by a different model. The index holds store
        records (``installed=False``) and callers must not register into it.
        """
        key = (backend, float(threshold))
        index = self._store_indexes.get(key)
        if index is None:
            index = AppIndex.build(self.store_catalog, backend, threshold, installed=False)
            self._store_indexes[key] = index
        return index

    def _validate(self) -> None:
        installed = {}
        for seed in self.installed_apps:
            if seed.package_id in installed:
                raise ScenarioError(f"duplicate installed package {seed.package_id}")
            installed[seed.package_id] = seed
        store = {}
        for seed in self.store_catalog:
            if seed.package_id in store:
                raise ScenarioError(f"duplicate store package {seed.package_id}")
            store[seed.package_id] = seed
        for pid in installed.keys() & store.keys():
            if installed[pid] != store[pid]:
                raise ScenarioError(
                    f"{pid} appears in both catalogs with different records"
                )
        for catalog, apps in (("installed", installed), ("store", store)):
            for pid in apps:
                if pid not in self.app_graphs:
                    raise ScenarioError(f"{catalog} app {pid} has no screen graph")
        screen_ids = {HOME_SCREEN}
        for pid, graph in self.app_graphs.items():
            screens = graph["screens"]
            for screen_id, screen in screens.items():
                if screen_id == HOME_SCREEN:
                    raise ScenarioError(f"{pid}: screen id {HOME_SCREEN!r} is reserved")
                elements = screen.get("elements", [])
                if type(elements) is not list:
                    raise TypeError(f"{pid}/{screen_id}: elements {elements!r} are not an array")
                for element in elements:
                    check_types(element, _ELEMENT_FIELD_TYPES)
                    bounds = tuple(element.get("bounds", _BOUNDS))
                    _check_element(element["element_id"], element["role"], bounds)
                if len({e["element_id"] for e in elements}) != len(elements):
                    raise ScenarioError(f"{pid}/{screen_id}: duplicate element ids")
                for key, transition in screen.get("transitions", {}).items():
                    self._validate_transition_key(pid, screen_id, key)
                    for flag, value in transition.get("flags", {}).items():
                        if type(value) is not str:
                            raise ScenarioError(
                                f"{pid}/{screen_id}: transition {key!r} sets flag "
                                f"{flag!r} to the non-string {value!r}"
                            )
                    next_screen = transition.get("next")
                    if next_screen is not None and next_screen not in screens:
                        raise ScenarioError(
                            f"{pid}/{screen_id}: transition {key!r} leads to "
                            f"undefined screen {next_screen!r}"
                        )
            if graph["entry"] not in screens:
                raise ScenarioError(f"{pid}: entry screen {graph['entry']!r} undefined")
            screen_ids.update(screens)
        for flag, value in self.initial_flags.items():
            if type(value) is not str:
                raise ScenarioError(f"initial flag {flag!r} has the non-string value {value!r}")
        self._installed, self._store = installed, store
        self.screen_ids = frozenset(screen_ids)

    @staticmethod
    def _validate_transition_key(pid: str, screen_id: str, key: str) -> None:
        head, _, rest = key.partition(":")
        if head in ("tap", "type") and rest:
            return
        if head == "swipe" and rest in SWIPE_DIRECTIONS:
            return
        raise ScenarioError(f"{pid}/{screen_id}: bad transition key {key!r}")

    # --- loading ---

    @classmethod
    def from_dict(cls, data: Mapping, base_dir: str | Path | None = None) -> "Scenario":
        """Raises ScenarioError when a field is missing or has the wrong type."""
        with malformed(ScenarioError, "scenario"):
            check_types(data, _SCENARIO_FIELD_TYPES)
            fixtures = data.get("search_fixtures", {})
            if isinstance(fixtures, str):
                if base_dir is None:
                    raise ScenarioError(
                        "search_fixtures is a file reference but no base directory given"
                    )
                fixture_path = Path(base_dir) / fixtures
                fixtures = json.loads(fixture_path.read_text(encoding="utf-8"))

            initial = data.get("initial", {})
            check_types(initial, {"foreground": str, "flags": dict})
            scenario = cls(
                scenario_id=data["scenario_id"],
                installed_apps=[AppSeed.from_dict(s) for s in data.get("installed_apps", [])],
                store_catalog=[AppSeed.from_dict(s) for s in data.get("store_catalog", [])],
                app_graphs=data.get("app_graphs", {}),
                initial_flags=dict(initial.get("flags", {})),
                search_fixtures={key: check_hits(hits) for key, hits in fixtures.items()},
            )
            fg = initial.get("foreground", HOME_PACKAGE)
            if fg != HOME_PACKAGE:
                raise ScenarioError("only home-screen initial states are supported")
            return scenario

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        path = Path(path)
        with malformed(ScenarioError, f"scenario file {str(path)!r}"):
            data = json.loads(path.read_text(encoding="utf-8"))
        return cls.from_dict(data, base_dir=path.parent)


# the type of each scenario field and of each screen element field
_SCENARIO_FIELD_TYPES = {
    "scenario_id": str, "installed_apps": list, "store_catalog": list, "app_graphs": dict,
    "initial": dict, "search_fixtures": str | dict,
}
_ELEMENT_FIELD_TYPES = {"element_id": str, "role": str, "text": str, "bounds": list}
_BOUNDS = UiElement.bounds  # an element's bounds when its JSON gives none


class Device:
    """A running simulated phone, initialized from a scenario.

    Strictly sequential: one execute/observe at a time. The device keeps
    the full step history; its length always equals the number of execute
    calls that succeeded.

    Per device: its own copy of the installed map, the foreground screen,
    the back stack, the flags and the history. Read from the scenario and
    shared: the store map, the screen graphs (the foreground app's is kept
    from its launch), and the scenario's home grid
    until the first ``install_from_store``; after that the device builds its
    own grid on the next home ``observe`` and keeps it.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self._installed: dict[str, AppSeed] = dict(scenario._installed)
        self._store: Mapping[str, AppSeed] = scenario._store
        self._home: tuple[UiElement, ...] | None = None  # built on the next home observe
        self._graph: AppGraph | None = None  # the graph of the foreground app
        self._foreground = HOME_PACKAGE
        self._screen_id = HOME_SCREEN
        self._stack: list[str] = []
        self._flags: dict[str, str] = dict(scenario.initial_flags)
        self._stopped = False
        self.history: list[ActionStep] = []

    # --- observation ---

    @property
    def installed_ids(self) -> KeysView[str]:
        """The installed package ids, as a live read-only set view."""
        return self._installed.keys()

    @property
    def stopped(self) -> bool:
        return self._stopped

    def observe(self) -> ScreenState:
        """Return the current screen by value; never changes what the device shows."""
        return ScreenState(
            foreground_package=self._foreground,
            screen_id=self._screen_id,
            elements=self._current_elements(),
            state_flags=dict(self._flags),
        )

    def has_element(self, element_id: str) -> bool:
        """Whether the current screen shows ``element_id``, without observing it."""
        if self._foreground == HOME_PACKAGE:
            return (
                element_id.startswith(ICON_PREFIX)
                and element_id[len(ICON_PREFIX) :] in self._installed
            )
        return element_id in self._screen().element_ids

    def _screen(self) -> ScreenDef:
        return self._graph.screens[self._screen_id]

    def _current_elements(self) -> tuple[UiElement, ...]:
        if self._foreground != HOME_PACKAGE:
            return self._screen().elements
        if self._home is None:
            # installs only add apps: while the count is the scenario's, so is the set
            unchanged = len(self._installed) == len(self.scenario._installed)
            self._home = self.scenario.home_elements() if unchanged else _home_grid(self._installed)
        return self._home

    # --- execution ---

    def execute(self, action: Action) -> ActionStep:
        """Apply one action and record its step.

        Unmatched taps/types/swipes are no-ops; Back pops the in-app
        screen stack or returns home; Stop freezes the device; LaunchApp
        fails only when the package is not installed.
        """
        if self._stopped:
            raise DeviceStoppedError("device is frozen after stop")
        pre_screen = self._screen_id
        flag_changes: dict[str, str] = {}

        if action.kind == "stop":
            self._stopped = True
        elif action.kind == "launch":
            if action.package not in self._installed:
                raise AppNotInstalledError(action.package)
            self._open(action.package)
        elif action.kind == "back":
            self._apply_back()
        elif action.kind == "tap" and self._foreground == HOME_PACKAGE:
            if self.has_element(action.target):
                self._open(action.target[len(ICON_PREFIX) :])
        elif action.kind in ("tap", "type", "swipe") and self._foreground != HOME_PACKAGE:
            flag_changes = self._apply_graph_action(action)
        # any other combination (e.g. type/swipe on home) falls through as a no-op

        post_screen = self._screen_id
        if post_screen != pre_screen:
            effect = EFFECT_TRANSITIONED
        elif flag_changes:
            effect = EFFECT_FLAG_UPDATE
        else:
            effect = EFFECT_NO_OP
        step = ActionStep(
            action=action,
            pre_screen_id=pre_screen,
            post_screen_id=post_screen,
            effect=effect,
            flag_changes=tuple(sorted(flag_changes.items())),
        )
        self.history.append(step)
        return step

    def _apply_back(self) -> None:
        if self._foreground == HOME_PACKAGE:
            return
        if len(self._stack) > 1:
            self._stack.pop()
            self._screen_id = self._stack[-1]
        else:
            self._go_home()

    def _go_home(self) -> None:
        self._foreground = HOME_PACKAGE
        self._screen_id = HOME_SCREEN
        self._stack = []

    def _open(self, package: str) -> None:
        self._graph = self.scenario.graph(package)
        entry = self._graph.entry
        self._foreground = package
        self._screen_id = entry
        self._stack = [entry]

    def _apply_graph_action(self, action: Action) -> dict[str, str]:
        screen = self._screen()
        if action.kind != "swipe" and action.target not in screen.element_ids:
            return {}
        transition = screen.transitions.get(f"{action.kind}:{action.key}")
        if transition is None:
            return {}
        typed = action.text or ""

        def expand(ref: re.Match) -> str:
            return typed if ref.group(1) is None else self._flags.get(ref.group(1), "")

        changes: dict[str, str] = {}
        for flag, template in transition.flags:
            value = _TEMPLATE_REF.sub(expand, template)
            if self._flags.get(flag) != value:
                self._flags[flag] = value
                changes[flag] = value
        if transition.next_screen is not None and transition.next_screen != self._screen_id:
            self._screen_id = transition.next_screen
            self._stack.append(transition.next_screen)
        return changes

    # --- app store ---

    def install_from_store(self, package_id: str) -> AppSeed:
        """Install a store app, making it immediately launchable.

        Installing an already-installed package logs a warning and returns
        the existing record (idempotent, not fatal).
        """
        if package_id in self._installed:
            logger.warning("package %s is already installed", package_id)
            return self._installed[package_id]
        if package_id not in self._store:
            raise NotInStoreError(package_id)
        seed = self._store[package_id]
        self._installed[package_id] = seed
        self._home = None
        return seed


def _home_grid(installed: Mapping[str, AppSeed]) -> tuple[UiElement, ...]:
    """One icon per installed app, in package-id order, laid out on a fixed grid."""
    return tuple(
        UiElement(
            element_id=ICON_PREFIX + pid,
            role="icon",
            text=installed[pid].app_name,
            bounds=(40 + i % 4 * 260, 120 + i // 4 * 300, 200, 240),
        )
        for i, pid in enumerate(sorted(installed))
    )
