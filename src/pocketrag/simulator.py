"""Deterministic simulated mobile device.

Apps are screen-transition graphs; the device exposes structured screens
(no rendering, no OCR) and executes the atomic action set: Tap, Type,
Swipe, Back, Stop, plus LaunchApp by package id. Wrong-target actions are
absorbed as no-ops, mirroring how a real GUI swallows mistaps. A simulated
app store installs new apps into the running device.

Identical (scenario, action sequence) inputs always produce identical
final states and step effects, which is what makes replayed traces and
benchmark reports reproducible.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .app_index import AppIndex, AppSeed
from .embedding import EmbedderBackend
from .errors import (
    AppNotInstalledError,
    DeviceStoppedError,
    NotInStoreError,
    ScenarioError,
    malformed,
)

logger = logging.getLogger(__name__)

HOME_PACKAGE = "home"
HOME_SCREEN = "home"

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
        if self.role not in ELEMENT_ROLES:
            raise ScenarioError(f"unknown element role {self.role!r}")
        x, y, w, h = self.bounds
        if x < 0 or y < 0 or w <= 0 or h <= 0:
            raise ScenarioError(
                f"element {self.element_id!r} has invalid bounds {self.bounds}"
            )


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

    def describe(self) -> str:
        if self.kind == "tap":
            return f"tap {self.target}"
        if self.kind == "type":
            return f"type {self.target}: {self.text}"
        if self.kind == "swipe":
            return f"swipe {self.direction}"
        if self.kind == "launch":
            return f"launch {self.package}"
        if self.kind == "stop":
            return f"stop ({'success' if self.success else 'failure'})"
        return self.kind

    def to_dict(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.target is not None:
            data["target"] = self.target
        if self.text is not None:
            data["text"] = self.text
        if self.direction is not None:
            data["direction"] = self.direction
        if self.package is not None:
            data["package"] = self.package
        if self.success is not None:
            data["success"] = self.success
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "Action":
        return cls(
            kind=data["kind"],
            target=data.get("target"),
            text=data.get("text"),
            direction=data.get("direction"),
            package=data.get("package"),
            success=data.get("success"),
        )


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
    elements: tuple[UiElement, ...]
    transitions: dict[str, Transition]


@dataclass(frozen=True)
class AppGraph:
    entry: str
    screens: dict[str, ScreenDef]


@dataclass
class Scenario:
    """A self-contained simulated world.

    Installed apps, the downloadable store catalog, per-app screen graphs,
    the initial device state, and canned search fixtures for the knowledge
    backend. The store catalog's ``AppIndex`` is built lazily, once per
    scenario (see ``store_index``).
    """

    scenario_id: str
    installed_apps: list[AppSeed]
    store_catalog: list[AppSeed]
    app_graphs: dict[str, AppGraph]
    initial_flags: dict[str, str] = field(default_factory=dict)
    search_fixtures: dict[str, list[dict[str, str]]] = field(default_factory=dict)
    _store_indexes: dict[tuple[EmbedderBackend, float], AppIndex] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._validate()

    def store_index(self, backend: EmbedderBackend, threshold: float) -> AppIndex:
        """The store catalog indexed with ``backend`` at ``threshold``.

        Built on the first call for each (backend, threshold) and kept on
        this scenario, so every device and task run on it shares one store
        index; a new scenario builds its own. Backends are compared with
        ``==``, which is identity unless the backend class says that two
        instances embed alike (``HashedTokenEmbedder`` does, by dimension),
        so a backend never receives an index built by a different model.
        The index holds store records (``installed=False``) and callers
        must not register into it.
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
        for pid in set(installed) & set(store):
            if installed[pid] != store[pid]:
                raise ScenarioError(
                    f"{pid} appears in both catalogs with different records"
                )
        for pid in installed:
            if pid not in self.app_graphs:
                raise ScenarioError(f"installed app {pid} has no screen graph")
        for pid, graph in self.app_graphs.items():
            if graph.entry not in graph.screens:
                raise ScenarioError(f"{pid}: entry screen {graph.entry!r} undefined")
            for screen_id, screen in graph.screens.items():
                if screen_id == HOME_SCREEN:
                    raise ScenarioError(f"{pid}: screen id {HOME_SCREEN!r} is reserved")
                ids = [e.element_id for e in screen.elements]
                if len(ids) != len(set(ids)):
                    raise ScenarioError(f"{pid}/{screen_id}: duplicate element ids")
                for key, transition in screen.transitions.items():
                    self._validate_transition_key(pid, screen_id, key)
                    if (
                        transition.next_screen is not None
                        and transition.next_screen not in graph.screens
                    ):
                        raise ScenarioError(
                            f"{pid}/{screen_id}: transition {key!r} leads to "
                            f"undefined screen {transition.next_screen!r}"
                        )

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
            graphs = {}
            for pid, graph_data in data.get("app_graphs", {}).items():
                screens = {}
                for screen_id, screen_data in graph_data["screens"].items():
                    elements = tuple(
                        UiElement(
                            element_id=e["element_id"],
                            role=e["role"],
                            text=e.get("text", ""),
                            bounds=tuple(e.get("bounds", (0, 0, 100, 100))),
                        )
                        for e in screen_data.get("elements", [])
                    )
                    transitions = {
                        key: Transition(
                            next_screen=t.get("next"),
                            flags=tuple(sorted(t.get("flags", {}).items())),
                        )
                        for key, t in screen_data.get("transitions", {}).items()
                    }
                    screens[screen_id] = ScreenDef(elements=elements, transitions=transitions)
                graphs[pid] = AppGraph(entry=graph_data["entry"], screens=screens)

            fixtures = data.get("search_fixtures", {})
            if isinstance(fixtures, str):
                if base_dir is None:
                    raise ScenarioError(
                        "search_fixtures is a file reference but no base directory given"
                    )
                fixture_path = Path(base_dir) / fixtures
                fixtures = json.loads(fixture_path.read_text(encoding="utf-8"))

            initial = data.get("initial", {})
            scenario = cls(
                scenario_id=data["scenario_id"],
                installed_apps=[AppSeed.from_dict(s) for s in data.get("installed_apps", [])],
                store_catalog=[AppSeed.from_dict(s) for s in data.get("store_catalog", [])],
                app_graphs=graphs,
                initial_flags=dict(initial.get("flags", {})),
                search_fixtures={k: list(v) for k, v in fixtures.items()},
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


class Device:
    """A running simulated phone, initialized from a scenario.

    Strictly sequential: one execute/observe at a time. The device keeps
    the full step history; its length always equals the number of execute
    calls that succeeded.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self._installed: dict[str, AppSeed] = {
            s.package_id: s for s in scenario.installed_apps
        }
        self._store: dict[str, AppSeed] = {
            s.package_id: s for s in scenario.store_catalog
        }
        self._foreground = HOME_PACKAGE
        self._screen_id = HOME_SCREEN
        self._stack: list[str] = []
        self._flags: dict[str, str] = dict(scenario.initial_flags)
        self._stopped = False
        self.history: list[ActionStep] = []

    # --- observation ---

    @property
    def installed_packages(self) -> list[str]:
        return sorted(self._installed)

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def action_count(self) -> int:
        return len(self.history)

    def observe(self) -> ScreenState:
        """Return the current screen by value; never mutates the device."""
        return ScreenState(
            foreground_package=self._foreground,
            screen_id=self._screen_id,
            elements=self._current_elements(),
            state_flags=dict(self._flags),
        )

    def _current_elements(self) -> tuple[UiElement, ...]:
        if self._foreground == HOME_PACKAGE:
            return self._home_elements()
        screen = self.scenario.app_graphs[self._foreground].screens[self._screen_id]
        return screen.elements

    def _home_elements(self) -> tuple[UiElement, ...]:
        # one icon per installed app, laid out on a fixed grid
        elements = []
        for i, pid in enumerate(sorted(self._installed)):
            col, row = i % 4, i // 4
            elements.append(
                UiElement(
                    element_id=f"icon_{pid}",
                    role="icon",
                    text=self._installed[pid].app_name,
                    bounds=(40 + col * 260, 120 + row * 300, 200, 240),
                )
            )
        return tuple(elements)

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
            entry = self.scenario.app_graphs[action.package].entry
            self._foreground = action.package
            self._screen_id = entry
            self._stack = [entry]
        elif action.kind == "back":
            self._apply_back()
        elif action.kind == "tap" and self._foreground == HOME_PACKAGE:
            self._apply_home_tap(action)
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

    def _apply_home_tap(self, action: Action) -> None:
        target = action.target or ""
        if not target.startswith("icon_"):
            return
        package = target[len("icon_") :]
        if package in self._installed:
            entry = self.scenario.app_graphs[package].entry
            self._foreground = package
            self._screen_id = entry
            self._stack = [entry]

    def _apply_graph_action(self, action: Action) -> dict[str, str]:
        screen = self.scenario.app_graphs[self._foreground].screens[self._screen_id]
        if action.kind == "swipe":
            key = f"swipe:{action.direction}"
        else:
            if action.target not in {e.element_id for e in screen.elements}:
                return {}
            key = f"{action.kind}:{action.target}"
        transition = screen.transitions.get(key)
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
        if package_id not in self.scenario.app_graphs:
            raise ScenarioError(f"store app {package_id} has no screen graph")
        seed = self._store[package_id]
        self._installed[package_id] = seed
        return seed
