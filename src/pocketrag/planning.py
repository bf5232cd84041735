"""Planner and reflector interfaces plus the shipped implementations.

The planner sees an observation context and answers with exactly one
decision: ask for external knowledge, ask for an app, act on the device,
or finish. The scripted planner drives benchmark tasks deterministically
from a task script; the HTTP planner speaks a chat-completion endpoint
under a fixed prompt contract. Reflectors judge whether an executed
action achieved anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence, TypeVar, runtime_checkable

from .app_index import AppMatch
from .errors import PlannerFailureError, check_types, malformed
from .simulator import _ACTION_FIELD_TYPES, Action, ActionStep, ScreenState

DECISION_NEED_KNOWLEDGE = "need_knowledge"
DECISION_SELECT_APP = "select_app"
DECISION_ACT = "act"
DECISION_FINISH = "finish"

HISTORY_WINDOW = 8  # latest steps shown to the planner

T = TypeVar("T")


@dataclass(frozen=True)
class PlannerDecision:
    """Exactly one decision per planner call."""

    kind: str
    entities: tuple[str, ...] = ()
    app_query: str = ""
    action: Action | None = None
    success: bool = False
    reason: str = ""

    @staticmethod
    def need_knowledge(entities: Sequence[str]) -> "PlannerDecision":
        return PlannerDecision(kind=DECISION_NEED_KNOWLEDGE, entities=tuple(entities))

    @staticmethod
    def select_app(app_query: str) -> "PlannerDecision":
        return PlannerDecision(kind=DECISION_SELECT_APP, app_query=app_query)

    @staticmethod
    def act(action: Action) -> "PlannerDecision":
        return PlannerDecision(kind=DECISION_ACT, action=action)

    @staticmethod
    def finish(success: bool, reason: str = "") -> "PlannerDecision":
        return PlannerDecision(kind=DECISION_FINISH, success=success, reason=reason)


@dataclass(frozen=True)
class ReflectionVerdict:
    """Post-action judgment; a failed verdict must explain itself."""

    ok: bool
    diagnosis: str = ""

    def __post_init__(self) -> None:
        if not self.ok and not self.diagnosis:
            raise ValueError("a not-ok verdict needs a diagnosis")


@dataclass(frozen=True)
class HistoryEntry:
    """One executed step plus its reflection, if any."""

    step: ActionStep
    verdict: ReflectionVerdict | None = None


@dataclass(frozen=True)
class PlannerContext:
    """Everything the planner may look at for one decision."""

    instruction: str
    screen: ScreenState
    history: tuple[HistoryEntry, ...]
    step_budget_remaining: int
    memory_guidance: str | None = None
    knowledge: str | None = None
    app_candidates: tuple[AppMatch, ...] | None = None
    notices: tuple[str, ...] = ()


@runtime_checkable
class Planner(Protocol):
    """Decision backend. ``pick_app`` confirms one of the retrieved candidates."""

    def plan(self, context: PlannerContext) -> PlannerDecision:
        ...

    def pick_app(self, app_query: str, candidates: Sequence[AppMatch]) -> str:
        ...


@runtime_checkable
class Reflector(Protocol):
    def reflect(
        self,
        before: ScreenState,
        action: Action,
        after: ScreenState,
        intent: str,
    ) -> ReflectionVerdict:
        ...


# the type of each field a decision may set, in a script entry or a planner reply
_DECISION_FIELD_TYPES = {
    "query": str, "entities": list, "action": dict, "success": bool, "reason": str, "pick": str | None
}


def check_script(script: Sequence[Mapping]) -> None:
    """Raise PlannerFailureError naming the first script entry that holds a
    value of the wrong type (``check_types``): a field of the entry or of its
    action, or an entity that is not a string.

    Only types are checked, once, when a task loads, so that a wrong type
    fails the load rather than the step that reaches it; an entry of an
    unknown kind, or an action its kind does not allow, still fails when
    the planner reaches it. One guard covers the script; the entry's
    position goes into the ValueError it re-raises.
    """
    with malformed(PlannerFailureError, "task script"):
        for position, entry in enumerate(script):
            part = ""
            try:
                check_types(entry, _DECISION_FIELD_TYPES)
                if not all(isinstance(e, str) for e in entry.get("entities", ())):
                    raise ValueError(f"entities {entry['entities']!r} are not all strings")
                part = "action "
                check_types(entry.get("action", {}), _ACTION_FIELD_TYPES)
            except (AttributeError, ValueError) as exc:
                raise ValueError(f"script entry {position}: {part}{exc}") from exc


def decision_from_script(entry: Mapping) -> PlannerDecision:
    """Translate one task-script entry into a decision.

    Checks only what translation needs (``Action.from_dict`` checks an
    action's types); ``check_script`` checks the rest once, when a task loads.
    """
    kind = entry["do"]
    if kind == DECISION_NEED_KNOWLEDGE:
        return PlannerDecision.need_knowledge(entry.get("entities", []))
    if kind == DECISION_SELECT_APP:
        return PlannerDecision.select_app(entry["query"])
    if kind == DECISION_ACT:
        return PlannerDecision.act(Action.from_dict(entry["action"]))
    if kind == DECISION_FINISH:
        return PlannerDecision.finish(entry.get("success", True), entry.get("reason", ""))
    raise ValueError(f"unknown script step {kind!r}")


class ScriptedPlanner:
    """Replays a fixed decision script; deterministic by construction.

    ``select_app`` entries may carry a ``pick`` (the package to confirm
    among retrieved candidates); without one, the top-ranked candidate is
    picked. ``pick_app`` confirms the pick of the latest ``select_app``
    that ``plan`` returned, or of the script's first one before that.
    """

    def __init__(self, script: Sequence[Mapping]) -> None:
        self._script = [dict(entry) for entry in script]
        self._cursor = 0
        selects = [e for e in self._script if e.get("do") == DECISION_SELECT_APP]
        self._pick = selects[0].get("pick") if selects else None

    def plan(self, context: PlannerContext) -> PlannerDecision:
        if self._cursor >= len(self._script):
            return PlannerDecision.finish(False, "script exhausted")
        entry = self._script[self._cursor]
        self._cursor += 1
        with malformed(PlannerFailureError, f"script entry {self._cursor - 1}"):
            decision = decision_from_script(entry)
        if decision.kind == DECISION_SELECT_APP:
            self._pick = entry.get("pick")
        return decision

    def pick_app(self, app_query: str, candidates: Sequence[AppMatch]) -> str:
        for candidate in candidates:
            if candidate.package_id == self._pick:
                return self._pick
        return candidates[0].package_id


class EffectReflector:
    """Judges an action by whether anything observable changed."""

    def reflect(
        self,
        before: ScreenState,
        action: Action,
        after: ScreenState,
        intent: str,
    ) -> ReflectionVerdict:
        changed = (
            before.screen_id != after.screen_id
            or before.state_flags != after.state_flags
        )
        if changed:
            return ReflectionVerdict(ok=True)
        return ReflectionVerdict(
            ok=False,
            diagnosis=(
                f"{action.describe()} had no visible effect on screen "
                f"{before.screen_id!r}"
            ),
        )


# --- live HTTP planner ------------------------------------------------------

SYSTEM_PROMPT = """\
You operate a mobile device step by step. Reply with exactly one JSON object
and nothing else. The object must take one of these forms:
  {"decision": "need_knowledge", "entities": ["..."]}
  {"decision": "select_app", "query": "..."}
  {"decision": "act", "action": {"kind": "tap|type|swipe|back|stop",
      "target": "...", "text": "...", "direction": "up|down|left|right",
      "success": true}}
  {"decision": "finish", "success": true, "reason": "..."}
Use need_knowledge for unfamiliar entities, select_app to open an app by
describing it, act for one device action, finish when the task is done or
impossible.
"""

PICK_PROMPT = """\
Pick the app best matching the request. Reply with exactly one JSON object:
  {"pick": "<package_id>"}
"""


def render_context_blocks(context: PlannerContext) -> str:
    """Fixed block order: instruction, guidance, knowledge, candidates, screen, history."""
    blocks = [f"## Instruction\n{context.instruction}"]
    if context.memory_guidance:
        blocks.append(f"## Similar past task\n{context.memory_guidance}")
    if context.knowledge:
        blocks.append(f"## Retrieved knowledge\n{context.knowledge}")
    if context.app_candidates:
        lines = [
            f"{i}. {c.app_name} ({c.package_id}) score={c.score:.3f}"
            for i, c in enumerate(context.app_candidates, start=1)
        ]
        blocks.append("## App candidates\n" + "\n".join(lines))
    screen_lines = [
        f"- {e.element_id} [{e.role}] {e.text}".rstrip() for e in context.screen.elements
    ]
    blocks.append(
        f"## Screen {context.screen.screen_id} "
        f"(app: {context.screen.foreground_package})\n" + "\n".join(screen_lines)
    )
    if context.history:
        recent = context.history[-HISTORY_WINDOW:]
        lines = []
        for entry in recent:
            line = f"- {entry.step.action.describe()} -> {entry.step.effect}"
            if entry.verdict is not None and not entry.verdict.ok:
                line += f" (reflection: {entry.verdict.diagnosis})"
            lines.append(line)
        blocks.append("## Recent steps\n" + "\n".join(lines))
    if context.notices:
        blocks.append("## Notices\n" + "\n".join(f"- {n}" for n in context.notices))
    blocks.append(f"## Remaining step budget\n{context.step_budget_remaining}")
    return "\n\n".join(blocks)


def parse_decision_response(text: str) -> PlannerDecision:
    """Parse one JSON decision object out of a model response."""
    data = _extract_json_object(text)
    check_types(data, _DECISION_FIELD_TYPES)
    kind = data.get("decision")
    if kind == DECISION_NEED_KNOWLEDGE:
        entities = data.get("entities")
        if not entities or not all(isinstance(e, str) for e in entities):
            raise ValueError("need_knowledge requires a non-empty list of string entities")
        return PlannerDecision.need_knowledge(entities)
    if kind == DECISION_SELECT_APP:
        query = data.get("query", "").strip()
        if not query:
            raise ValueError("select_app requires a query")
        return PlannerDecision.select_app(query)
    if kind == DECISION_ACT:
        if "kind" not in data.get("action", {}):
            raise ValueError("act requires an action object with a kind")
        return PlannerDecision.act(Action.from_dict(data["action"]))
    if kind == DECISION_FINISH:
        return PlannerDecision.finish(data.get("success", False), data.get("reason", ""))
    raise ValueError(f"unknown or missing decision kind: {kind!r}")


def _extract_json_object(text: str) -> dict:
    start = text.find("{")
    if start < 0:
        raise ValueError("response contains no JSON object")
    try:
        data, _ = json.JSONDecoder().raw_decode(text[start:])
    except json.JSONDecodeError as exc:
        raise ValueError(f"response JSON does not parse: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("response JSON is not an object")
    return data


class HttpChatPlanner:
    """Chat-completion backend behind the decision schema above.

    ``plan`` and ``pick_app`` retry an unparseable response (their parser
    raises ValueError) up to twice with the parse error appended; a third
    failure raises PlannerFailureError. The transport is injectable for tests.
    """

    MAX_PARSE_RETRIES = 2

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str | None = None,
        timeout: float = 60.0,
        transport=None,
    ) -> None:
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self._transport = transport or self._http_post

    def _http_post(self, payload: dict) -> str:
        import os

        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key_env:
            key = os.environ.get(self.api_key_env)
            if not key:
                raise PlannerFailureError(
                    f"environment variable {self.api_key_env!r} is not set"
                )
            headers["Authorization"] = f"Bearer {key}"
        response = requests.post(
            self.endpoint, json=payload, headers=headers, timeout=self.timeout
        )
        response.raise_for_status()
        body = response.json()
        return body["choices"][0]["message"]["content"]

    def _complete(self, system: str, user: str) -> str:
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }
        try:
            return self._transport(payload)
        except PlannerFailureError:
            raise
        except Exception as exc:
            raise PlannerFailureError(f"planner backend failed: {exc}") from exc

    def _ask(self, system: str, user: str, parse: Callable[[str], T]) -> T:
        last_error = ""
        for _ in range(self.MAX_PARSE_RETRIES + 1):
            text = self._complete(system, user + last_error)
            try:
                return parse(text)
            except ValueError as exc:
                last_error = f"\n\n## Parse error\n{exc}. Reply with one JSON object only."
        raise PlannerFailureError("planner response unparseable after retries")

    def plan(self, context: PlannerContext) -> PlannerDecision:
        return self._ask(SYSTEM_PROMPT, render_context_blocks(context), parse_decision_response)

    def pick_app(self, app_query: str, candidates: Sequence[AppMatch]) -> str:
        lines = [
            f"{i}. {c.app_name} ({c.package_id}) score={c.score:.3f}: {c.description}"
            for i, c in enumerate(candidates, start=1)
        ]
        user = f"Request: {app_query}\n\nCandidates:\n" + "\n".join(lines)

        def parse_pick(text: str) -> str:
            data = _extract_json_object(text)
            check_types(data, _DECISION_FIELD_TYPES)
            pick = data.get("pick")
            if pick not in {c.package_id for c in candidates}:
                raise ValueError(f"pick {pick!r} is not among the candidates")
            return pick

        return self._ask(PICK_PROMPT, user, parse_pick)
