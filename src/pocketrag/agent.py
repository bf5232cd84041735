"""The orchestrating agent: memory routing, knowledge, app selection, action loop.

One task run follows a fixed control flow. Memory is consulted first: an
exact hit replays the stored trace with zero planner calls; a similar hit
becomes guidance text. The planning loop then alternates planner decisions
with device execution: knowledge requests go to the search backend, app
requests go through the local index (falling back to a store install when
nothing local clears the threshold), actions are executed and reflected
on. Successful runs are committed back to memory. An instruction or app
query that embeds to the zero vector is not a harness error: its memory
lookup is a miss, its successful run is not committed, and its app request
fails as no app anywhere.

The store catalog's index is built on the first local miss and kept on the
``Scenario`` (``Scenario.store_index``, keyed by backend and threshold, where
backends that compare equal embed alike), so later misses on that scenario
object reuse it. Nothing is cached process-wide: a freshly loaded scenario
builds its own.

Cost model: a knowledge request is 1 planner call and 0 mobile steps; an
app selection is 1 planner call, with the launch costing 1 mobile step
(plus the configured install cost when the app came from the store); each
act is 1 planner call plus 1 mobile step.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

from .app_index import AppIndex, AppMatch, RetrievalOutcome
from .errors import (
    AppNotInstalledError,
    EmptyTextError,
    NoAppAnywhereError,
    PocketRagError,
    ScenarioMismatchError,
)
from .planning import (
    DECISION_ACT,
    DECISION_FINISH,
    DECISION_NEED_KNOWLEDGE,
    DECISION_SELECT_APP,
    HistoryEntry,
    Planner,
    PlannerContext,
    PlannerDecision,
    ReflectionVerdict,
    Reflector,
)
from .simulator import Action, ActionTrace, Device, Scenario
from .task_memory import MemoryStore, replay
from .web_search import SearchBackend, formulate_query, search

OUTCOME_SUCCESS = "success"
OUTCOME_FAILURE = "failure"
OUTCOME_BUDGET = "budget_exhausted"

MEMORY_HIT_EXACT = "exact"
MEMORY_HIT_SIMILAR = "similar"
MEMORY_HIT_NONE = "none"

REFLECT_ALWAYS = "always"
REFLECT_ON_NOOP = "on_noop"


@dataclass(frozen=True)
class AgentConfig:
    """Thresholds, retrieval widths, budgets, and accounting knobs."""

    tau_local: float = 0.5
    tau_mem: float = 0.8
    k_apps: int = 3
    k_search: int = 10
    max_steps: int = 30
    max_planner_calls: int = 30
    install_step_cost: int = 1
    reflect_mode: str = REFLECT_ALWAYS

    def __post_init__(self) -> None:
        if not 0.0 < self.tau_local < 1.0:
            raise ValueError("tau_local must be in (0, 1)")
        if not 0.0 < self.tau_mem < 1.0:
            raise ValueError("tau_mem must be in (0, 1)")
        if self.k_apps < 1:
            raise ValueError("k_apps must be >= 1")
        if self.k_search < 1:
            raise ValueError("k_search must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.max_planner_calls < 1:
            raise ValueError("max_planner_calls must be >= 1")
        if self.install_step_cost < 0:
            raise ValueError("install_step_cost must be >= 0")
        if self.reflect_mode not in (REFLECT_ALWAYS, REFLECT_ON_NOOP):
            raise ValueError(f"unknown reflect_mode {self.reflect_mode!r}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "AgentConfig":
        """Build from a config mapping; unknown keys and bad values raise PocketRagError."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise PocketRagError(f"unknown agent config key(s): {', '.join(unknown)}")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise PocketRagError(f"invalid agent config: {exc}") from exc


@dataclass(frozen=True)
class RunCounters:
    planner_calls: int
    mobile_steps: int
    searches: int
    installs: int
    memory_hit: str

    def to_dict(self) -> dict:
        return {
            "planner_calls": self.planner_calls,
            "mobile_steps": self.mobile_steps,
            "searches": self.searches,
            "installs": self.installs,
            "memory_hit": self.memory_hit,
        }


@dataclass(frozen=True)
class TaskRun:
    """Everything one execution produced, sufficient to recompute metrics."""

    task_id: str
    outcome: str
    trace: ActionTrace
    app_selections: tuple[tuple[str, str], ...]
    reflections: tuple[tuple[int, ReflectionVerdict], ...]
    counters: RunCounters
    events: tuple[dict, ...] = ()

    def to_dict(self, include_events: bool = False) -> dict:
        data = {
            "task_id": self.task_id,
            "outcome": self.outcome,
            "trace": self.trace.to_jsonable(),
            "app_selections": [list(sel) for sel in self.app_selections],
            "reflections": [
                {"index": i, "ok": v.ok, "diagnosis": v.diagnosis}
                for i, v in self.reflections
            ],
            "counters": self.counters.to_dict(),
        }
        if include_events:
            data["events"] = list(self.events)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "TaskRun":
        return cls(
            task_id=data["task_id"],
            outcome=data["outcome"],
            trace=ActionTrace.from_jsonable(data["trace"]),
            app_selections=tuple((q, p) for q, p in data["app_selections"]),
            reflections=tuple(
                (
                    int(r["index"]),
                    ReflectionVerdict(ok=bool(r["ok"]), diagnosis=r.get("diagnosis", "")),
                )
                for r in data["reflections"]
            ),
            counters=RunCounters(
                planner_calls=int(data["counters"]["planner_calls"]),
                mobile_steps=int(data["counters"]["mobile_steps"]),
                searches=int(data["counters"]["searches"]),
                installs=int(data["counters"]["installs"]),
                memory_hit=data["counters"]["memory_hit"],
            ),
            events=tuple(data.get("events", ())),
        )


@dataclass(frozen=True)
class SelectionResult:
    """What select_and_open_app did: the launched package and its cost."""

    package_id: str
    steps_used: int
    installed_from_store: bool
    candidates: tuple[AppMatch, ...]


def render_guidance(record) -> str:
    """Similar-case block handed to the planner: past query plus its steps."""
    lines = [f"Previously completed task: {record.query_text}"]
    for i, step in enumerate(record.trace.steps, start=1):
        lines.append(f"{i}. {step.action.describe()}")
    return "\n".join(lines)


def select_and_open_app(
    app_query: str,
    index: AppIndex,
    device: Device,
    planner: Planner,
    config: AgentConfig,
) -> SelectionResult:
    """Resolve an app request: local hit, or store install, then launch.

    A local match launches in exactly one mobile step. When the local
    index rejects the query, the scenario's store index is retrieved the
    same way; a store hit is installed (``install_step_cost`` steps),
    registered into the live index, and launched. Raises
    NoAppAnywhereError when neither side clears the threshold, or when the
    query embeds to nothing.
    """
    outcome = _retrieve(index, app_query, config.k_apps)
    if outcome.found:
        pick = planner.pick_app(app_query, outcome.matches)
        device.execute(Action.launch(pick))
        return SelectionResult(
            package_id=pick,
            steps_used=1,
            installed_from_store=False,
            candidates=outcome.matches,
        )

    store_index = device.scenario.store_index(index.backend, index.threshold)
    store_outcome = _retrieve(store_index, app_query, config.k_apps)
    if not store_outcome.found:
        raise NoAppAnywhereError(
            f"no app matches {app_query!r}: local best "
            f"{outcome.best_score!r}, store best {store_outcome.best_score!r}"
        )
    pick = planner.pick_app(app_query, store_outcome.matches)
    seed = device.install_from_store(pick)
    index.register(seed, installed=True)
    device.execute(Action.launch(pick))
    return SelectionResult(
        package_id=pick,
        steps_used=1 + config.install_step_cost,
        installed_from_store=True,
        candidates=store_outcome.matches,
    )


def _retrieve(index: AppIndex, app_query: str, k: int) -> RetrievalOutcome:
    """``index.retrieve``, raising NoAppAnywhereError for a query that embeds to nothing."""
    try:
        return index.retrieve(app_query, k=k)
    except EmptyTextError as exc:
        raise NoAppAnywhereError(f"no app matches {app_query!r}: {exc}") from exc


class _RunState:
    """Mutable bookkeeping for one run_task invocation."""

    def __init__(self) -> None:
        self.planner_calls = 0
        self.searches = 0
        self.installs = 0
        self.memory_hit = MEMORY_HIT_NONE
        self.guidance: str | None = None
        self.knowledge: str | None = None
        self.candidates: tuple[AppMatch, ...] | None = None
        self.notices: list[str] = []
        self.history: list[HistoryEntry] = []
        self.reflections: list[tuple[int, ReflectionVerdict]] = []
        self.app_selections: list[tuple[str, str]] = []
        self.events: list[dict] = []

    def log(self, event: str, **payload) -> None:
        self.events.append({"event": event, **payload})


def run_task(
    instruction: str,
    scenario: Scenario,
    index: AppIndex,
    memory: MemoryStore,
    search_backend: SearchBackend,
    planner: Planner,
    reflector: Reflector,
    config: AgentConfig,
    task_id: str = "task",
) -> TaskRun:
    """Run one instruction end to end and return the full run record.

    The scenario is loaded into a fresh device here; the index must cover
    exactly the scenario's installed apps (store installs keep the two in
    sync as the run proceeds).
    """
    device = Device(scenario)
    if set(index) != set(device.installed_packages):
        raise ScenarioMismatchError(
            "index packages do not match the scenario's installed apps"
        )
    state = _RunState()

    outcome = _memory_phase(instruction, device, index, memory, state)
    if outcome is None:
        outcome = _planning_loop(
            instruction, device, index, search_backend, planner, reflector,
            config, state,
        )

    trace = ActionTrace(steps=tuple(device.history))
    if outcome == OUTCOME_SUCCESS:
        try:
            memory.commit(instruction, trace)
        except EmptyTextError:
            state.log("memory_commit", query=instruction, skipped="unembeddable")
        else:
            state.log("memory_commit", query=instruction, trace_length=len(trace))
    counters = RunCounters(
        planner_calls=state.planner_calls,
        mobile_steps=len(trace),
        searches=state.searches,
        installs=state.installs,
        memory_hit=state.memory_hit,
    )
    state.log("run_end", outcome=outcome, counters=counters.to_dict())
    return TaskRun(
        task_id=task_id,
        outcome=outcome,
        trace=trace,
        app_selections=tuple(state.app_selections),
        reflections=tuple(state.reflections),
        counters=counters,
        events=tuple(state.events),
    )


def _memory_phase(
    instruction: str,
    device: Device,
    index: AppIndex,
    memory: MemoryStore,
    state: _RunState,
) -> str | None:
    """Route through memory; returns a final outcome on completed replay."""
    try:
        match = memory.lookup(instruction)
    except EmptyTextError:  # nothing can be similar to the zero vector
        match = None
    if match is None or match.is_none:
        state.log("memory_lookup", hit=MEMORY_HIT_NONE)
        return None

    if match.is_similar:
        state.memory_hit = MEMORY_HIT_SIMILAR
        state.guidance = render_guidance(match.record)
        state.log(
            "memory_lookup",
            hit=MEMORY_HIT_SIMILAR,
            matched_query=match.record.query_text,
            score=match.score,
        )
        return None

    # exact hit: reacquire any store apps the trace launches, then replay
    state.memory_hit = MEMORY_HIT_EXACT
    state.log("memory_lookup", hit=MEMORY_HIT_EXACT, matched_query=match.record.query_text)
    installed = set(device.installed_packages)
    store = {seed.package_id for seed in device.store_seeds}
    for step in match.record.trace.steps:
        action = step.action
        if action.kind == "launch" and action.package not in installed:
            if action.package in store:
                seed = device.install_from_store(action.package)
                index.register(seed, installed=True)
                installed.add(action.package)
                state.installs += 1
                state.log("install", package=action.package, phase="replay_prepare")

    result = replay(match.record, device)
    if result.completed:
        state.log("replay", status=result.status, actions=result.actions_executed)
        return OUTCOME_SUCCESS
    # demote the aborted record to similar-style guidance and plan onward
    state.guidance = render_guidance(match.record)
    state.log(
        "replay",
        status=result.status,
        actions=result.actions_executed,
        abort_index=result.abort_index,
        reason=result.reason,
    )
    return None


def _planning_loop(
    instruction: str,
    device: Device,
    index: AppIndex,
    search_backend: SearchBackend,
    planner: Planner,
    reflector: Reflector,
    config: AgentConfig,
    state: _RunState,
) -> str:
    while True:
        steps_consumed = len(device.history) + state.installs * config.install_step_cost
        if state.planner_calls >= config.max_planner_calls:
            state.log("budget", exhausted="planner_calls")
            return OUTCOME_BUDGET
        if steps_consumed >= config.max_steps:
            state.log("budget", exhausted="mobile_steps")
            return OUTCOME_BUDGET

        context = PlannerContext(
            instruction=instruction,
            screen=device.observe(),
            history=tuple(state.history),
            step_budget_remaining=config.max_steps - steps_consumed,
            memory_guidance=state.guidance,
            knowledge=state.knowledge,
            app_candidates=state.candidates,
            notices=tuple(state.notices),
        )
        decision = planner.plan(context)
        state.planner_calls += 1
        state.log("decision", kind=decision.kind, detail=_decision_detail(decision))

        if decision.kind == DECISION_NEED_KNOWLEDGE:
            query = formulate_query(instruction, decision.entities)
            context_out = search(search_backend, query, k=config.k_search)
            state.knowledge = context_out.digest
            state.searches += 1
            state.log(
                "retrieval",
                stage="web",
                query=query.text,
                results=len(context_out.results),
            )
        elif decision.kind == DECISION_SELECT_APP:
            try:
                selection = select_and_open_app(
                    decision.app_query, index, device, planner, config
                )
            except NoAppAnywhereError as exc:
                state.notices.append(str(exc))
                state.log("retrieval", stage="apps", query=decision.app_query, found=False)
                continue
            if selection.installed_from_store:
                state.installs += 1
                state.log("install", package=selection.package_id, phase="select")
            state.candidates = selection.candidates
            state.app_selections.append((decision.app_query, selection.package_id))
            state.log(
                "selection",
                query=decision.app_query,
                package=selection.package_id,
                from_store=selection.installed_from_store,
            )
            state.history.append(HistoryEntry(step=device.history[-1]))
            state.log("action", step=device.history[-1].to_dict())
        elif decision.kind == DECISION_ACT:
            before = device.observe()
            try:
                step = device.execute(decision.action)
            except AppNotInstalledError as exc:
                state.notices.append(f"launch failed: {exc} is not installed")
                continue
            state.log("action", step=step.to_dict())
            verdict = None
            if config.reflect_mode == REFLECT_ALWAYS or step.effect == "no_op":
                after = device.observe()
                verdict = reflector.reflect(before, decision.action, after, instruction)
                state.reflections.append((len(device.history) - 1, verdict))
                state.log(
                    "reflection",
                    index=len(device.history) - 1,
                    ok=verdict.ok,
                    diagnosis=verdict.diagnosis,
                )
            state.history.append(HistoryEntry(step=step, verdict=verdict))
            if device.stopped:
                final = device.history[-1].action
                return OUTCOME_SUCCESS if final.success else OUTCOME_FAILURE
        elif decision.kind == DECISION_FINISH:
            if not device.stopped:
                step = device.execute(Action.stop(decision.success))
                state.history.append(HistoryEntry(step=step))
                state.log("action", step=step.to_dict(), synthesized=True)
            state.log("finish", success=decision.success, reason=decision.reason)
            return OUTCOME_SUCCESS if decision.success else OUTCOME_FAILURE
        else:  # pragma: no cover - decision kinds are closed
            raise ValueError(f"unknown decision kind {decision.kind!r}")


def _decision_detail(decision: PlannerDecision) -> dict:
    if decision.kind == DECISION_NEED_KNOWLEDGE:
        return {"entities": list(decision.entities)}
    if decision.kind == DECISION_SELECT_APP:
        return {"query": decision.app_query}
    if decision.kind == DECISION_ACT:
        return {"action": decision.action.to_dict()}
    return {"success": decision.success, "reason": decision.reason}
