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
``Scenario`` (``Scenario.store_index``, keyed by backend and threshold); a
new scenario with the same store catalog copies ``AppIndex.build``'s cache.

Cost model: a knowledge request is 1 planner call and 0 mobile steps; an
app selection is 1 planner call, with the launch costing 1 mobile step
(the budget also charges ``INSTALL_STEP_COST`` when the app came from the
store); each act is 1 planner call plus 1 mobile step, and is reflected on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, get_type_hints

from .app_index import AppIndex, AppMatch, RetrievalOutcome
from .errors import (
    AppNotInstalledError,
    EmptyTextError,
    NoAppAnywhereError,
    NotInStoreError,
    PocketRagError,
    ScenarioMismatchError,
    check_types,
    malformed,
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
from .task_memory import MATCH_EXACT, MATCH_NONE, MATCH_SIMILAR, MemoryStore, replay
from .web_search import SearchBackend, formulate_query, search

OUTCOME_SUCCESS = "success"
OUTCOME_FAILURE = "failure"
OUTCOME_BUDGET = "budget_exhausted"

# a run's memory route is the lookup's match kind
MEMORY_HIT_EXACT, MEMORY_HIT_SIMILAR, MEMORY_HIT_NONE = MATCH_EXACT, MATCH_SIMILAR, MATCH_NONE

# the kind of each event a run logs, in ``TaskRun.events`` and the run log
EVENT_MEMORY_LOOKUP = "memory_lookup"
EVENT_INSTALL = "install"
EVENT_REPLAY = "replay"
EVENT_DECISION = "decision"
EVENT_RETRIEVAL = "retrieval"
EVENT_SELECTION = "selection"
EVENT_ACTION = "action"
EVENT_REFLECTION = "reflection"
EVENT_FINISH = "finish"
EVENT_BUDGET = "budget"
EVENT_MEMORY_COMMIT = "memory_commit"
EVENT_RUN_END = "run_end"

# mobile steps a store install charges against the step budget
INSTALL_STEP_COST = 1


@dataclass(frozen=True)
class AgentConfig:
    """Thresholds, retrieval width and budgets."""

    tau_local: float = 0.5
    tau_mem: float = 0.8
    k_apps: int = 3
    max_steps: int = 30
    max_planner_calls: int = 30

    def __post_init__(self) -> None:
        check_types(vars(self), _AGENT_CONFIG_TYPES)
        for name in ("tau_local", "tau_mem"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        for name in ("k_apps", "max_steps", "max_planner_calls"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @classmethod
    def from_dict(cls, data: Mapping) -> "AgentConfig":
        """Build from a config mapping; unknown keys and bad values raise PocketRagError."""
        with malformed(PocketRagError, "invalid agent config"):
            return cls(**data)


# each field's type is its annotation
_AGENT_CONFIG_TYPES = get_type_hints(AgentConfig)


@dataclass(frozen=True)
class RunCounters:
    planner_calls: int
    mobile_steps: int
    searches: int
    installs: int
    memory_hit: str

    def to_dict(self) -> dict:
        return dict(vars(self))


# each counter's type in the run log is its annotation
_COUNTER_TYPES = get_type_hints(RunCounters)


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

    def to_dict(self) -> dict:
        """The run without its events, which the run log writes line by line."""
        return {
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

    @classmethod
    def from_dict(cls, data: Mapping) -> "TaskRun":
        check_types(data["counters"], _COUNTER_TYPES)
        for r in data["reflections"]:
            check_types(r, {"index": int, "ok": bool, "diagnosis": str})
        return cls(
            task_id=data["task_id"],
            outcome=data["outcome"],
            trace=ActionTrace.from_jsonable(data["trace"]),
            app_selections=tuple((q, p) for q, p in data["app_selections"]),
            reflections=tuple(
                (r["index"], ReflectionVerdict(ok=r["ok"], diagnosis=r.get("diagnosis", "")))
                for r in data["reflections"]
            ),
            counters=RunCounters(**data["counters"]),
        )


@dataclass(frozen=True)
class SelectionResult:
    """What select_and_open_app did: the launched package and where it came from."""

    package_id: str
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
    """Resolve an app request: retrieve, pick, install if from the store, launch.

    The local index is retrieved first. When it rejects the query, the
    scenario's store index is retrieved the same way, and the picked store
    app is installed and registered into the live index before its launch.
    The launch is one mobile step either way. Raises NoAppAnywhereError
    when neither side clears the threshold, or when the query embeds to
    nothing.
    """
    outcome = _retrieve(index, app_query, config.k_apps)
    from_store = not outcome.found
    if from_store:
        store_index = device.scenario.store_index(index.backend, index.threshold)
        store_outcome = _retrieve(store_index, app_query, config.k_apps)
        if not store_outcome.found:
            raise NoAppAnywhereError(
                f"no app matches {app_query!r}: local best "
                f"{outcome.best_score!r}, store best {store_outcome.best_score!r}"
            )
        outcome = store_outcome
    pick = planner.pick_app(app_query, outcome.matches)
    if from_store:
        index.register(device.install_from_store(pick))
    device.execute(Action.launch(pick))
    return SelectionResult(
        package_id=pick,
        installed_from_store=from_store,
        candidates=outcome.matches,
    )


def _retrieve(index: AppIndex, app_query: str, k: int) -> RetrievalOutcome:
    """``index.retrieve``, raising NoAppAnywhereError for a query that embeds to nothing."""
    try:
        return index.retrieve(app_query, k=k)
    except EmptyTextError as exc:
        raise NoAppAnywhereError(f"no app matches {app_query!r}: {exc}") from exc


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
    if index.package_ids() != device.installed_ids:
        raise ScenarioMismatchError(
            "index packages do not match the scenario's installed apps"
        )
    run = _Run(instruction, device, index, memory, search_backend, planner, reflector, config)
    outcome = run.memory_phase() or run.planning_loop()

    trace = ActionTrace(steps=tuple(device.history))
    if outcome == OUTCOME_SUCCESS:
        try:
            memory.commit(instruction, trace)
        except EmptyTextError:
            run.log(EVENT_MEMORY_COMMIT, query=instruction, skipped="unembeddable")
        else:
            run.log(EVENT_MEMORY_COMMIT, query=instruction, trace_length=len(trace))
    counters = RunCounters(
        planner_calls=run.planner_calls,
        mobile_steps=len(trace),
        searches=run.searches,
        installs=run.installs,
        memory_hit=run.memory_hit,
    )
    run.log(EVENT_RUN_END, outcome=outcome, counters=counters.to_dict())
    return TaskRun(
        task_id=task_id,
        outcome=outcome,
        trace=trace,
        app_selections=tuple(run.app_selections),
        reflections=tuple(run.reflections),
        counters=counters,
        events=tuple(run.events),
    )


@dataclass
class _Run:
    """One run_task invocation: what it works with, and its bookkeeping."""

    instruction: str
    device: Device
    index: AppIndex
    memory: MemoryStore
    search_backend: SearchBackend
    planner: Planner
    reflector: Reflector
    config: AgentConfig
    planner_calls: int = 0
    searches: int = 0
    installs: int = 0
    memory_hit: str = MEMORY_HIT_NONE
    guidance: str | None = None
    knowledge: str | None = None
    candidates: tuple[AppMatch, ...] | None = None
    notices: list[str] = field(default_factory=list)
    history: list[HistoryEntry] = field(default_factory=list)
    reflections: list[tuple[int, ReflectionVerdict]] = field(default_factory=list)
    app_selections: list[tuple[str, str]] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    def log(self, event: str, **payload) -> None:
        self.events.append({"event": event, **payload})

    def memory_phase(self) -> str | None:
        """Route through memory; returns a final outcome on completed replay."""
        try:
            match = self.memory.lookup(self.instruction)
        except EmptyTextError:  # nothing can be similar to the zero vector
            match = None
        if match is None or match.is_none:
            self.log(EVENT_MEMORY_LOOKUP, hit=MEMORY_HIT_NONE)
            return None
        self.memory_hit = match.kind
        if match.is_similar:
            self.guidance = render_guidance(match.record)
            self.log(
                EVENT_MEMORY_LOOKUP, hit=match.kind, matched_query=match.record.query_text, score=match.score
            )
            return None

        # exact hit: reacquire any store apps the trace launches, then replay
        self.log(EVENT_MEMORY_LOOKUP, hit=match.kind, matched_query=match.record.query_text)
        # the index mirrors the installed apps; the replay aborts on an unsold one
        for step in match.record.trace.steps:
            action = step.action
            if action.kind == "launch" and action.package not in self.index:
                try:
                    seed = self.device.install_from_store(action.package)
                except NotInStoreError:
                    continue
                self.index.register(seed)
                self.installs += 1
                self.log(EVENT_INSTALL, package=action.package, phase="replay_prepare")

        result = replay(match.record, self.device)
        if result.completed:
            self.log(EVENT_REPLAY, status=result.status, actions=result.actions_executed)
            return OUTCOME_SUCCESS
        # demote the aborted record to similar-style guidance and plan onward
        self.guidance = render_guidance(match.record)
        self.log(
            EVENT_REPLAY,
            status=result.status,
            actions=result.actions_executed,
            abort_index=result.abort_index,
            reason=result.reason,
        )
        return None

    def planning_loop(self) -> str:
        """Plan and act until a finish, a stop or a spent budget; returns the outcome."""
        device, config = self.device, self.config
        while True:
            steps_consumed = len(device.history) + self.installs * INSTALL_STEP_COST
            if self.planner_calls >= config.max_planner_calls:
                self.log(EVENT_BUDGET, exhausted="planner_calls")
                return OUTCOME_BUDGET
            if steps_consumed >= config.max_steps:
                self.log(EVENT_BUDGET, exhausted="mobile_steps")
                return OUTCOME_BUDGET

            context = PlannerContext(
                instruction=self.instruction,
                screen=device.observe(),
                history=tuple(self.history),
                step_budget_remaining=config.max_steps - steps_consumed,
                memory_guidance=self.guidance,
                knowledge=self.knowledge,
                app_candidates=self.candidates,
                notices=tuple(self.notices),
            )
            decision = self.planner.plan(context)
            self.planner_calls += 1
            self.log(EVENT_DECISION, kind=decision.kind, detail=_decision_detail(decision))

            if decision.kind == DECISION_NEED_KNOWLEDGE:
                query = formulate_query(self.instruction, decision.entities)
                context_out = search(self.search_backend, query)
                self.knowledge = context_out.digest
                self.searches += 1
                self.log(
                    EVENT_RETRIEVAL,
                    stage="web",
                    query=query.text,
                    results=len(context_out.results),
                )
            elif decision.kind == DECISION_SELECT_APP:
                try:
                    selection = select_and_open_app(
                        decision.app_query, self.index, device, self.planner, config
                    )
                except NoAppAnywhereError as exc:
                    self.notices.append(str(exc))
                    self.log(EVENT_RETRIEVAL, stage="apps", query=decision.app_query, found=False)
                    continue
                if selection.installed_from_store:
                    self.installs += 1
                    self.log(EVENT_INSTALL, package=selection.package_id, phase="select")
                self.candidates = selection.candidates
                self.app_selections.append((decision.app_query, selection.package_id))
                self.log(
                    EVENT_SELECTION,
                    query=decision.app_query,
                    package=selection.package_id,
                    from_store=selection.installed_from_store,
                )
                self.history.append(HistoryEntry(step=device.history[-1]))
                self.log(EVENT_ACTION, step=device.history[-1].to_dict())
            elif decision.kind == DECISION_ACT:
                before = context.screen  # the device is unchanged since it was observed
                try:
                    step = device.execute(decision.action)
                except AppNotInstalledError as exc:
                    self.notices.append(f"launch failed: {exc} is not installed")
                    continue
                self.log(EVENT_ACTION, step=step.to_dict())
                after = device.observe()
                verdict = self.reflector.reflect(before, decision.action, after, self.instruction)
                self.reflections.append((len(device.history) - 1, verdict))
                self.log(
                    EVENT_REFLECTION,
                    index=len(device.history) - 1,
                    ok=verdict.ok,
                    diagnosis=verdict.diagnosis,
                )
                self.history.append(HistoryEntry(step=step, verdict=verdict))
                if device.stopped:
                    final = device.history[-1].action
                    return OUTCOME_SUCCESS if final.success else OUTCOME_FAILURE
            elif decision.kind == DECISION_FINISH:
                if not device.stopped:
                    step = device.execute(Action.stop(decision.success))
                    self.history.append(HistoryEntry(step=step))
                    self.log(EVENT_ACTION, step=step.to_dict(), synthesized=True)
                self.log(EVENT_FINISH, success=decision.success, reason=decision.reason)
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
