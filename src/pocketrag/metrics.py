"""Ground truth and the five-metric evaluation suite.

Metrics over a set of task runs:

- app selection: the i-th selection of a run is correct iff it equals the
  i-th expected app.
- action fidelity: executed actions aligned to expected patterns by
  longest common subsequence, over the expected count.
- reflection precision: a verdict is correct iff it agrees with the
  simulator's effect oracle (ok exactly when the step was not a no-op).
- task completion: fraction of sub-goal predicates (flag equality or
  screen visited) satisfied by the run's trace.
- task success: the run claimed success and met every sub-goal.

All percentages are recomputable from serialized runs alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .agent import OUTCOME_SUCCESS, TaskRun
from .errors import InvalidGroundTruthError, MisalignmentError
from .simulator import EFFECT_NO_OP, HOME_SCREEN, ActionStep

WILDCARD = "*"


@dataclass(frozen=True)
class ActionPattern:
    """Expected action shape: a kind plus an optional target pattern.

    The target slot holds the element id for tap/type, the direction for
    swipe, the package for launch, and nothing for back/stop. ``*``
    matches any value.
    """

    kind: str
    target: str | None = None

    def matches(self, step: ActionStep) -> bool:
        if step.action.kind != self.kind:
            return False
        if self.target == WILDCARD:
            return True
        return self.target == _action_key(step)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ActionPattern":
        return cls(kind=data["kind"], target=data.get("target"))

    def to_dict(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.target is not None:
            data["target"] = self.target
        return data


def _action_key(step: ActionStep) -> str | None:
    action = step.action
    if action.kind in ("tap", "type"):
        return action.target
    if action.kind == "swipe":
        return action.direction
    if action.kind == "launch":
        return action.package
    return None


@dataclass(frozen=True)
class SubGoal:
    """One verifiable unit of task completion."""

    name: str
    kind: str  # "flag" or "screen"
    flag: str | None = None
    equals: str | None = None
    screen: str | None = None

    def __post_init__(self) -> None:
        if self.kind == "flag":
            if self.flag is None or self.equals is None:
                raise InvalidGroundTruthError(
                    f"flag sub-goal {self.name!r} needs flag and equals"
                )
        elif self.kind == "screen":
            if not self.screen:
                raise InvalidGroundTruthError(
                    f"screen sub-goal {self.name!r} needs a screen id"
                )
        else:
            raise InvalidGroundTruthError(f"unknown sub-goal kind {self.kind!r}")

    def met_by(self, run: TaskRun) -> bool:
        if self.kind == "flag":
            return any(
                flag == self.flag and value == self.equals
                for step in run.trace.steps
                for flag, value in step.flag_changes
            )
        visited = {HOME_SCREEN}
        for step in run.trace.steps:
            visited.add(step.pre_screen_id)
            visited.add(step.post_screen_id)
        return self.screen in visited

    @classmethod
    def from_dict(cls, data: Mapping) -> "SubGoal":
        return cls(
            name=data["name"],
            kind=data["kind"],
            flag=data.get("flag"),
            equals=data.get("equals"),
            screen=data.get("screen"),
        )

    def to_dict(self) -> dict:
        data: dict = {"name": self.name, "kind": self.kind}
        if self.flag is not None:
            data["flag"] = self.flag
        if self.equals is not None:
            data["equals"] = self.equals
        if self.screen is not None:
            data["screen"] = self.screen
        return data


@dataclass(frozen=True)
class GroundTruth:
    """Per-task reference: expected apps in order, action patterns, sub-goals."""

    expected_apps: tuple[str, ...]
    expected_actions: tuple[ActionPattern, ...]
    sub_goals: tuple[SubGoal, ...]

    def __post_init__(self) -> None:
        if not self.sub_goals:
            raise InvalidGroundTruthError("ground truth needs at least one sub-goal")

    @classmethod
    def from_dict(cls, data: Mapping) -> "GroundTruth":
        return cls(
            expected_apps=tuple(data.get("expected_apps", [])),
            expected_actions=tuple(
                ActionPattern.from_dict(p) for p in data.get("expected_actions", [])
            ),
            sub_goals=tuple(SubGoal.from_dict(g) for g in data.get("sub_goals", [])),
        )

    def to_dict(self) -> dict:
        return {
            "expected_apps": list(self.expected_apps),
            "expected_actions": [p.to_dict() for p in self.expected_actions],
            "sub_goals": [g.to_dict() for g in self.sub_goals],
        }


def lcs_matches(steps: Sequence[ActionStep], patterns: Sequence[ActionPattern]) -> int:
    """Length of the longest order-preserving alignment of steps to patterns."""
    n, m = len(steps), len(patterns)
    if n == 0 or m == 0:
        return 0
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if patterns[j - 1].matches(steps[i - 1]):
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[n][m]


def reflection_oracle(run: TaskRun, index: int) -> bool:
    """The only ground truth the simulator can supply: did the step do anything."""
    if index < 0 or index >= len(run.trace.steps):
        raise MisalignmentError(
            f"run {run.task_id}: reflection index {index} outside trace"
        )
    return run.trace.steps[index].effect != EFFECT_NO_OP


@dataclass(frozen=True)
class TaskScore:
    """Per-task tallies that sum into the suite report."""

    run_id: str
    task_id: str
    outcome: str
    selections_correct: int
    selections_total: int
    actions_matched: int
    actions_total: int
    reflections_correct: int
    reflections_total: int
    subgoals_met: int
    subgoals_total: int
    succeeded: bool
    mobile_steps: int
    planner_calls: int
    memory_hit: str

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "task_id": self.task_id,
            "outcome": self.outcome,
            "selections": [self.selections_correct, self.selections_total],
            "actions": [self.actions_matched, self.actions_total],
            "reflections": [self.reflections_correct, self.reflections_total],
            "subgoals": [self.subgoals_met, self.subgoals_total],
            "succeeded": self.succeeded,
            "mobile_steps": self.mobile_steps,
            "planner_calls": self.planner_calls,
            "memory_hit": self.memory_hit,
        }


@dataclass(frozen=True)
class MetricsReport:
    """The five suite percentages plus efficiency counters and task rows."""

    as_pct: float
    af_pct: float
    rp_pct: float
    tcr_pct: float
    tsr_pct: float
    avg_mobile_steps: float
    avg_planner_calls: float
    tasks: tuple[TaskScore, ...]

    def to_dict(self) -> dict:
        return {
            "app_selection_pct": self.as_pct,
            "action_fidelity_pct": self.af_pct,
            "reflection_precision_pct": self.rp_pct,
            "task_completion_ratio_pct": self.tcr_pct,
            "task_success_rate_pct": self.tsr_pct,
            "avg_mobile_steps": self.avg_mobile_steps,
            "avg_planner_calls": self.avg_planner_calls,
            "tasks": [t.to_dict() for t in self.tasks],
        }

    def render_table(self) -> str:
        header = (
            f"{'AS (%)':>8} {'AF (%)':>8} {'RP (%)':>8} "
            f"{'TCR (%)':>8} {'TSR (%)':>8} {'AvgSteps':>9} {'AvgCalls':>9}"
        )
        row = (
            f"{self.as_pct:8.1f} {self.af_pct:8.1f} {self.rp_pct:8.1f} "
            f"{self.tcr_pct:8.1f} {self.tsr_pct:8.1f} "
            f"{self.avg_mobile_steps:9.2f} {self.avg_planner_calls:9.2f}"
        )
        return header + "\n" + row


def _pct(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 100.0
    return 100.0 * numerator / denominator


def score_run(
    run: TaskRun,
    truth: GroundTruth,
    run_id: str | None = None,
) -> TaskScore:
    """Tally one run against its ground truth."""
    selections_total = len(run.app_selections)
    selections_correct = sum(
        1
        for i, (_, chosen) in enumerate(run.app_selections)
        if i < len(truth.expected_apps) and chosen == truth.expected_apps[i]
    )

    matched = lcs_matches(run.trace.steps, truth.expected_actions)

    reflections_total = len(run.reflections)
    reflections_correct = sum(
        1
        for index, verdict in run.reflections
        if verdict.ok == reflection_oracle(run, index)
    )

    subgoals_total = len(truth.sub_goals)
    subgoals_met = sum(1 for goal in truth.sub_goals if goal.met_by(run))

    succeeded = run.outcome == OUTCOME_SUCCESS and subgoals_met == subgoals_total
    return TaskScore(
        run_id=run_id or run.task_id,
        task_id=run.task_id,
        outcome=run.outcome,
        selections_correct=selections_correct,
        selections_total=selections_total,
        actions_matched=matched,
        actions_total=len(truth.expected_actions),
        reflections_correct=reflections_correct,
        reflections_total=reflections_total,
        subgoals_met=subgoals_met,
        subgoals_total=subgoals_total,
        succeeded=succeeded,
        mobile_steps=run.counters.mobile_steps,
        planner_calls=run.counters.planner_calls,
        memory_hit=run.counters.memory_hit,
    )


def compute_metrics(
    runs: Sequence[TaskRun],
    truths: Mapping[str, GroundTruth],
    run_ids: Sequence[str] | None = None,
    total_tasks: int | None = None,
) -> MetricsReport:
    """Aggregate the five metrics over a run set.

    ``truths`` is keyed by task id; every run must have one. ``total_tasks``
    widens the success-rate denominator when some tasks never produced a
    run (harness-level errors).
    """
    if run_ids is not None and len(run_ids) != len(runs):
        raise MisalignmentError("run_ids and runs differ in length")
    scores = []
    for i, run in enumerate(runs):
        truth = truths.get(run.task_id)
        if truth is None:
            raise MisalignmentError(f"no ground truth for task {run.task_id!r}")
        rid = run_ids[i] if run_ids is not None else None
        scores.append(score_run(run, truth, run_id=rid))

    tsr_denominator = total_tasks if total_tasks is not None else len(scores)
    report = MetricsReport(
        as_pct=_pct(
            sum(s.selections_correct for s in scores),
            sum(s.selections_total for s in scores),
        ),
        af_pct=_pct(
            sum(s.actions_matched for s in scores),
            sum(s.actions_total for s in scores),
        ),
        rp_pct=_pct(
            sum(s.reflections_correct for s in scores),
            sum(s.reflections_total for s in scores),
        ),
        tcr_pct=_pct(
            sum(s.subgoals_met for s in scores),
            sum(s.subgoals_total for s in scores),
        ),
        tsr_pct=_pct(sum(1 for s in scores if s.succeeded), tsr_denominator),
        avg_mobile_steps=(
            sum(s.mobile_steps for s in scores) / len(scores) if scores else 0.0
        ),
        avg_planner_calls=(
            sum(s.planner_calls for s in scores) / len(scores) if scores else 0.0
        ),
        tasks=tuple(scores),
    )
    return report
