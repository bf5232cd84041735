"""Benchmark packs: loading, validation, suite execution, reports.

A pack directory holds a manifest, scenario files, task files, and search
fixtures. Tasks declare a tier (atomic, multi_app, open_scenario), point
at a scenario, and carry ground truth plus a script for the deterministic
planner. The runner executes a suite through the agent, one task at a
time in suite order, aggregates the five-metric report, and archives one
run log per task; with scripted components the whole report is
byte-reproducible.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .agent import AgentConfig, TaskRun, run_task
from .app_index import AppIndex
from .embedding import EmbedderBackend, resolve_backend
from .errors import (
    DanglingScenarioRefError,
    InvalidGroundTruthError,
    ManifestError,
    PocketRagError,
)
from .metrics import GroundTruth, MetricsReport, compute_metrics
from .planning import EffectReflector, Planner, Reflector, ScriptedPlanner
from .simulator import Scenario
from .task_memory import MemoryStore
from .web_search import FixtureSearchBackend, SearchBackend, formulate_query

logger = logging.getLogger(__name__)

TIER_ATOMIC = "atomic"
TIER_MULTI_APP = "multi_app"
TIER_OPEN_SCENARIO = "open_scenario"
TIERS = (TIER_ATOMIC, TIER_MULTI_APP, TIER_OPEN_SCENARIO)

DEFAULT_BACKEND_NAME = "hashed-token-384"


@dataclass(frozen=True)
class BenchmarkTask:
    task_id: str
    instruction: str
    tier: str
    scenario_ref: str
    ground_truth: GroundTruth
    script: tuple[dict, ...] = ()

    @classmethod
    def from_dict(cls, data: Mapping) -> "BenchmarkTask":
        tier = data["tier"]
        if tier not in TIERS:
            raise InvalidGroundTruthError(
                f"task {data.get('task_id')!r}: unknown tier {tier!r}"
            )
        return cls(
            task_id=data["task_id"],
            instruction=data["instruction"],
            tier=tier,
            scenario_ref=data["scenario"],
            ground_truth=GroundTruth.from_dict(data["ground_truth"]),
            script=tuple(dict(s) for s in data.get("script", [])),
        )


@dataclass(frozen=True)
class BenchStats:
    """Pack-level statistics, frozen into the manifest and recomputed on load."""

    tasks: int
    multi_app_tasks: int
    no_app_tasks: int
    apps: int
    avg_ops: float
    total_ops: int

    def to_dict(self) -> dict:
        return {
            "tasks": self.tasks,
            "multi_app_tasks": self.multi_app_tasks,
            "no_app_tasks": self.no_app_tasks,
            "apps": self.apps,
            "avg_ops": self.avg_ops,
            "total_ops": self.total_ops,
        }


def compute_stats(
    tasks: Sequence[BenchmarkTask], scenarios: Mapping[str, Scenario]
) -> BenchStats:
    packages: set[str] = set()
    for scenario in scenarios.values():
        packages.update(s.package_id for s in scenario.installed_apps)
        packages.update(s.package_id for s in scenario.store_catalog)
    total_ops = sum(len(t.ground_truth.expected_actions) for t in tasks)
    return BenchStats(
        tasks=len(tasks),
        multi_app_tasks=sum(1 for t in tasks if t.tier == TIER_MULTI_APP),
        no_app_tasks=sum(1 for t in tasks if t.tier == TIER_OPEN_SCENARIO),
        apps=len(packages),
        avg_ops=total_ops / len(tasks) if tasks else 0.0,
        total_ops=total_ops,
    )


@dataclass
class Pack:
    """A fully loaded benchmark pack."""

    name: str
    root: Path
    tasks: list[BenchmarkTask]
    scenarios: dict[str, Scenario]
    suites: dict[str, list[str]]
    agent_config: AgentConfig
    stats: BenchStats

    def task(self, task_id: str) -> BenchmarkTask:
        for task in self.tasks:
            if task.task_id == task_id:
                return task
        raise KeyError(task_id)


def load_pack(path: str | Path) -> Pack:
    """Load and validate a pack directory; raises on structural problems."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise ManifestError(f"no manifest.json under {root}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc

    scenarios: dict[str, Scenario] = {}
    for rel in manifest.get("scenarios", []):
        scenario = Scenario.from_file(root / rel)
        if scenario.scenario_id in scenarios:
            raise ManifestError(f"duplicate scenario id {scenario.scenario_id!r}")
        scenarios[scenario.scenario_id] = scenario

    tasks: list[BenchmarkTask] = []
    seen_ids: set[str] = set()
    for rel in manifest.get("tasks", []):
        data = json.loads((root / rel).read_text(encoding="utf-8"))
        task = BenchmarkTask.from_dict(data)
        if task.task_id in seen_ids:
            raise ManifestError(f"duplicate task id {task.task_id!r}")
        seen_ids.add(task.task_id)
        if task.scenario_ref not in scenarios:
            raise DanglingScenarioRefError(
                f"task {task.task_id!r} references unknown scenario "
                f"{task.scenario_ref!r}"
            )
        _validate_task_against_scenario(task, scenarios[task.scenario_ref])
        tasks.append(task)

    if not tasks:
        raise ManifestError("pack declares no tasks")

    suites = {
        name: list(ids) for name, ids in manifest.get("suites", {}).items()
    }
    suites.setdefault("default", [t.task_id for t in tasks])
    for name, ids in suites.items():
        for task_id in ids:
            if task_id not in seen_ids:
                raise ManifestError(f"suite {name!r} lists unknown task {task_id!r}")

    stats = compute_stats(tasks, scenarios)
    frozen = manifest.get("stats")
    if frozen is not None:
        recomputed = stats.to_dict()
        for key, value in frozen.items():
            got = recomputed.get(key)
            same = (
                abs(got - value) <= 1e-9
                if isinstance(value, float) or isinstance(got, float)
                else got == value
            )
            if not same:
                raise ManifestError(
                    f"manifest stats disagree with recomputation on {key!r}: "
                    f"frozen {value!r}, recomputed {got!r}"
                )

    config = AgentConfig.from_dict(manifest.get("agent_config", {}))
    return Pack(
        name=manifest.get("name", root.name),
        root=root,
        tasks=tasks,
        scenarios=scenarios,
        suites=suites,
        agent_config=config,
        stats=stats,
    )


def _validate_task_against_scenario(task: BenchmarkTask, scenario: Scenario) -> None:
    available = {s.package_id for s in scenario.installed_apps}
    available.update(s.package_id for s in scenario.store_catalog)
    for package in task.ground_truth.expected_apps:
        if package not in available:
            raise InvalidGroundTruthError(
                f"task {task.task_id!r} expects app {package!r} absent from "
                f"scenario {scenario.scenario_id!r}"
            )
    screens = {
        screen_id
        for graph in scenario.app_graphs.values()
        for screen_id in graph.screens
    }
    screens.add("home")
    for goal in task.ground_truth.sub_goals:
        if goal.kind == "screen" and goal.screen not in screens:
            raise InvalidGroundTruthError(
                f"task {task.task_id!r} sub-goal {goal.name!r} references "
                f"unknown screen {goal.screen!r}"
            )


def load_benchmark(path: str | Path) -> tuple[list[BenchmarkTask], BenchStats]:
    """Load a pack and return its tasks plus recomputed statistics."""
    pack = load_pack(path)
    return pack.tasks, pack.stats


# --- suite execution ---------------------------------------------------------


@dataclass(frozen=True)
class HarnessError:
    run_id: str
    task_id: str
    error: str

    def to_dict(self) -> dict:
        return {"run_id": self.run_id, "task_id": self.task_id, "error": self.error}


@dataclass
class BenchmarkReport:
    """Suite outcome: overall metrics, per-pass metrics, errors, raw runs."""

    pack_name: str
    suite: str
    memory_enabled: bool
    metrics: MetricsReport
    per_pass: list[MetricsReport]
    harness_errors: list[HarnessError]
    runs: list[TaskRun] = field(default_factory=list)
    run_ids: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "pack": self.pack_name,
            "suite": self.suite,
            "memory_enabled": self.memory_enabled,
            "metrics": self.metrics.to_dict(),
            "per_pass": [m.to_dict() for m in self.per_pass],
            "harness_errors": [e.to_dict() for e in self.harness_errors],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [
            f"pack: {self.pack_name}  suite: {self.suite}  "
            f"memory: {'on' if self.memory_enabled else 'off'}",
            "",
            self.metrics.render_table(),
        ]
        for i, report in enumerate(self.per_pass, start=1):
            lines.append("")
            lines.append(f"pass {i}:")
            lines.append(report.render_table())
        if self.harness_errors:
            lines.append("")
            lines.append("harness errors:")
            for err in self.harness_errors:
                lines.append(f"  {err.run_id}: {err.error}")
        return "\n".join(lines) + "\n"


def scripted_planner_factory(task: BenchmarkTask) -> Planner:
    return ScriptedPlanner(task.script)


def effect_reflector_factory(task: BenchmarkTask) -> Reflector:
    return EffectReflector()


def run_benchmark(
    pack: Pack | str | Path,
    planner_factory: Callable[[BenchmarkTask], Planner] = scripted_planner_factory,
    reflector_factory: Callable[[BenchmarkTask], Reflector] = effect_reflector_factory,
    search_backend_factory: Callable[[Scenario], SearchBackend] | None = None,
    config: AgentConfig | None = None,
    memory_enabled: bool = True,
    suite: str = "default",
    backend: EmbedderBackend | None = None,
    out_dir: str | Path | None = None,
) -> BenchmarkReport:
    """Run one suite and aggregate the report.

    Tasks run serially in suite order. With memory enabled they share one
    memory store, so repeated task ids exercise exact replay; with memory
    disabled each task gets a fresh store.
    """
    if not isinstance(pack, Pack):
        pack = load_pack(pack)
    if suite not in pack.suites:
        raise ManifestError(f"pack has no suite named {suite!r}")
    config = config or pack.agent_config
    backend = backend or resolve_backend(DEFAULT_BACKEND_NAME)
    if search_backend_factory is None:
        search_backend_factory = lambda scenario: FixtureSearchBackend(
            scenario.search_fixtures
        )

    shared_memory = None
    if memory_enabled:
        counter = iter(range(1, 10**9))
        shared_memory = MemoryStore(
            backend, threshold=config.tau_mem, clock=lambda: float(next(counter))
        )

    task_ids = pack.suites[suite]
    occurrence: dict[str, int] = {}
    runs: list[TaskRun] = []
    run_ids: list[str] = []
    passes: dict[int, tuple[list[TaskRun], list[str]]] = {}
    errors: list[HarnessError] = []
    for task_id in task_ids:
        occurrence[task_id] = n = occurrence.get(task_id, 0) + 1
        run_id = task_id if n == 1 else f"{task_id}@{n}"
        task = pack.task(task_id)
        scenario = pack.scenarios[task.scenario_ref]
        index = AppIndex.build(
            scenario.installed_apps, backend, threshold=config.tau_local
        )
        memory = (
            shared_memory
            if shared_memory is not None
            else MemoryStore(backend, threshold=config.tau_mem)
        )
        try:
            run = run_task(
                instruction=task.instruction,
                scenario=scenario,
                index=index,
                memory=memory,
                search_backend=search_backend_factory(scenario),
                planner=planner_factory(task),
                reflector=reflector_factory(task),
                config=config,
                task_id=task.task_id,
            )
        except Exception as exc:  # harness-level failure; the suite goes on
            logger.exception("task %s failed at the harness level", run_id)
            errors.append(
                HarnessError(run_id, task.task_id, f"{type(exc).__name__}: {exc}")
            )
            continue
        runs.append(run)
        run_ids.append(run_id)
        pass_runs, pass_ids = passes.setdefault(n, ([], []))
        pass_runs.append(run)
        pass_ids.append(run_id)

    truths = {t.task_id: t.ground_truth for t in pack.tasks}
    metrics = compute_metrics(runs, truths, run_ids=run_ids, total_tasks=len(task_ids))
    per_pass = []
    if len(passes) > 1:
        for n in sorted(passes):
            pass_runs, pass_ids = passes[n]
            per_pass.append(compute_metrics(pass_runs, truths, run_ids=pass_ids))

    report = BenchmarkReport(
        pack_name=pack.name,
        suite=suite,
        memory_enabled=memory_enabled,
        metrics=metrics,
        per_pass=per_pass,
        harness_errors=errors,
        runs=runs,
        run_ids=run_ids,
    )
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def write_report(report: BenchmarkReport, out_dir: str | Path) -> None:
    """Write report.json, report.txt, and one run log per task."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "report.txt").write_text(report.render_text(), encoding="utf-8")
    runs_dir = out / "runs"
    runs_dir.mkdir(exist_ok=True)
    for run_id, run in zip(report.run_ids, report.runs):
        write_run_log(run, runs_dir / f"{run_id.replace('@', '_r')}.jsonl")


def write_run_log(run: TaskRun, path: str | Path) -> None:
    """One event per line, closing with the full serialized run."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for event in run.events:
            fh.write(json.dumps(event, sort_keys=True))
            fh.write("\n")
        fh.write(json.dumps({"event": "run", "run": run.to_dict()}, sort_keys=True))
        fh.write("\n")


def read_run_log(path: str | Path) -> TaskRun:
    """Recover the serialized run from a log file."""
    last_run = None
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            event = json.loads(line)
            if event.get("event") == "run":
                last_run = event["run"]
    if last_run is None:
        raise PocketRagError(f"{path} contains no run record")
    return TaskRun.from_dict(last_run)


# --- pack validation ---------------------------------------------------------

MIN_TASKS = 15
MIN_SCENARIOS = 6
MIN_APPS = 12
MIN_INSTALL_TASKS = 3
MIN_KNOWLEDGE_TASKS = 3


@dataclass
class PackValidation:
    violations: list[str]
    stats: BenchStats | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_pack(path: str | Path) -> PackValidation:
    """Check pack-level invariants; violations are report content, not errors."""
    try:
        pack = load_pack(path)
    except PocketRagError as exc:
        return PackValidation(violations=[f"pack failed to load: {exc}"])

    violations: list[str] = []
    if len(pack.tasks) < MIN_TASKS:
        violations.append(f"pack has {len(pack.tasks)} tasks, needs >= {MIN_TASKS}")
    if len(pack.scenarios) < MIN_SCENARIOS:
        violations.append(
            f"pack has {len(pack.scenarios)} scenarios, needs >= {MIN_SCENARIOS}"
        )
    if pack.stats.apps < MIN_APPS:
        violations.append(f"pack covers {pack.stats.apps} apps, needs >= {MIN_APPS}")

    install_tasks = []
    knowledge_tasks = []
    for task in pack.tasks:
        scenario = pack.scenarios[task.scenario_ref]
        installed = {s.package_id for s in scenario.installed_apps}
        if any(p not in installed for p in task.ground_truth.expected_apps):
            install_tasks.append(task.task_id)
        if any(step.get("do") == "need_knowledge" for step in task.script):
            knowledge_tasks.append(task.task_id)
    if len(install_tasks) < MIN_INSTALL_TASKS:
        violations.append(
            f"only {len(install_tasks)} tasks require a store install, "
            f"needs >= {MIN_INSTALL_TASKS}"
        )
    if len(knowledge_tasks) < MIN_KNOWLEDGE_TASKS:
        violations.append(
            f"only {len(knowledge_tasks)} tasks require external knowledge, "
            f"needs >= {MIN_KNOWLEDGE_TASKS}"
        )

    for task in pack.tasks:
        scenario = pack.scenarios[task.scenario_ref]
        if task.tier == TIER_MULTI_APP and len(task.ground_truth.expected_apps) < 2:
            violations.append(
                f"multi_app task {task.task_id!r} lists "
                f"{len(task.ground_truth.expected_apps)} expected app(s)"
            )
        if task.tier == TIER_OPEN_SCENARIO:
            if not scenario.search_fixtures:
                violations.append(
                    f"open_scenario task {task.task_id!r} has no search fixtures "
                    f"in scenario {scenario.scenario_id!r}"
                )
            names = [s.app_name for s in scenario.installed_apps]
            names += [s.app_name for s in scenario.store_catalog]
            lowered = task.instruction.lower()
            for name in names:
                if name and name.lower() in lowered:
                    violations.append(
                        f"open_scenario task {task.task_id!r} names app {name!r} "
                        f"in its instruction"
                    )
        for step in task.script:
            if step.get("do") != "need_knowledge":
                continue
            query = formulate_query(task.instruction, step.get("entities", []))
            fixture = FixtureSearchBackend(scenario.search_fixtures)
            if not fixture.raw_search(query.text):
                violations.append(
                    f"task {task.task_id!r}: no search fixture answers "
                    f"{query.text!r}"
                )

    repeat = pack.suites.get("repeat")
    if not repeat:
        violations.append("pack has no repeat suite")
    else:
        counts: dict[str, int] = {}
        for task_id in repeat:
            counts[task_id] = counts.get(task_id, 0) + 1
        for task_id, count in counts.items():
            if count < 2:
                violations.append(
                    f"repeat suite lists {task_id!r} only {count} time(s)"
                )

    if abs(pack.stats.avg_ops * pack.stats.tasks - pack.stats.total_ops) > 1e-9:
        violations.append("stats: avg_ops * tasks != total_ops")

    return PackValidation(violations=violations, stats=pack.stats)
