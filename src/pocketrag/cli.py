"""Operator command line: indexes, single runs, benchmarks, memory, corpora.

Precedence for settings is flags over config file over built-in defaults.
Secrets (API keys) come from environment variables named in the config,
never from flags. Results go to stdout, diagnostics to stderr; exit codes:
0 success, 1 task failed its goal, 2 usage or harness error, or an input
file that is malformed, undecodable or unreadable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .agent import AgentConfig, run_task
from .app_index import (
    AppIndex,
    AppSeed,
    KeywordQuerySource,
    generate_training_corpus,
    write_corpus,
)
from .bench import (
    BenchmarkTask,
    run_benchmark,
    validate_pack,
    write_run_log,
)
from .embedding import DEFAULT_BACKEND, resolve_backend, write_text_atomic
from .errors import MalformedEntryError, PocketRagError, check_types, malformed
from .planning import EffectReflector, HttpChatPlanner, ScriptedPlanner
from .simulator import Scenario
from .task_memory import MemoryStore
from .web_search import FixtureSearchBackend, HttpSearchBackend

EXIT_OK = 0
EXIT_TASK_FAILED = 1
EXIT_ERROR = 2

def _load_config(path: str | None) -> dict:
    """The config file: an object whose ``agent``, ``live_planner`` and ``search`` are objects."""
    with malformed(MalformedEntryError, f"config {path!r}"):
        config = json.loads(Path(path).read_text(encoding="utf-8")) if path else {}
        check_types(config, {"agent": dict, "live_planner": dict, "search": dict})
    return config


def _read_catalog(path: str) -> list[AppSeed]:
    """A catalog file: a list of app entries, or an object holding it as ``apps``."""
    seeds = []
    with malformed(MalformedEntryError, f"catalog {path!r}"):
        catalog = json.loads(Path(path).read_text(encoding="utf-8"))
        for entry in catalog.get("apps") if isinstance(catalog, dict) else catalog:
            with malformed(MalformedEntryError, f"app entry {entry!r}"):
                seeds.append(AppSeed.from_dict(entry))
    return seeds


def _agent_config(config: dict, overrides: dict) -> AgentConfig:
    merged = dict(config.get("agent", {}))
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return AgentConfig.from_dict(merged)


def _resolve_embedder(config: dict, name: str | None):
    return resolve_backend(name or config.get("embedder", DEFAULT_BACKEND))


def _planner_for(name: str, config: dict, task: BenchmarkTask | None):
    if name == "scripted":
        if task is None or not task.script:
            raise PocketRagError("scripted planner needs a task file with a script")
        return ScriptedPlanner(task.script)
    if name == "live":
        live = config.get("live_planner", {})
        if "endpoint" not in live or "model" not in live:
            raise PocketRagError(
                "live planner needs live_planner.endpoint and .model in the config"
            )
        return HttpChatPlanner(
            endpoint=live["endpoint"],
            model=live["model"],
            api_key_env=live.get("api_key_env"),
            timeout=live.get("timeout", 60.0),
        )
    raise PocketRagError(f"unknown planner {name!r}")


def _search_backend_for(name: str, config: dict, scenario: Scenario):
    if name == "fixture":
        return FixtureSearchBackend(scenario.search_fixtures)
    if name == "http":
        http = config.get("search", {})
        if "endpoint" not in http:
            raise PocketRagError("http search needs search.endpoint in the config")
        return HttpSearchBackend(
            endpoint=http["endpoint"],
            api_key_env=http.get("api_key_env"),
            timeout_ms=http.get("timeout_ms", 10_000),
        )
    raise PocketRagError(f"unknown search backend {name!r}")


# --- subcommands --------------------------------------------------------------


def _cmd_index_build(args: argparse.Namespace, config: dict) -> int:
    backend = _resolve_embedder(config, args.backend)
    threshold = _agent_config(config, {"tau_local": args.threshold}).tau_local
    index = AppIndex.build(_read_catalog(args.catalog), backend, threshold=threshold)
    index.save(args.out)
    print(f"indexed {len(index)} apps -> {args.out}")
    return EXIT_OK


def _cmd_index_query(args: argparse.Namespace, config: dict) -> int:
    backend_name = args.backend or config.get("embedder")
    backend = resolve_backend(backend_name) if backend_name else None
    index = AppIndex.load(args.index, backend=backend)
    outcome = index.retrieve(args.q, k=_agent_config(config, {"k_apps": args.k}).k_apps)
    if not outcome.found:
        if outcome.best_score is None:
            print("NO_LOCAL_APP (empty index)")
        else:
            print(f"NO_LOCAL_APP best={outcome.best_score:.4f}")
        return EXIT_OK
    for i, match in enumerate(outcome.matches, start=1):
        print(f"{i}. {match.app_name} ({match.package_id}) score={match.score:.4f}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace, config: dict) -> int:
    scenario = Scenario.from_file(args.scenario)
    task = None
    instruction = args.instruction
    if args.task:
        with malformed(MalformedEntryError, f"task file {args.task!r}"):
            task = BenchmarkTask.from_dict(json.loads(Path(args.task).read_text(encoding="utf-8")))
        instruction = task.instruction
    if not instruction:
        raise PocketRagError("provide --task or --instruction")

    backend = _resolve_embedder(config, args.backend)
    agent_config = _agent_config(
        config,
        {
            "tau_local": args.tau_local,
            "tau_mem": args.tau_mem,
            "max_steps": args.max_steps,
            "max_planner_calls": args.max_planner_calls,
        },
    )
    # thresholds follow flags > config > defaults, even over the ones saved in files
    if args.index:
        index = AppIndex.load(args.index, backend=backend, threshold=agent_config.tau_local)
    else:
        index = AppIndex.build(
            scenario.installed_apps, backend, threshold=agent_config.tau_local
        )
    memory_path = Path(args.memory) if args.memory else None
    if memory_path and memory_path.is_file():
        memory = MemoryStore.load(memory_path, backend=backend, threshold=agent_config.tau_mem)
    else:
        memory = MemoryStore(backend, threshold=agent_config.tau_mem)

    run = run_task(
        instruction=instruction,
        scenario=scenario,
        index=index,
        memory=memory,
        search_backend=_search_backend_for(args.search, config, scenario),
        planner=_planner_for(args.planner, config, task),
        reflector=EffectReflector(),
        config=agent_config,
        task_id=task.task_id if task else "adhoc",
    )
    if memory_path:
        memory.save(memory_path)
    if args.out:
        write_run_log(run, args.out)

    counters = run.counters
    print(f"outcome: {run.outcome}")
    print(
        f"planner_calls={counters.planner_calls} mobile_steps={counters.mobile_steps} "
        f"searches={counters.searches} installs={counters.installs} "
        f"memory_hit={counters.memory_hit}"
    )
    for i, step in enumerate(run.trace.steps, start=1):
        print(f"  {i}. {step.action.describe()} [{step.effect}]")
    return EXIT_OK if run.outcome == "success" else EXIT_TASK_FAILED


def _cmd_bench(args: argparse.Namespace, config: dict) -> int:
    report = run_benchmark(
        args.pack,
        memory_enabled=args.memory == "on",
        suite=args.suite,
        out_dir=args.out,
    )
    print(report.render_text(), end="")
    if args.out:
        print(f"report written to {args.out}")
    return EXIT_ERROR if report.harness_errors else EXIT_OK


def _cmd_memory(args: argparse.Namespace, config: dict) -> int:
    backend_name = args.backend or config.get("embedder")
    backend = resolve_backend(backend_name) if backend_name else None
    path = Path(args.store)
    if args.memory_cmd == "ls":
        if not path.is_file():
            print("(empty)")
            return EXIT_OK
        store = MemoryStore.load(path, backend=backend)
        if not len(store):
            print("(empty)")
        for record in store.records():
            print(
                f"{record.normalized_query} | steps={len(record.trace)} "
                f"| successes={record.success_count}"
            )
        return EXIT_OK
    if args.memory_cmd == "clear":
        if path.is_file():
            store = MemoryStore.load(path, backend=backend)
            store.clear()
            store.save(path)
        print("memory cleared")
        return EXIT_OK
    if args.memory_cmd == "export":
        store = MemoryStore.load(path, backend=backend)
        out = args.out or "-"
        payload = json.dumps(store.to_dict(), indent=2)
        if out == "-":
            print(payload)
        else:
            write_text_atomic(out, payload)
            print(f"exported {len(store)} records -> {out}")
        return EXIT_OK
    raise PocketRagError(f"unknown memory subcommand {args.memory_cmd!r}")


def _cmd_corpus(args: argparse.Namespace, config: dict) -> int:
    examples = generate_training_corpus(
        _read_catalog(args.catalog),
        queries_per_app=args.per_app,
        none_fraction=args.none,
        query_source=KeywordQuerySource(),
        seed=args.seed,
    )
    write_corpus(examples, args.out)
    none_cases = sum(1 for e in examples if e.is_none_case)
    print(f"wrote {len(examples)} examples ({none_cases} none-cases) -> {args.out}")
    return EXIT_OK


def _cmd_pack_validate(args: argparse.Namespace, config: dict) -> int:
    result = validate_pack(args.pack)
    if result.stats:
        print(json.dumps(result.stats.to_dict(), indent=2, sort_keys=True))
    if result.ok:
        print("pack OK")
        return EXIT_OK
    for violation in result.violations:
        print(f"violation: {violation}", file=sys.stderr)
    return EXIT_ERROR


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def _fraction(text: str) -> float:
    if not 0.0 <= float(text) < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text}")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pocketrag")
    parser.add_argument("--config", help="JSON config file")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_index = sub.add_parser("index", help="build or query an app index")
    index_sub = p_index.add_subparsers(dest="index_cmd", required=True)
    p_build = index_sub.add_parser("build")
    p_build.add_argument("--catalog", required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--threshold", type=float)
    p_build.add_argument("--backend")
    p_build.set_defaults(func=_cmd_index_build)
    p_query = index_sub.add_parser("query")
    p_query.add_argument("--index", required=True)
    p_query.add_argument("--q", required=True)
    p_query.add_argument("-k", type=_positive_int)
    p_query.add_argument("--backend")
    p_query.set_defaults(func=_cmd_index_query)

    p_run = sub.add_parser("run", help="run one task against a scenario")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--task")
    p_run.add_argument("--instruction")
    p_run.add_argument("--index")
    p_run.add_argument("--memory")
    p_run.add_argument("--planner", default="scripted", choices=["scripted", "live"])
    p_run.add_argument("--search", default="fixture", choices=["fixture", "http"])
    p_run.add_argument("--backend")
    p_run.add_argument("--tau-local", dest="tau_local", type=float)
    p_run.add_argument("--tau-mem", dest="tau_mem", type=float)
    p_run.add_argument("--max-steps", dest="max_steps", type=int)
    p_run.add_argument("--max-planner-calls", dest="max_planner_calls", type=int)
    p_run.add_argument("--out", help="run log path")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="run a benchmark pack")
    p_bench.add_argument("--pack", required=True)
    p_bench.add_argument("--suite", default="default")
    p_bench.add_argument("--memory", default="on", choices=["on", "off"])
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=_cmd_bench)

    p_memory = sub.add_parser("memory", help="inspect or manage the memory store")
    p_memory.add_argument("memory_cmd", choices=["ls", "clear", "export"])
    p_memory.add_argument("--store", required=True)
    p_memory.add_argument("--out")
    p_memory.add_argument("--backend")
    p_memory.set_defaults(func=_cmd_memory)

    p_corpus = sub.add_parser("corpus", help="generate a training corpus")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_cmd", required=True)
    p_generate = corpus_sub.add_parser("generate")
    p_generate.add_argument("--catalog", required=True)
    p_generate.add_argument("--per-app", dest="per_app", type=_positive_int, required=True)
    p_generate.add_argument("--none", type=_fraction, default=0.0)
    p_generate.add_argument("--out", required=True)
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.set_defaults(func=_cmd_corpus)

    p_pack = sub.add_parser("pack", help="validate a benchmark pack")
    pack_sub = p_pack.add_subparsers(dest="pack_cmd", required=True)
    p_validate = pack_sub.add_parser("validate")
    p_validate.add_argument("--pack", required=True)
    p_validate.set_defaults(func=_cmd_pack_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _load_config(args.config))
    except (PocketRagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
