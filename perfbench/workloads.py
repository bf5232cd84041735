"""The three benchmark workloads and the seeded generator behind two of them.

Every workload is a closed loop with one client in one thread: the next op
starts when the previous one has returned. A workload is driven in rounds.
Each round starts from a fresh ``setup()`` (program work only, timed as
``setup_s``), then runs the same list of ops. Rounds repeat identical work,
so the per-task counters are exact for a seed however many rounds fit.

The generator runs before any set-up and hands the program only generated
inputs (texts, app catalogs, scripts). It verifies, with the library's own
embedder, the retrieval properties each workload depends on, and fails
loudly rather than time a workload whose routes are not the intended ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pocketrag import agent, app_index, bench, metrics, planning, simulator, task_memory
from pocketrag.embedding import HashedTokenEmbedder, embed
from pocketrag.web_search import FixtureSearchBackend

DESK_PACK = Path(__file__).resolve().parent.parent / "packs" / "desk"

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"


class RenderingPlanner(planning.ScriptedPlanner):
    """Scripted decisions, but every ``plan`` call renders the prompt first.

    ``HttpChatPlanner`` renders the context blocks on every call; doing the
    same here makes prompt rendering a measured layer while leaving every
    decision, and so every report, unchanged.
    """

    def plan(self, context):
        planning.render_context_blocks(context)
        return super().plan(context)


@dataclass
class OpResult:
    """What the runner needs from one op: task counts and an error, if any."""

    tasks: int
    succeeded: int
    planner_calls: int
    mobile_steps: int
    error: str | None = None


def _tally(runs, error=None) -> OpResult:
    return OpResult(
        tasks=len(runs),
        succeeded=sum(run.outcome == agent.OUTCOME_SUCCESS for run in runs),
        planner_calls=sum(run.counters.planner_calls for run in runs),
        mobile_steps=sum(run.counters.mobile_steps for run in runs),
        error=error,
    )


def _words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """``count`` new pseudo-words of three syllables, none of them in ``taken``."""
    out = []
    while len(out) < count:
        word = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(3))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _matrix(backend, texts) -> np.ndarray:
    return np.stack([embed(backend, text).values for text in texts])


def _ranked(scores: np.ndarray, keys: list[str]) -> list[str]:
    """Order of ``AppIndex.retrieve``: rounded score descending, then key."""
    return [keys[i] for i in sorted(range(len(keys)), key=lambda i: (-round(float(scores[i]), 9), keys[i]))]


# --- desk-repeat --------------------------------------------------------------


class DeskRepeat:
    """One op is ``run_benchmark(desk, suite="repeat", memory_enabled=True)``.

    The desk pack is fixed, so the seed changes nothing here. Each op is
    checked byte for byte against the report of the stock
    ``ScriptedPlanner``, computed once before timing starts.
    """

    name = "desk-repeat"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.ops_per_round = 1 if tiny else 50
        pack = bench.load_pack(DESK_PACK)
        self.reference = bench.run_benchmark(pack, suite="repeat", memory_enabled=True).to_json()

    def setup(self):
        return bench.load_pack(DESK_PACK)

    def ops(self, state):
        return range(self.ops_per_round)

    def run_op(self, pack, op):
        return bench.run_benchmark(
            pack,
            planner_factory=lambda task: RenderingPlanner(task.script),
            suite="repeat",
            memory_enabled=True,
        )

    def check(self, state, op, report) -> OpResult:
        error = None if report.to_json() == self.reference else "report differs from the stock planner's"
        return _tally(report.runs, error)

    def check_round(self, state, ops, outputs) -> dict[int, str]:
        return {}


# --- store-fallback -----------------------------------------------------------

SYNTHETIC_CONFIG = agent.AgentConfig(
    tau_local=0.35, tau_mem=0.8, k_apps=3, max_steps=40, max_planner_calls=40
)


@dataclass(frozen=True)
class SyntheticTask:
    task_id: str
    instruction: str
    picks: tuple[tuple[str, str], ...]  # (app query, package) in order
    script: tuple[dict, ...]
    truth: metrics.GroundTruth


def _app_graph(package: str) -> dict:
    return {
        "entry": "main",
        "screens": {
            "main": {
                "elements": [{"element_id": "go", "role": "button", "text": "Go"}],
                "transitions": {"tap:go": {"flags": {f"{package}.done": "1"}}},
            }
        },
    }


class StoreFallback:
    """One op is one task on a phone-sized device image with a large store.

    Each task selects 2-3 apps and at least one of them misses locally, so
    ``select_and_open_app`` goes through the store: store index, install,
    ``register``, launch. The round has a fixed mix of 20 tasks: 12 with two
    apps and one store miss, 3 with three apps and one miss, 5 with three
    apps and two misses. The median then falls among the first kind and the
    tail (a quarter of the ops are of the last kind) among the last, for
    every seed.
    """

    name = "store-fallback"
    DESCRIPTION_TOKENS = 8
    QUERY_TOKENS = 4

    def __init__(self, seed: int, tiny: bool = False) -> None:
        rng = random.Random(seed)
        backend = HashedTokenEmbedder()
        installed_n, store_n = (20, 60) if tiny else (200, 2000)
        # (apps, store misses) per task; installed and store descriptions use
        # disjoint vocabularies so a store-bound query cannot hit locally
        mix = [(2, 1), (3, 2)] if tiny else [(2, 1)] * 12 + [(3, 1)] * 3 + [(3, 2)] * 5
        taken: set[str] = set()
        local_vocab = _words(rng, installed_n * 6, taken)
        store_vocab = _words(rng, store_n * 6, taken)

        def catalog(prefix, vocab, count):
            return [
                {
                    "name": f"{prefix.title()} {i}",
                    "package_id": f"com.{prefix}.a{i:04d}",
                    "description": " ".join(rng.sample(vocab, self.DESCRIPTION_TOKENS)),
                }
                for i in range(count)
            ]

        installed = catalog("local", local_vocab, installed_n)
        store = catalog("store", store_vocab, store_n)
        self.image = {
            "scenario_id": f"synthetic-{seed}",
            "installed_apps": installed,
            "store_catalog": store,
            "app_graphs": {app["package_id"]: _app_graph(app["package_id"]) for app in installed + store},
        }

        self._backend = backend
        self._apps = {app["package_id"]: app for app in installed + store}
        self._vectors = {
            app["package_id"]: row
            for app, row in zip(installed + store, _matrix(backend, [a["description"] for a in installed + store]))
        }
        self._installed = [app["package_id"] for app in installed]
        self._store = [app["package_id"] for app in store]

        self.tasks = []
        order = list(range(len(mix)))
        rng.shuffle(order)
        for number, slot in enumerate(order):
            apps, misses = mix[slot]
            sources = ["store"] * misses + ["local"] * (apps - misses)
            rng.shuffle(sources)
            self.tasks.append(self._task(rng, f"syn{number:03d}", sources))

    def _task(self, rng: random.Random, task_id: str, sources: list[str]) -> SyntheticTask:
        local = list(self._installed)
        picks = []
        for source in sources:
            pool = self._installed if source == "local" else self._store
            for _ in range(100):
                package = rng.choice(pool)
                if package in (p for _, p in picks):
                    continue
                tokens = rng.sample(self._apps[package]["description"].split(), self.QUERY_TOKENS)
                query = " ".join(tokens)
                if self._routes(query, package, source, local):
                    break
            else:
                raise RuntimeError(f"generator found no {source} query for {task_id}")
            picks.append((query, package))
            if source == "store":
                local.append(package)
        script = []
        for query, package in picks:
            script.append({"do": "select_app", "query": query, "pick": package})
            script.append({"do": "act", "action": {"kind": "tap", "target": "go"}})
        script.append({"do": "finish", "success": True})
        actions = []
        for _, package in picks:
            actions += [{"kind": "launch", "target": package}, {"kind": "tap", "target": "go"}]
        truth = metrics.GroundTruth.from_dict(
            {
                "expected_apps": [p for _, p in picks],
                "expected_actions": actions + [{"kind": "stop"}],
                "sub_goals": [
                    {"name": f"{p} done", "kind": "flag", "flag": f"{p}.done", "equals": "1"}
                    for _, p in picks
                ],
            }
        )
        instruction = f"{task_id}: " + " then ".join(query for query, _ in picks)
        return SyntheticTask(task_id, instruction, tuple(picks), tuple(script), truth)

    def _routes(self, query: str, package: str, source: str, local: list[str]) -> bool:
        """True when ``query`` reaches ``package`` the intended way.

        A local pick must clear ``tau_local`` locally and rank in the top
        ``k_apps``. A store pick must score below ``tau_local`` against every
        app in the live local index (installed apps plus this task's earlier
        store installs), then clear it in the store and rank in the top
        ``k_apps`` there.
        """
        q = embed(self._backend, query).values
        tau, k = SYNTHETIC_CONFIG.tau_local, SYNTHETIC_CONFIG.k_apps
        local_scores = np.array([self._vectors[p] @ q for p in local])
        if source == "local":
            return local_scores.max() >= tau and package in _ranked(local_scores, local)[:k]
        if local_scores.max() >= tau:
            return False
        store_scores = np.array([self._vectors[p] @ q for p in self._store])
        return store_scores.max() >= tau and package in _ranked(store_scores, self._store)[:k]

    def setup(self):
        return simulator.Scenario.from_dict(self.image)

    def ops(self, state):
        return self.tasks

    def run_op(self, scenario, task: SyntheticTask):
        backend = HashedTokenEmbedder()
        index = app_index.AppIndex.build(
            scenario.installed_apps, backend, threshold=SYNTHETIC_CONFIG.tau_local
        )
        return agent.run_task(
            instruction=task.instruction,
            scenario=scenario,
            index=index,
            memory=task_memory.MemoryStore(backend, threshold=SYNTHETIC_CONFIG.tau_mem),
            search_backend=_NO_SEARCH,
            planner=RenderingPlanner(task.script),
            reflector=planning.EffectReflector(),
            config=SYNTHETIC_CONFIG,
            task_id=task.task_id,
        )

    def check(self, state, task: SyntheticTask, run) -> OpResult:
        return _tally([run], _run_error(run, task.picks, agent.MEMORY_HIT_NONE))

    def check_round(self, state, ops, outputs) -> dict[int, str]:
        return _success_check(ops, outputs, {task.task_id: task.truth for task in ops})


class _NoSearch:
    name = "none"

    def raw_search(self, text):
        raise AssertionError("synthetic tasks never search")


_NO_SEARCH = _NoSearch()


def _run_error(run, picks, memory_hit) -> str | None:
    if run.outcome != agent.OUTCOME_SUCCESS:
        return f"outcome {run.outcome}"
    if run.app_selections != tuple(picks):
        return f"app selections {run.app_selections} != {tuple(picks)}"
    if run.counters.memory_hit != memory_hit:
        return f"memory route {run.counters.memory_hit} != {memory_hit}"
    return None


def _success_check(ops, outputs, truths) -> dict[int, str]:
    """``compute_metrics`` over the round must score 100% task success."""
    scored = [(i, run) for i, run in enumerate(outputs) if run is not None]
    if not scored:
        return {}
    report = metrics.compute_metrics(
        [run for _, run in scored], truths, run_ids=[str(i) for i, _ in scored]
    )
    if report.tsr_pct == 100.0:
        return {}
    return {int(row.run_id): "compute_metrics scores the run as failed" for row in report.tasks if not row.succeeded}


# --- memory-large ---------------------------------------------------------------

KIND_EXACT, KIND_SIMILAR, KIND_NOVEL = agent.MEMORY_HIT_EXACT, agent.MEMORY_HIT_SIMILAR, agent.MEMORY_HIT_NONE


@dataclass(frozen=True)
class MemoryOp:
    kind: str
    task_id: str
    instruction: str


class MemoryLarge:
    """One op is one desk task against a shared, prefilled ``MemoryStore``.

    Set-up commits thousands of records, each a synthetic query paired with
    the real trace of a desk task, so exact hits replay validly. The round
    holds a third each of exact repeats, reordered paraphrases (same tokens,
    so cosine 1.0 against the source, a similar hit) and novel queries from a
    disjoint vocabulary (no hit); every desk task appears equally often in
    each third. Successful tasks commit, so writes happen beside reads.
    """

    name = "memory-large"
    QUERY_TOKENS = 7

    def __init__(self, seed: int, tiny: bool = False) -> None:
        rng = random.Random(seed)
        backend = HashedTokenEmbedder()
        pack = bench.load_pack(DESK_PACK)
        self.task_ids = [task.task_id for task in pack.tasks]
        self.tau_mem = pack.agent_config.tau_mem
        records_n = 100 if tiny else 5000
        per_kind = 3 if tiny else 2 * len(self.task_ids)

        taken: set[str] = set()
        record_vocab = _words(rng, 3000, taken)
        novel_vocab = _words(rng, 3000, taken)
        bags: set[frozenset] = set()
        self.records: list[tuple[str, str]] = []  # (query, desk task id)
        while len(self.records) < records_n:
            tokens = rng.sample(record_vocab, self.QUERY_TOKENS)
            if frozenset(tokens) in bags:
                continue
            bags.add(frozenset(tokens))
            self.records.append((" ".join(tokens), self.task_ids[len(self.records) % len(self.task_ids)]))

        by_task: dict[str, list[str]] = {}
        for query, task_id in self.records:
            by_task.setdefault(task_id, []).append(query)
        unused = {task_id: rng.sample(queries, len(queries)) for task_id, queries in by_task.items()}

        def cycle():
            order = list(self.task_ids)
            rng.shuffle(order)
            return [order[i % len(order)] for i in range(per_kind)]

        ops, sources = [], []
        for task_id in cycle():
            query = unused[task_id].pop()
            ops.append(MemoryOp(KIND_EXACT, task_id, query))
            sources.append(query)
        for task_id in cycle():
            source = unused[task_id].pop()
            tokens = source.split()
            while " ".join(tokens) == source:
                rng.shuffle(tokens)
            ops.append(MemoryOp(KIND_SIMILAR, task_id, " ".join(tokens)))
            sources.append(source)
        for task_id in cycle():
            query = " ".join(rng.sample(novel_vocab, self.QUERY_TOKENS))
            ops.append(MemoryOp(KIND_NOVEL, task_id, query))
            sources.append(None)
        self._verify(backend, ops, sources)
        order = list(range(len(ops)))
        rng.shuffle(order)
        self.round = [ops[i] for i in order]
        self.references = _reference_runs(pack)

    def _verify(self, backend, ops, sources) -> None:
        """Check that every op routes through memory the way its kind says.

        An exact repeat is a stored key. A paraphrase is no stored key and
        scores >= tau_mem against its source record. A novel query is no
        stored key and scores < tau_mem against every record and every other
        novel query, since novel queries are committed as the round runs.
        """
        queries = [query for query, _ in self.records]
        keys = {task_memory.normalize_text(query): i for i, query in enumerate(queries)}
        records = _matrix(backend, queries)
        vectors = _matrix(backend, [op.instruction for op in ops])
        novel = vectors[[op.kind == KIND_NOVEL for op in ops]]
        for op, source, vector in zip(ops, sources, vectors):
            stored = task_memory.normalize_text(op.instruction) in keys
            if op.kind == KIND_EXACT:
                ok = stored
            elif op.kind == KIND_SIMILAR:
                ok = not stored and float(records[keys[source]] @ vector) >= self.tau_mem
            else:
                scores = np.concatenate([records @ vector, novel @ vector])
                # the query itself is among the novel rows and scores 1.0
                ok = not stored and np.sort(scores)[-2] < self.tau_mem
            if not ok:
                raise RuntimeError(
                    f"generated {op.kind} query {op.instruction!r} does not route as intended"
                )

    def setup(self):
        pack = bench.load_pack(DESK_PACK)
        backend = HashedTokenEmbedder()
        clock = iter(range(1, 10**9))
        memory = task_memory.MemoryStore(
            backend, threshold=pack.agent_config.tau_mem, clock=lambda: float(next(clock))
        )
        for query, task_id in self.records:
            memory.commit(query, self.references[task_id].trace)
        return pack, backend, memory

    def ops(self, state):
        return self.round

    def run_op(self, state, op: MemoryOp):
        pack, backend, memory = state
        task = pack.task(op.task_id)
        scenario = pack.scenarios[task.scenario_ref]
        index = app_index.AppIndex.build(
            scenario.installed_apps, backend, threshold=pack.agent_config.tau_local
        )
        return agent.run_task(
            instruction=op.instruction,
            scenario=scenario,
            index=index,
            memory=memory,
            search_backend=_fixtures(scenario),
            planner=RenderingPlanner(task.script),
            reflector=planning.EffectReflector(),
            config=pack.agent_config,
            task_id=task.task_id,
        )

    def check(self, state, op: MemoryOp, run) -> OpResult:
        picks = () if op.kind == KIND_EXACT else self.references[op.task_id].app_selections
        return _tally([run], _run_error(run, picks, op.kind))

    def check_round(self, state, ops, outputs) -> dict[int, str]:
        pack = state[0]
        return _success_check(ops, outputs, {task.task_id: task.ground_truth for task in pack.tasks})


def _fixtures(scenario):
    return FixtureSearchBackend(scenario.search_fixtures)


def _reference_runs(pack) -> dict:
    """Each desk task run alone with the stock ``ScriptedPlanner`` and empty memory."""
    config = pack.agent_config
    backend = HashedTokenEmbedder()
    references = {}
    for task in pack.tasks:
        scenario = pack.scenarios[task.scenario_ref]
        references[task.task_id] = agent.run_task(
            instruction=task.instruction,
            scenario=scenario,
            index=app_index.AppIndex.build(scenario.installed_apps, backend, threshold=config.tau_local),
            memory=task_memory.MemoryStore(backend, threshold=config.tau_mem),
            search_backend=_fixtures(scenario),
            planner=planning.ScriptedPlanner(task.script),
            reflector=planning.EffectReflector(),
            config=config,
            task_id=task.task_id,
        )
    return references


WORKLOADS = {cls.name: cls for cls in (DeskRepeat, StoreFallback, MemoryLarge)}
