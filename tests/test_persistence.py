"""Index and memory files: stable bytes, typed loads, atomic saves, threshold overrides."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pocketrag
from pocketrag.app_index import AppIndex, AppSeed
from pocketrag import embedding
from pocketrag.bench import BenchmarkTask, run_benchmark
from pocketrag.embedding import HashedTokenEmbedder, embed_row
from pocketrag.errors import PocketRagError
from pocketrag.simulator import Scenario
from pocketrag.task_memory import MemoryStore

from conftest import PACK_DIR, json_values, mini_scenario_dict
from test_app_index import VOCAB
from test_cli import nested_paths, replaced
from test_task_memory import make_trace

# sha256 of the files written by the per-record implementation that stored
# one vector array per record; the row store must reproduce them byte for byte
MEMORY_SHA256 = "8a3cdecb226e1404ce4b34ed84a7da367a1d5d2c66d31eef599c3fef6b02aa45"
INDEX_SHA256 = "187e6b666f74b4e2919b3880cf8ba57c8dd130a127e39149caae994f67653ddb"


def evicting_memory() -> MemoryStore:
    """Ten commits into a capacity-7 store, plus one re-commit."""
    counter = itertools.count(1)
    store = MemoryStore(HashedTokenEmbedder(), capacity=7, clock=lambda: float(next(counter)))
    words = "alpha bravo charlie delta echo foxtrot golf hotel india juliet".split()
    for i, word in enumerate(words):
        store.commit(f"Remember task {word} number {i}.", make_trace())
    store.commit("remember task juliet number 9", make_trace())
    return store


def registered_index() -> AppIndex:
    """Twelve apps built in reverse package order, then one registered."""
    rng = random.Random(5)
    seeds = [
        AppSeed(f"App{i}", f"com.app{i:04d}", " ".join(rng.choices(VOCAB, k=rng.randint(3, 8))))
        for i in range(12)
    ]
    index = AppIndex.build(seeds[::-1], HashedTokenEmbedder(), threshold=0.4)
    index.register(AppSeed("Tuner", "com.tuner", "guitar tuner chromatic pitch"))
    return index


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_memory_file_bytes_are_unchanged(tmp_path):
    store = evicting_memory()
    assert len(store) == 7
    store.save(tmp_path / "memory.json")
    assert sha256(tmp_path / "memory.json") == MEMORY_SHA256


def test_index_file_bytes_are_unchanged(tmp_path):
    registered_index().save(tmp_path / "index.json")
    assert sha256(tmp_path / "index.json") == INDEX_SHA256


def test_memory_round_trip_keeps_bytes_and_routes(tmp_path):
    store = evicting_memory()
    store.save(tmp_path / "a.json")
    loaded = MemoryStore.load(tmp_path / "a.json")
    loaded.save(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    for query in ("remember task golf number", "task hotel 7", "unrelated words entirely"):
        left, right = store.lookup(query), loaded.lookup(query)
        assert (left.kind, left.score) == (right.kind, right.score)
        assert (left.record and left.record.normalized_query) == (
            right.record and right.record.normalized_query
        )


def test_sealed_rows_save_each_vector_as_embedded(tmp_path):
    """Stores that fill and seal their stage write the same floats.

    The memory's capacity evicts its two oldest records from the sealed
    rows, so two of their slots are left unused.
    """
    backend = HashedTokenEmbedder()
    count = embedding._BLOCK_ROWS + 3
    texts = [f"remember task {i} {VOCAB[i % len(VOCAB)]}" for i in range(count)]
    counter = itertools.count(1)
    memory = MemoryStore(backend, capacity=count - 2, clock=lambda: float(next(counter)))
    for text in texts:
        memory.commit(text, make_trace())
    seeds = [AppSeed(f"App{i}", f"com.app{i:04d}", text) for i, text in enumerate(texts)]
    index = AppIndex.build(seeds, backend, threshold=0.4)
    assert len(memory) == count - 2
    for store, field, text in ((memory, "records", "query"), (index, "apps", "description")):
        store.save(tmp_path / "a.json")
        entries = json.loads((tmp_path / "a.json").read_text())[field]
        assert len(entries) == len(store)
        for entry in entries:
            assert entry["embedding"] == embed_row(backend, entry[text]).tolist()
        type(store).load(tmp_path / "a.json").save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_negative_zero_coordinates_save_back_byte_for_byte(tmp_path):
    """Files whose vectors hold -0.0 load and save back to the same bytes.

    Each vector gets -0.0 at two of its zero coordinates, so it still loads
    as pairs, and there are enough vectors to seal a stage of them.
    """
    backend = HashedTokenEmbedder()
    count = embedding._BLOCK_ROWS + 3
    texts = [f"remember task {i} {VOCAB[i % len(VOCAB)]}" for i in range(count)]
    counter = itertools.count(1)
    memory = MemoryStore(backend, clock=lambda: float(next(counter)))
    for text in texts:
        memory.commit(text, make_trace())
    seeds = [AppSeed(f"App{i}", f"com.app{i:04d}", text) for i, text in enumerate(texts)]
    index = AppIndex.build(seeds, backend, threshold=0.4)
    for store, field in ((memory, "records"), (index, "apps")):
        store.save(tmp_path / "a.json")
        data = json.loads((tmp_path / "a.json").read_text())
        for i, entry in enumerate(data[field]):
            zeros = [j for j, x in enumerate(entry["embedding"]) if x == 0.0]
            for j in (zeros[i % len(zeros)], zeros[-1 - i % len(zeros)]):
                entry["embedding"][j] = -0.0
        (tmp_path / "a.json").write_text(json.dumps(data, indent=2))
        assert "-0.0" in (tmp_path / "a.json").read_text()
        type(store).load(tmp_path / "a.json").save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.fixture(scope="module")
def saved_stores(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("stores")
    evicting_memory().save(root / "memory.json")
    registered_index().save(root / "index.json")
    return root


# each store file's loader and the key that lists its entries
STORE_FILES = {"memory": (MemoryStore, "records"), "index": (AppIndex, "apps")}


def json_type(value) -> type | str:
    return "number" if type(value) in (int, float) else type(value)


@pytest.mark.parametrize("kind", sorted(STORE_FILES))
@settings(max_examples=80)
@given(data=st.data(), value=json_values())
def test_a_field_of_another_type_loads_equal_or_raises(saved_stores, kind, data, value):
    """A saved file with one field, of the file or of an entry, replaced by a
    value of another JSON type loads to an equal store or raises a
    PocketRagError; it never loads to a silently different one."""
    loader, entries = STORE_FILES[kind]
    saved = json.loads((saved_stores / f"{kind}.json").read_text())
    fields = [(saved, key) for key in saved]
    fields += [(entry, key) for entry in saved[entries] for key in entry]
    owner, key = data.draw(st.sampled_from(fields))
    assume(json_type(value) != json_type(owner[key]))
    owner[key] = value
    path = saved_stores / f"changed-{kind}.json"
    path.write_text(json.dumps(saved))
    try:
        loaded = loader.load(path)
    except PocketRagError:
        return
    assert loaded.to_dict() == loader.load(saved_stores / f"{kind}.json").to_dict()


# the fields where a null is documented to leave the field unset (README,
# "Input files"), which is a value of the field's own type; a null action
# pattern target is refused wherever the kind acts on something
NULLABLE_FIELDS = {"next"}


@pytest.mark.parametrize("kind", ["scenario", "ground_truth"])
@settings(max_examples=80)
@given(data=st.data(), value=json_values())
def test_a_nested_field_of_another_type_loads_equal_or_raises(kind, data, value):
    """The mini scenario, or a desk task, with one field nested anywhere in the
    scenario or in the task's ground truth replaced by a value of another JSON
    type loads to an equal object or raises a PocketRagError; it never loads
    to a silently different one."""
    if kind == "scenario":
        valid, load, root = mini_scenario_dict(), Scenario.from_dict, ()
    else:
        path = data.draw(st.sampled_from(sorted((Path(PACK_DIR) / "tasks").glob("*.json"))))
        valid, load, root = json.loads(path.read_text()), BenchmarkTask.from_dict, ("ground_truth",)
    part = functools.reduce(operator.getitem, root, valid)
    field = root + data.draw(st.sampled_from(sorted(nested_paths(part), key=repr)))
    old = functools.reduce(operator.getitem, field, valid)
    assume(json_type(value) != json_type(old))
    assume(value is not None or field[-1] not in NULLABLE_FIELDS)
    try:
        loaded = load(replaced(valid, field, value))
    except PocketRagError:
        return
    assert loaded == load(valid)


def test_load_threshold_override(tmp_path):
    evicting_memory().save(tmp_path / "memory.json")
    registered_index().save(tmp_path / "index.json")
    assert MemoryStore.load(tmp_path / "memory.json").threshold == 0.8
    assert MemoryStore.load(tmp_path / "memory.json", threshold=0.6).threshold == 0.6
    assert AppIndex.load(tmp_path / "index.json").threshold == 0.4
    assert AppIndex.load(tmp_path / "index.json", threshold=0.7).threshold == 0.7


# a save that runs out of room part way: the file size limit makes the write
# fail with EFBIG once 4 KiB are written (SIGXFSZ is ignored so write raises)
SAVE_UNDER_SIZE_LIMIT = """
import resource, signal, sys
from pocketrag.app_index import AppIndex
from pocketrag.task_memory import MemoryStore

signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
kind, path = sys.argv[1], sys.argv[2]
store = (AppIndex if kind == "index" else MemoryStore).load(path)
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
try:
    store.save(path)
except OSError:
    sys.exit(3)
"""


def save_under_size_limit(kind: str, path: Path) -> int:
    src = str(Path(pocketrag.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", SAVE_UNDER_SIZE_LIMIT, kind, str(path)], env=env, timeout=60
    ).returncode


def test_failed_memory_save_leaves_old_file_intact(tmp_path):
    path = tmp_path / "memory.json"
    evicting_memory().save(path)
    before = path.read_bytes()
    assert len(before) > 4096
    assert save_under_size_limit("memory", path) == 3
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["memory.json"]


def test_failed_index_save_leaves_old_file_intact(tmp_path):
    path = tmp_path / "index.json"
    registered_index().save(path)
    before = path.read_bytes()
    assert len(before) > 4096
    assert save_under_size_limit("index", path) == 3
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["index.json"]


# a report write that runs out of room part way, as above: the desk report
# with memory off replaces the one written with memory on
WRITE_REPORT_UNDER_SIZE_LIMIT = """
import resource, signal, sys
from pocketrag.bench import run_benchmark, write_report

signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
report = run_benchmark(sys.argv[1], memory_enabled=False)
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
try:
    write_report(report, sys.argv[2])
except OSError:
    sys.exit(3)
"""


def test_failed_report_write_leaves_old_report_intact(tmp_path):
    run_benchmark(PACK_DIR, memory_enabled=True, out_dir=tmp_path)
    before = (tmp_path / "report.json").read_bytes()
    assert len(before) > 4096
    src = str(Path(pocketrag.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", WRITE_REPORT_UNDER_SIZE_LIMIT, str(Path(PACK_DIR).resolve()), str(tmp_path)]
    assert subprocess.run(argv, env=env, timeout=60).returncode == 3
    assert (tmp_path / "report.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "report.txt", "runs"]
