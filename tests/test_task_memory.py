"""Memory store routing, commit semantics, eviction, persistence, replay."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocketrag.embedding import HashedTokenEmbedder, cosine_similarity, embed, normalize_text
from pocketrag.errors import EmptyQueryError, EmptyTraceError, TraceWithoutStopError
from pocketrag.simulator import Action, ActionTrace, Device, Scenario
from pocketrag.task_memory import MemoryStore, replay

from conftest import mini_scenario_dict

# unique-token sentences tuned so the pairwise cosine lands just above /
# below the 0.8 routing threshold (verified by the assertions below)
BASE_SIMILAR = (
    "open travel planner book morning train ticket central station airport "
    "tomorrow early seat window reserve platform nine depart city express"
)
NEAR_SIMILAR = (
    "open travel planner book evening bus ticket central station airport "
    "tomorrow early seat window reserve platform six depart city express"
)
BASE_DISTANT = (
    "check family shopping list add fresh milk brown eggs rye bread sweet "
    "apples dark roast coffee beans before noon today store corner discount card"
)
NEAR_DISTANT = (
    "check family shopping list add green tea white rice red bread sweet "
    "apples dark roast coffee beans before noon today store corner discount card"
)


def make_trace(device_scenario=None) -> ActionTrace:
    device = Device(Scenario.from_dict(device_scenario or mini_scenario_dict()))
    device.execute(Action.launch("com.clock"))
    device.execute(Action.tap("alarms_tab"))
    device.execute(Action.type_text("time_field", "08:00"))
    device.execute(Action.tap("save_alarm"))
    device.execute(Action.stop(True))
    return ActionTrace(steps=tuple(device.history))


@pytest.fixture()
def store(backend):
    counter = itertools.count(1)
    return MemoryStore(backend, clock=lambda: float(next(counter)))


def test_normalize_examples():
    assert normalize_text("Set an alarm for 8 am.") == "set an alarm for 8 am"
    assert normalize_text("  SET  AN  ALARM for 8 AM ") == "set an alarm for 8 am"


def test_commit_then_exact_lookup(store):
    trace = make_trace()
    store.commit("Set an alarm for 8 am.", trace)
    match = store.lookup("set an alarm for 8 am.")
    assert match.is_exact
    assert match.record.trace == trace


def test_lookup_empty_store_is_none(store):
    assert store.lookup("anything at all").is_none


def test_lookup_empty_query_rejected(store):
    with pytest.raises(EmptyQueryError):
        store.lookup("  ")


def test_similar_above_threshold(store, backend):
    sim = cosine_similarity(embed(backend, BASE_SIMILAR), embed(backend, NEAR_SIMILAR))
    assert 0.8 <= sim <= 0.87  # construction check: inside the similar band
    store.commit(BASE_SIMILAR, make_trace())
    match = store.lookup(NEAR_SIMILAR)
    assert match.is_similar
    assert match.score == pytest.approx(sim, abs=1e-9)


def test_none_below_threshold(store, backend):
    sim = cosine_similarity(embed(backend, BASE_DISTANT), embed(backend, NEAR_DISTANT))
    assert 0.77 <= sim < 0.8  # construction check: just below the threshold
    store.commit(BASE_DISTANT, make_trace())
    assert store.lookup(NEAR_DISTANT).is_none


def test_exact_wins_over_similar(store):
    store.commit(BASE_SIMILAR, make_trace())
    match = store.lookup(BASE_SIMILAR.upper())
    assert match.is_exact


def test_commit_replaces_and_counts(store):
    trace = make_trace()
    store.commit("Do the thing.", trace)
    store.commit("do the thing", trace)
    assert len(store) == 1
    record = store.records()[0]
    assert record.success_count == 2


def test_commit_rejects_empty_trace(store):
    with pytest.raises(EmptyTraceError):
        store.commit("query", ActionTrace(steps=()))


def test_commit_rejects_trace_without_stop(store):
    trace = make_trace()
    headless = ActionTrace(steps=trace.steps[:-1])
    with pytest.raises(TraceWithoutStopError):
        store.commit("query", headless)


def test_capacity_evicts_oldest(backend):
    counter = itertools.count(1)
    store = MemoryStore(backend, capacity=2, clock=lambda: float(next(counter)))
    trace = make_trace()
    store.commit("first task entirely", trace)
    store.commit("second task entirely", trace)
    store.commit("third task entirely", trace)
    assert len(store) == 2
    keys = {record.normalized_query for record in store.records()}
    assert "first task entirely" not in keys


def test_threshold_monotonicity(backend):
    trace = make_trace()
    low = MemoryStore(backend, threshold=0.75)
    high = MemoryStore(backend, threshold=0.9)
    low.commit(BASE_SIMILAR, trace)
    high.commit(BASE_SIMILAR, trace)
    if low.lookup(NEAR_SIMILAR).is_none:
        assert high.lookup(NEAR_SIMILAR).is_none


@settings(max_examples=50)
@given(
    st.lists(
        st.lists(st.sampled_from("redwood maple spruce cedar willow oak".split()),
                 min_size=2, max_size=6),
        min_size=1, max_size=6,
    ),
    st.lists(st.sampled_from("redwood maple spruce cedar willow oak".split()),
             min_size=1, max_size=6),
)
def test_routing_trichotomy(stored_queries, probe_words):
    backend = HashedTokenEmbedder()
    store = MemoryStore(backend)
    trace = make_trace()
    for words in stored_queries:
        store.commit(" ".join(words), trace)
    probe = " ".join(probe_words)
    match = store.lookup(probe)
    states = [match.is_exact, match.is_similar, match.is_none]
    assert sum(states) == 1
    if normalize_text(probe) in {r.normalized_query for r in store.records()}:
        assert match.is_exact


def test_save_load_round_trip(store, backend, tmp_path):
    store.commit("Set an alarm for 8 am.", make_trace())
    store.commit(BASE_SIMILAR, make_trace())
    path = tmp_path / "memory.json"
    store.save(path)
    loaded = MemoryStore.load(path)
    assert len(loaded) == 2
    match = loaded.lookup("set an alarm for 8 am.")
    assert match.is_exact
    assert match.record.trace == store.lookup("set an alarm for 8 am.").record.trace
    similar = loaded.lookup(NEAR_SIMILAR)
    assert similar.is_similar


# --- replay -------------------------------------------------------------------


def test_replay_completes_on_unchanged_scenario(store):
    trace = make_trace()
    record = store.commit("Set an alarm for 8 am.", trace)
    device = Device(Scenario.from_dict(mini_scenario_dict()))
    outcome = replay(record, device)
    assert outcome.completed
    assert outcome.actions_executed == len(trace)
    assert device.observe().state_flags["alarm_set"] == "08:00"


def test_replay_final_state_matches_original(store):
    scenario_data = mini_scenario_dict()
    original = Device(Scenario.from_dict(scenario_data))
    for action in [
        Action.launch("com.clock"),
        Action.tap("alarms_tab"),
        Action.type_text("time_field", "08:00"),
        Action.tap("save_alarm"),
        Action.stop(True),
    ]:
        original.execute(action)
    record = store.commit("alarm task", ActionTrace(steps=tuple(original.history)))

    fresh = Device(Scenario.from_dict(scenario_data))
    outcome = replay(record, fresh)
    assert outcome.completed
    assert fresh.observe() == original.observe()
    assert fresh.history == original.history


def test_replay_aborts_when_element_vanishes(store):
    record = store.commit("Set an alarm for 8 am.", make_trace())
    altered = mini_scenario_dict()
    # remove save_alarm: step index 3 (0-based) loses its target
    screen = altered["app_graphs"]["com.clock"]["screens"]["alarm_list"]
    screen["elements"] = [e for e in screen["elements"] if e["element_id"] != "save_alarm"]
    del screen["transitions"]["tap:save_alarm"]
    device = Device(Scenario.from_dict(altered))
    outcome = replay(record, device)
    assert not outcome.completed
    assert outcome.abort_index == 3
    assert outcome.reason == "missing_target"
    assert outcome.actions_executed == 3


def test_replay_aborts_on_uninstalled_launch(store):
    record = store.commit("Set an alarm for 8 am.", make_trace())
    altered = mini_scenario_dict()
    altered["installed_apps"] = [
        seed for seed in altered["installed_apps"] if seed["package_id"] != "com.clock"
    ]
    device = Device(Scenario.from_dict(altered))
    outcome = replay(record, device)
    assert not outcome.completed
    assert outcome.abort_index == 0
    assert outcome.reason == "AppNotInstalledError"


# --- lookup against the per-record oracle ---------------------------------------

TREES = "redwood maple spruce cedar willow oak".split()


def oracle_lookup(store: MemoryStore, backend, query: str):
    """The original per-record loop: sorted keys, rounded comparison, 1-D dots."""
    records = {r.normalized_query: r for r in store.records()}
    key = normalize_text(query)
    if key in records:
        return ("exact", key, None)
    if not records:
        return ("none", None, None)
    qvec = embed(backend, query)
    best_key, best_score = None, -2.0
    for cand_key in sorted(records):
        score = float(qvec.values @ embed(backend, records[cand_key].query_text).values)
        if round(score, 9) > round(best_score, 9):
            best_key, best_score = cand_key, score
    if best_score >= store.threshold:
        return ("similar", best_key, min(1.0, best_score))
    return ("none", None, None)


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["commit", "lookup"]),
            st.lists(st.sampled_from(TREES), min_size=1, max_size=5),
        ),
        min_size=1,
        max_size=40,
    ),
    st.one_of(st.none(), st.integers(1, 12)),
    st.sampled_from([0.3, 0.5, 0.8]),
)
def test_lookup_equals_per_record_oracle(operations, capacity, threshold):
    backend = HashedTokenEmbedder()
    counter = itertools.count(1)
    store = MemoryStore(
        backend, threshold=threshold, capacity=capacity, clock=lambda: float(next(counter))
    )
    trace = make_trace()
    for op, words in operations:
        query = " ".join(words)
        if op == "commit":
            store.commit(query, trace)
            continue
        match = store.lookup(query)
        key = match.record.normalized_query if match.record is not None else None
        assert (match.kind, key, match.score) == oracle_lookup(store, backend, query)
