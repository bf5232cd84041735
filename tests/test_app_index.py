"""Local app index: construction, retrieval vs oracle, registration, corpus."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pocketrag.app_index import (
    AppIndex,
    AppSeed,
    KeywordQuerySource,
    NONE_SENTINEL,
    TrainingExample,
    generate_training_corpus,
    load_corpus,
    write_corpus,
)
from pocketrag.embedding import HashedTokenEmbedder, embed
from pocketrag.errors import (
    ConflictingRecordError,
    DuplicatePackageIdError,
    EmptyDescriptionError,
    EmptyQueryError,
    EmptyTextError,
    MalformedEntryError,
    QuerySourceFailureError,
)

VOCAB = [
    "music", "player", "stream", "weather", "alarm", "notes", "chat", "video",
    "maps", "ride", "food", "bank", "photo", "game", "mail", "browser",
    "fitness", "calendar", "radio", "podcast", "shop", "travel", "news", "cloud",
]


def random_catalog(rng: random.Random, size: int) -> list[AppSeed]:
    seeds = []
    for i in range(size):
        words = rng.choices(VOCAB, k=rng.randint(3, 8))
        seeds.append(
            AppSeed(
                app_name=f"App{i}",
                package_id=f"com.app{i:04d}",
                description=" ".join(words),
            )
        )
    return seeds


def oracle_top_k(index: AppIndex, query: str, k: int) -> list[tuple[str, float]]:
    """Independent full-sort oracle over plain-python dot products.

    Applies the same ranking contract as the index: scores rounded to 9
    decimals, ties broken by ascending package id.
    """
    backend = index.backend
    qvec = embed(backend, query).to_list()
    scored = []
    for record in index.records():
        score = sum(x * y for x, y in zip(record.embedding.to_list(), qvec))
        scored.append((record.package_id, score))
    scored.sort(key=lambda item: (-round(item[1], 9), item[0]))
    return scored[:k]


def test_build_embeds_every_record(backend):
    seeds = random_catalog(random.Random(0), 20)
    index = AppIndex.build(seeds, backend, threshold=0.4)
    assert len(index) == 20
    for seed in seeds:
        record = index.get(seed.package_id)
        assert record is not None
        assert record.embedding == embed(backend, seed.description)


def test_duplicate_package_rejected(backend):
    seed = AppSeed("A", "com.same", "some description words")
    with pytest.raises(DuplicatePackageIdError):
        AppIndex.build([seed, seed], backend, threshold=0.4)


class CountingEmbedder(HashedTokenEmbedder):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def encode(self, text):
        self.calls += 1
        return super().encode(text)


@pytest.mark.parametrize(
    "last, error, encoded",
    [
        # 'zudami vaperi dizopa nezege' hashes to the zero vector
        (AppSeed("Zero", "com.zero", "zudami vaperi dizopa nezege"), EmptyTextError, 21),
        (AppSeed("Dup", "com.app0000", "duplicate package id"), DuplicatePackageIdError, 0),
        (AppSeed("Blank", "", "blank package id"), MalformedEntryError, 0),
        (AppSeed("Mute", "com.mute", "   "), EmptyDescriptionError, 0),
    ],
    ids=["zero-vector", "duplicate-id", "empty-id", "empty-description"],
)
def test_build_with_a_bad_last_entry_returns_no_index(last, error, encoded):
    """Entries are all checked before any is embedded; a failure leaves no index."""
    backend = CountingEmbedder()
    with pytest.raises(error):
        AppIndex.build(random_catalog(random.Random(0), 20) + [last], backend, threshold=0.4)
    assert backend.calls == encoded


def test_empty_description_rejected(backend):
    with pytest.raises(EmptyDescriptionError):
        AppIndex.build([AppSeed("A", "com.a", "   ")], backend, threshold=0.4)


def test_threshold_must_be_in_unit_interval(backend):
    with pytest.raises(ValueError):
        AppIndex(backend, threshold=0.0)
    with pytest.raises(ValueError):
        AppIndex(backend, threshold=1.0)


def test_exact_description_scores_one(backend):
    description = "guided meditation breathing sleep sounds"
    index = AppIndex.build(
        [AppSeed("Calm", "com.calm", description)], backend, threshold=0.5
    )
    outcome = index.retrieve(description)
    assert outcome.found
    assert outcome.matches[0].package_id == "com.calm"
    assert outcome.matches[0].score == pytest.approx(1.0, abs=1e-6)


def test_empty_index_rejects(backend):
    index = AppIndex(backend, threshold=0.5)
    outcome = index.retrieve("anything")
    assert not outcome.found
    assert outcome.best_score is None


def test_below_threshold_reports_best_score(backend):
    index = AppIndex.build(
        [AppSeed("Maps", "com.maps", "maps navigation traffic")],
        backend,
        threshold=0.9,
    )
    outcome = index.retrieve("music streaming player")
    assert not outcome.found
    assert outcome.best_score is not None
    assert outcome.best_score < 0.9


def test_empty_query_rejected(backend):
    index = AppIndex.build(
        [AppSeed("A", "com.a", "words here")], backend, threshold=0.4
    )
    with pytest.raises(EmptyQueryError):
        index.retrieve("   ")


def test_retrieval_matches_oracle_seeded(backend):
    rng = random.Random(42)
    for _ in range(10):
        index = AppIndex.build(
            random_catalog(rng, rng.randint(5, 60)), backend, threshold=0.05
        )
        for _ in range(5):
            query = " ".join(rng.choices(VOCAB, k=rng.randint(1, 5)))
            outcome = index.retrieve(query, k=3)
            expected = oracle_top_k(index, query, 3)
            got = [(m.package_id, m.score) for m in outcome.matches]
            if not outcome.found:
                assert all(score < 0.05 for _, score in expected)
            else:
                assert [p for p, _ in got] == [p for p, _ in expected]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(VOCAB), min_size=2, max_size=6),
        min_size=1,
        max_size=25,
    ),
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4),
)
@example(descriptions=[["music", "music"]], query_words=["food", "browser"])
@example(descriptions=[["music", "music"], ["food", "browser"]], query_words=["music"])
def test_retrieval_oracle_property(descriptions, query_words):
    backend = HashedTokenEmbedder()
    seeds = [
        AppSeed(f"A{i}", f"com.p{i:03d}", " ".join(words))
        for i, words in enumerate(descriptions)
    ]
    query = " ".join(query_words)
    # some word pairs cancel ('food browser' hashes to the zero vector): a
    # description or a query that embeds to zero is rejected, not ranked
    if not all(backend.encode(s.description).any() for s in seeds):
        with pytest.raises(EmptyTextError):
            AppIndex.build(seeds, backend, threshold=0.05)
        return
    index = AppIndex.build(seeds, backend, threshold=0.05)
    if not backend.encode(query).any():
        with pytest.raises(EmptyTextError):
            index.retrieve(query, k=3)
        return
    outcome = index.retrieve(query, k=3)
    expected = oracle_top_k(index, query, 3)
    if outcome.found:
        assert [m.package_id for m in outcome.matches] == [p for p, _ in expected]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(VOCAB), min_size=2, max_size=6),
        min_size=1,
        max_size=25,
    ),
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4),
    st.floats(0.05, 0.95),
)
def test_best_score_is_the_top_match_score(descriptions, query_words, threshold):
    backend = HashedTokenEmbedder()
    seeds = [
        AppSeed(f"A{i}", f"com.p{i:03d}", " ".join(words))
        for i, words in enumerate(descriptions)
    ]
    query = " ".join(query_words)
    assume(all(backend.encode(text).any() for text in [query] + [s.description for s in seeds]))
    outcome = AppIndex.build(seeds, backend, threshold=threshold).retrieve(query, k=3)
    assert outcome.found == (outcome.best_score >= threshold)
    if outcome.found:
        assert outcome.best_score == outcome.matches[0].score


def test_rejection_monotone_in_threshold(backend):
    seeds = random_catalog(random.Random(7), 30)
    query = "music stream radio"
    low = AppIndex.build(seeds, backend, threshold=0.2)
    for tau in (0.3, 0.5, 0.7, 0.9):
        high = AppIndex.build(seeds, backend, threshold=tau)
        if not low.retrieve(query).found:
            assert not high.retrieve(query).found


def test_retrieval_is_deterministic(backend):
    seeds = random_catalog(random.Random(3), 40)
    a = AppIndex.build(seeds, backend, threshold=0.1)
    b = AppIndex.build(seeds, backend, threshold=0.1)
    for query in ("music player", "weather today", "bank transfer"):
        left = a.retrieve(query)
        right = b.retrieve(query)
        assert [(m.package_id, m.score) for m in left.matches] == [
            (m.package_id, m.score) for m in right.matches
        ]


def test_tie_break_is_lexicographic(backend):
    shared = "identical description tokens everywhere"
    index = AppIndex.build(
        [
            AppSeed("B", "com.bbb", shared),
            AppSeed("A", "com.aaa", shared),
            AppSeed("C", "com.ccc", shared),
        ],
        backend,
        threshold=0.5,
    )
    outcome = index.retrieve(shared, k=3)
    assert [m.package_id for m in outcome.matches] == ["com.aaa", "com.bbb", "com.ccc"]


def test_register_new_app_ranks_first(backend):
    index = AppIndex.build(
        [AppSeed("Maps", "com.maps", "maps navigation traffic routes")],
        backend,
        threshold=0.3,
    )
    description = "fresh hot pizza delivery tracker"
    index.register(AppSeed("Pizza", "com.pizza", description))
    outcome = index.retrieve(description)
    assert outcome.matches[0].package_id == "com.pizza"
    assert outcome.matches[0].score == pytest.approx(1.0, abs=1e-6)


def test_register_is_idempotent(backend):
    seed = AppSeed("A", "com.a", "some words in a row")
    index = AppIndex.build([seed], backend, threshold=0.3)
    index.register(seed)
    assert len(index) == 1


def test_register_conflicting_description_rejected(backend):
    index = AppIndex.build(
        [AppSeed("A", "com.a", "original description")], backend, threshold=0.3
    )
    with pytest.raises(ConflictingRecordError):
        index.register(AppSeed("A", "com.a", "totally different text"))


def test_register_changes_top1_when_closer(backend):
    index = AppIndex.build(
        [AppSeed("Maps", "com.maps", "maps navigation")], backend, threshold=0.05
    )
    query = "guitar tuner chromatic"
    before = index.retrieve(query)
    index.register(AppSeed("Tuner", "com.tuner", "guitar tuner chromatic pitch"))
    after = index.retrieve(query)
    assert after.matches[0].package_id == "com.tuner"
    # pre-existing record keeps its exact score
    maps_before = next(
        (m.score for m in before.matches if m.package_id == "com.maps"), None
    )
    maps_after = next(
        (m.score for m in after.matches if m.package_id == "com.maps"), None
    )
    if maps_before is not None and maps_after is not None:
        assert maps_before == maps_after


def test_save_load_round_trip(backend, tmp_path):
    rng = random.Random(11)
    index = AppIndex.build(random_catalog(rng, 50), backend, threshold=0.4)
    path = tmp_path / "index.json"
    index.save(path)
    loaded = AppIndex.load(path)
    assert len(loaded) == len(index)
    assert loaded.threshold == index.threshold
    for _ in range(100):
        query = " ".join(rng.choices(VOCAB, k=rng.randint(1, 5)))
        original = index.retrieve(query)
        reloaded = loaded.retrieve(query)
        assert [(m.package_id, m.score) for m in original.matches] == [
            (m.package_id, m.score) for m in reloaded.matches
        ]
        assert original.best_score == reloaded.best_score


# --- training corpus ---------------------------------------------------------


def catalog_for_corpus() -> list[AppSeed]:
    return random_catalog(random.Random(5), 10)


def test_corpus_counts_without_none_cases():
    examples = generate_training_corpus(
        catalog_for_corpus(), queries_per_app=2, none_fraction=0.0,
        query_source=KeywordQuerySource(),
    )
    assert len(examples) == 20
    assert sum(1 for e in examples if e.is_none_case) == 0


def test_corpus_none_fraction_ratio():
    examples = generate_training_corpus(
        catalog_for_corpus(), queries_per_app=2, none_fraction=0.2,
        query_source=KeywordQuerySource(),
    )
    none_cases = sum(1 for e in examples if e.is_none_case)
    assert none_cases == 5  # 20 positives; 20 / (1 - 0.2) - 20
    assert len(examples) == 25


def test_corpus_positive_never_among_negatives():
    examples = generate_training_corpus(
        catalog_for_corpus(), queries_per_app=3, none_fraction=0.3,
        query_source=KeywordQuerySource(),
    )
    for example in examples:
        assert example.positive not in example.negatives
        assert len(example.negatives) >= 1
        assert example.is_none_case == (example.positive == NONE_SENTINEL)


def test_corpus_is_seed_deterministic():
    a = generate_training_corpus(
        catalog_for_corpus(), 2, 0.2, KeywordQuerySource(), seed=9
    )
    b = generate_training_corpus(
        catalog_for_corpus(), 2, 0.2, KeywordQuerySource(), seed=9
    )
    assert a == b


def test_corpus_file_round_trip(tmp_path):
    examples = generate_training_corpus(
        catalog_for_corpus(), 2, 0.25, KeywordQuerySource()
    )
    path = tmp_path / "corpus.jsonl"
    write_corpus(examples, path)
    assert load_corpus(path) == examples


def test_query_source_failure_is_wrapped():
    class Exploding:
        def queries_for_app(self, seed, count):
            raise RuntimeError("model down")

        def none_queries(self, count):
            return []

    with pytest.raises(QuerySourceFailureError):
        generate_training_corpus(catalog_for_corpus(), 1, 0.0, Exploding())


def test_training_example_invariants():
    with pytest.raises(ValueError):
        TrainingExample(query="q", positive="com.a", negatives=("com.a",))
    with pytest.raises(ValueError):
        TrainingExample(query="q", positive=NONE_SENTINEL, negatives=(), is_none_case=False)
