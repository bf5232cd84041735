"""The shared exact search kernel: the ``VectorRows`` store and its ranking."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pocketrag import embedding
from pocketrag.embedding import EmbeddingVector, HashedTokenEmbedder, VectorRows, embed_row
from pocketrag.errors import EmptyTextError
from pocketrag.task_memory import MemoryStore

from test_task_memory import make_trace

# offsets that force exact ties, ties after rounding to 9 decimals, and
# scores just outside the partition's 1e-8 candidate margin
JITTER = [0.0, 0.0, 1e-12, -1e-12, 4e-10, -4e-10, 1e-9, -1e-9, 6e-10, 1e-8, -1e-8, 2e-8]
# scores that sit on or next to a 9th-decimal rounding boundary
BASES = [0.5, 1.0, -1.0, 0.0, 0.1234567895, 0.1234567885, 0.3333333335]


def full_sort(scores, keys, k):
    """The ranking contract, spelled out: sort everything, take ``k``."""
    return sorted(range(len(scores)), key=lambda i: (-round(float(scores[i]), 9), keys[i]))[:k]


@st.composite
def scored_keys(draw):
    n = draw(st.integers(0, 80))
    bases = draw(
        st.lists(
            st.one_of(st.sampled_from(BASES), st.floats(-1.0, 1.0)),
            min_size=1,
            max_size=6,
        )
    )
    scores = np.array(
        [draw(st.sampled_from(bases)) + draw(st.sampled_from(JITTER)) for _ in range(n)],
        dtype=np.float64,
    )
    keys = draw(st.permutations([f"key{i:03d}" for i in range(n)]))
    k = draw(st.one_of(st.integers(1, 5), st.integers(1, 2 * n + 2)))
    return scores, keys, k


def top_k(scores, keys, k, floor=None):
    """The keys ``search`` ranks first when each row, ``[s]`` under its key,
    scores exactly s: its dot with the query ``[1.0]``."""
    rows = VectorRows(1)
    for key, score in zip(keys, scores):
        rows.add(key, np.array([score]))
    return [key for key, _ in rows.search(np.array([1.0]), k, floor)]


@settings(max_examples=200)
@given(scored_keys())
def test_top_k_equals_full_sort(case):
    scores, keys, k = case
    expected = [keys[i] for i in full_sort(scores, keys, k)]
    assert top_k(scores, keys, k) == expected
    assert top_k(scores, keys, k, floor=-2.0) == expected
    # every score is below a floor of 2: above 4k scores only the best is ranked
    assert top_k(scores, keys, k, floor=2.0) == (expected[:1] if len(scores) > 4 * k else expected)


def test_top_k_breaks_exact_ties_by_key():
    scores = np.array([0.7, 0.9, 0.9, 0.1, 0.9, 0.2, 0.3, 0.4, 0.5, 0.6])
    keys = ["j", "c", "a", "d", "b", "e", "f", "g", "h", "i"]
    assert top_k(scores, keys, 2) == ["a", "b"]


def test_top_k_ranks_near_ties_as_ties():
    # equal after rounding to 9 decimals, so the smaller key wins
    scores = np.array([0.5 + 4e-10, 0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    keys = ["z", "y", "a", "b", "c", "d", "e", "f", "g", "h"]
    assert top_k(scores, keys, 1) == ["y"]
    assert top_k(scores, keys, 2) == ["y", "z"]


def test_top_k_with_k_above_n_returns_all():
    scores = np.array([0.2, 0.8, 0.5])
    assert top_k(scores, ["a", "b", "c"], 10) == ["b", "c", "a"]
    assert top_k(np.array([]), [], 3) == []


# enough rows to fill two blocks and open a third
BLOCK = embedding._BLOCK_ROWS
N = 2 * BLOCK + 1


def rows_and_mirror(count=N, dimension=4, seed=0):
    """A store of ``count`` random vectors, and a dict holding the same."""
    rng = np.random.default_rng(seed)
    rows = VectorRows(dimension)
    mirror = {}
    for i in range(count):
        key = f"key{i:05d}"
        mirror[key] = rng.standard_normal(dimension)
        rows.add(key, mirror[key])
    return rows, mirror


def oracle_search(mirror, query, k):
    """``search`` spelled out: score each key alone, fully sort, take ``k``."""
    keys = list(mirror)
    scores = np.array([float(query @ mirror[key]) for key in keys])
    return [(keys[i], float(scores[i])) for i in full_sort(scores, keys, k)]


def assert_store_matches(rows, mirror):
    assert len(rows) == len(mirror)
    for key, vector in mirror.items():
        assert np.array_equal(rows.vector(key), vector)


def test_rows_span_blocks_and_search_every_key():
    rows, mirror = rows_and_mirror()
    assert_store_matches(rows, mirror)
    query = np.arange(4, dtype=np.float64)
    assert rows.search(query, N) == oracle_search(mirror, query, N)
    assert rows.search(query, 3) == oracle_search(mirror, query, 3)


def test_rows_growth_never_moves_stored_rows():
    # growth past the first sealed rows, with pair rows and dense rows, never
    # changes a stored vector, nor one of a copy taken before it
    rows, mirror = rows_and_mirror(BLOCK)
    copied, expected = rows.copy(), dict(mirror)
    rng = np.random.default_rng(1)
    for i in range(BLOCK + 1):
        mirror[f"extra{i:03d}"] = np.eye(4)[i % 4] if i % 2 else rng.standard_normal(4)
        rows.add(f"extra{i:03d}", mirror[f"extra{i:03d}"])
    assert_store_matches(rows, mirror)
    assert_store_matches(copied, expected)
    query = np.arange(4, dtype=np.float64)
    assert rows.search(query, 5) == oracle_search(mirror, query, 5)
    assert copied.search(query, 5) == oracle_search(expected, query, 5)


def test_vector_view_lasts_until_the_next_add_or_remove():
    # the add that fills the stage seals its rows into new arrays, so a view
    # taken before that add keeps the staged copy and misses later writes
    rows, mirror = rows_and_mirror(BLOCK - 1)
    stale = rows.vector("key00000")
    rows.add("fill", np.ones(4))  # fills the first block
    assert not np.shares_memory(stale, rows.vector("key00000"))
    rows.remove("key00000")  # leaves "fill" in its own slot
    assert np.array_equal(rows.vector("fill"), np.ones(4))
    assert np.array_equal(stale, mirror["key00000"])


@pytest.mark.parametrize(
    "remove", [[0], [N - 1], [BLOCK, BLOCK, 0], [N - 1, N - 2, BLOCK - 1]]
)
def test_removes_keep_every_other_key_and_an_earlier_copy(remove):
    # ``remove`` names keys by their place in a list that moves its last key
    # into each gap, so the removes reach the first and last rows and the
    # rows either side of the first stage's end; every key left keeps its
    # vector, search matches the oracle, and a copy taken before the
    # removes keeps every key
    rows, mirror = rows_and_mirror()
    copied, expected = rows.copy(), dict(mirror)
    order = list(mirror)  # the key of each row
    query = np.ones(4)
    for row in remove:
        key = order[row]
        order[row] = order[-1]
        order.pop()
        del mirror[key]
        rows.remove(key)
        assert_store_matches(rows, mirror)
        assert rows.search(query, 5) == oracle_search(mirror, query, 5)
    assert_store_matches(copied, expected)
    assert copied.search(query, 5) == oracle_search(expected, query, 5)


def test_drained_rows_accept_rows_again():
    rows, mirror = rows_and_mirror()
    for key in list(mirror):
        del mirror[key]
        rows.remove(key)
        if len(mirror) % 500 == 0:
            assert_store_matches(rows, mirror)
    assert len(rows) == 0
    assert rows.search(np.ones(4), 3) == []
    rows.add("key00000", np.zeros(4))
    assert rows.search(np.ones(4), 3) == [("key00000", 0.0)]


def test_rows_reject_a_stored_key():
    rows, _ = rows_and_mirror(2)
    with pytest.raises(KeyError):
        rows.add("key00001", np.ones(4))
    with pytest.raises(KeyError):
        rows.remove("missing")


# unit vectors at these angles: equal angles give exactly tied scores, and
# angles 1e-9 apart give scores about 5e-10 to 1e-9 apart, on either side
# of a 9th-decimal rounding step
ANGLES = [0.0, 0.5, 0.5 + 1e-9, 0.5 + 2e-9, 0.5 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 3.0]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 40), st.sampled_from(ANGLES)),
        st.tuples(st.just("remove"), st.integers(0, 40)),
        st.tuples(st.just("search"), st.sampled_from(ANGLES), st.integers(1, 8)),
        st.tuples(st.just("copy")),
    ),
    max_size=60,
)


def unit(angle):
    return np.array([np.cos(angle), np.sin(angle)])


@settings(max_examples=200)
@given(operations)
@example([("add", i, 0.5) for i in range(5)] + [("copy",), ("remove", 0)])
def test_store_behaves_as_a_dict_with_a_full_sort(ops):
    # blocks of 4 rows, so short sequences cross block boundaries both ways;
    # after a copy the ops go on on the copy, and the store it copied must
    # not change, though the two share their full blocks
    original = embedding._BLOCK_ROWS
    embedding._BLOCK_ROWS = 4
    try:
        rows = VectorRows(2)
        mirror = {}
        copied = []
        for op in ops:
            if op[0] == "copy":
                copied.append((rows, {key: vector.copy() for key, vector in mirror.items()}))
                rows = rows.copy()
            elif op[0] == "add":
                key = f"k{op[1]:02d}"
                if key in mirror:
                    continue
                mirror[key] = unit(op[2])
                rows.add(key, mirror[key])
            elif op[0] == "remove":
                key = f"k{op[1]:02d}"
                if key not in mirror:
                    continue
                del mirror[key]
                rows.remove(key)
            else:
                query = unit(op[1])
                assert rows.search(query, op[2]) == oracle_search(mirror, query, op[2])
            assert_store_matches(rows, mirror)
        for store, contents in copied:
            assert_store_matches(store, contents)
    finally:
        embedding._BLOCK_ROWS = original


# the reference embedder's rows: 1-6 tokens of a 10-word vocabulary at
# d = 384, so rows share coordinates, repeat and tie, and hold 1-6 non-zeros
HASHED = HashedTokenEmbedder(384)
WORDS = "alpha bravo charlie delta echo foxtrot golf hotel india juliet".split()
texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join)


@functools.lru_cache(maxsize=None)
def hashed_row(text):
    """The unit row of ``text``, or None when its tokens' signed hashes cancel."""
    try:
        return embed_row(HASHED, text)
    except EmptyTextError:
        return None


hashed_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 30), texts),
        st.tuples(st.just("remove"), st.integers(0, 30)),
        st.tuples(st.just("search"), texts, st.integers(1, 6)),
        st.tuples(st.just("copy")),
    ),
    max_size=80,
)


@settings(max_examples=150)
@given(hashed_operations)
def test_hashed_rows_behave_as_a_dict_with_a_full_sort(ops):
    # stages of 4 rows: within a few adds rows are sealed into pairs, then
    # into the postings, and removes rebuild the store; after a copy the ops
    # go on on the copy, and the store it copied must not change
    original = embedding._BLOCK_ROWS
    embedding._BLOCK_ROWS = 4
    try:
        rows = VectorRows(384)
        mirror = {}
        copied = []
        for op in ops:
            if op[0] == "copy":
                copied.append((rows, dict(mirror)))
                rows = rows.copy()
            elif op[0] == "add":
                key = f"k{op[1]:02d}"
                if key in mirror or hashed_row(op[2]) is None:
                    continue
                mirror[key] = hashed_row(op[2])
                rows.add(key, mirror[key])
            elif op[0] == "remove":
                key = f"k{op[1]:02d}"
                if key not in mirror:
                    continue
                del mirror[key]
                rows.remove(key)
            elif hashed_row(op[1]) is not None:
                query = hashed_row(op[1])
                assert rows.search(query, op[2]) == oracle_search(mirror, query, op[2])
            assert_store_matches(rows, mirror)
        for store, contents in copied:
            assert_store_matches(store, contents)
            for text in ("alpha", "bravo charlie", "delta echo foxtrot golf"):
                assert store.search(hashed_row(text), 3) == oracle_search(contents, hashed_row(text), 3)
    finally:
        embedding._BLOCK_ROWS = original


# coordinates of rows that are pairs, dense, all zero or all -0.0
SIGNED = st.sampled_from([0.0, 0.0, 0.0, -0.0, -0.0, 0.5, -0.5, 1.0, 2.0**-30])


@settings(max_examples=100)
@given(st.lists(st.lists(SIGNED, min_size=8, max_size=8), max_size=20), st.integers(0, 20))
def test_vector_gives_back_every_bit(vectors, copy_at):
    original = embedding._BLOCK_ROWS
    embedding._BLOCK_ROWS = 4
    try:
        rows = VectorRows(8)
        for i, vector in enumerate(vectors):
            if i == copy_at:
                rows = rows.copy()
            rows.add(f"k{i:02d}", np.array(vector))
        for i, vector in enumerate(vectors):
            stored = rows.vector(f"k{i:02d}")
            assert stored.tobytes() == np.array(vector).tobytes()
            assert np.array_equal(np.signbit(stored), np.signbit(vector))
    finally:
        embedding._BLOCK_ROWS = original


# d = 64; rows and queries hold from one to all 64 non-zeros, so rows are
# sealed as pairs or as dense rows, and a query reads the postings of one
# coordinate to every one
D = 64


@st.composite
def unit_pairs(draw):
    """A unit vector of dimension ``D`` as (coordinate, value) pairs."""
    count = draw(st.one_of(st.integers(1, D // 8), st.integers(D // 8 + 1, D)))
    coordinates = draw(
        st.lists(st.integers(0, D - 1), min_size=count, max_size=count, unique=True)
    )
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from([1.0, -1.0, 2.0]), st.floats(0.01, 1.0), st.floats(-1.0, -0.01)
            ),
            min_size=count,
            max_size=count,
        )
    )
    raw = np.zeros(D)
    raw[coordinates] = values
    unit = EmbeddingVector.from_raw(raw).values
    return tuple((c, float(unit[c])) for c in coordinates)


def dense(pairs):
    vector = np.zeros(D)
    for coordinate, value in pairs:
        vector[coordinate] = value
    return vector


sparse_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 12), unit_pairs()),
        st.tuples(st.just("remove"), st.integers(0, 12)),
        st.tuples(st.just("search"), unit_pairs(), st.integers(1, 6)),
    ),
    max_size=60,
)

# The sparse scan scores BOUNDARY_ROW 0.8929615775000000 and the 1-D dot
# 0.8929615774999999 (with the OpenBLAS this was found on), either side of a
# 9th-decimal rounding boundary; NEXT_ROW scores 0.8929615778. Ranked by the
# scan, "k00" ties "k01" and wins on its key; the oracle ranks "k01" first.
BOUNDARY_QUERY = ((3, 0.22254591446362376), (27, -0.5622212575923126), (39, 0.796480114922443))
BOUNDARY_ROW = (
    (3, 0.447885669225491),
    (27, -0.6147450371849154),
    (39, 0.5620526054262084),
    (41, 0.3249366625120267),
)
NEXT_ROW = ((3, 0.4478856705735274),) + BOUNDARY_ROW[1:]


@settings(max_examples=200)
@given(sparse_operations)
@example(
    [
        ("add", 0, BOUNDARY_ROW),
        ("add", 1, NEXT_ROW),
        ("add", 2, ((63, 1.0),)),
        ("add", 3, ((62, 1.0),)),  # fills the stage, which seals
        ("search", BOUNDARY_QUERY, 1),
    ]
)
def test_search_ranks_by_the_rounded_1d_dot(ops):
    # stages of 4 rows, so adds and removes cross seals and rebuilds
    original = embedding._BLOCK_ROWS
    embedding._BLOCK_ROWS = 4
    try:
        rows = VectorRows(D)
        mirror = {}
        for op in ops:
            if op[0] == "add":
                key = f"k{op[1]:02d}"
                if key in mirror:
                    continue
                mirror[key] = dense(op[2])
                rows.add(key, mirror[key])
            elif op[0] == "remove":
                key = f"k{op[1]:02d}"
                if key not in mirror:
                    continue
                del mirror[key]
                rows.remove(key)
            else:
                query = dense(op[1])
                assert rows.search(query, op[2]) == oracle_search(mirror, query, op[2])
            assert_store_matches(rows, mirror)
    finally:
        embedding._BLOCK_ROWS = original


def test_search_rescores_only_near_a_rounding_boundary(monkeypatch):
    monkeypatch.setattr(embedding, "_BLOCK_ROWS", 4)
    dotted = []
    dot = VectorRows._dot

    def counted(self, query, row):
        dotted.append(row)
        return dot(self, query, row)

    monkeypatch.setattr(VectorRows, "_dot", counted)
    rows = VectorRows(D)
    for i, pairs in enumerate((BOUNDARY_ROW, NEXT_ROW, ((63, 1.0),), ((62, 1.0),))):
        rows.add(f"k{i:02d}", dense(pairs))
    assert [key for key, _ in rows.search(dense(BOUNDARY_QUERY), 1)] == ["k01"]
    assert dotted == [0, 1]  # the boundary row's re-score, then the reported hit
    dotted.clear()
    assert [key for key, _ in rows.search(dense(((63, 1.0),)), 1)] == ["k02"]
    assert dotted == [2]


def test_search_rescores_at_most_the_candidate_rows(monkeypatch, backend):
    # a 4-token query scores 1/√5, within ε of a 9th-decimal boundary, against
    # every 5-token row that shares 2 of its tokens: thousands of rows here
    store = MemoryStore(backend)
    trace = make_trace()
    for i in range(5000):
        store.commit(f"remember task {i} word{i % 97} other{i % 13}", trace)
    dotted = []
    dot = VectorRows._dot

    def counted(self, query, row):
        dotted.append(row)
        return dot(self, query, row)

    monkeypatch.setattr(VectorRows, "_dot", counted)
    match = store.lookup("remember task 17 word17")
    assert match.kind == "similar"
    assert match.record.normalized_query == "remember task 17 word17 other4"
    assert len(dotted) == 1  # the best row scores above every flagged one: only its report
    dotted.clear()
    assert store.lookup("remember task 4321 word55").kind == "none"
    assert len(dotted) == 1
