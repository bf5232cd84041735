"""The shared exact search kernel: ``top_k`` ranking and the ``VectorRows`` store."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pocketrag import embedding
from pocketrag.embedding import EmbeddingVector, VectorRows, top_k

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


@settings(max_examples=200, deadline=None)
@given(scored_keys())
def test_top_k_equals_full_sort(case):
    scores, keys, k = case
    assert top_k(scores, keys, k) == full_sort(scores, keys, k)


def test_top_k_breaks_exact_ties_by_key():
    scores = np.array([0.7, 0.9, 0.9, 0.1, 0.9, 0.2, 0.3, 0.4, 0.5, 0.6])
    keys = ["j", "c", "a", "d", "b", "e", "f", "g", "h", "i"]
    assert [keys[i] for i in top_k(scores, keys, 2)] == ["a", "b"]


def test_top_k_ranks_near_ties_as_ties():
    # equal after rounding to 9 decimals, so the smaller key wins
    scores = np.array([0.5 + 4e-10, 0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    keys = ["z", "y", "a", "b", "c", "d", "e", "f", "g", "h"]
    assert [keys[i] for i in top_k(scores, keys, 1)] == ["y"]
    assert [keys[i] for i in top_k(scores, keys, 2)] == ["y", "z"]


def test_top_k_with_k_above_n_returns_all():
    scores = np.array([0.2, 0.8, 0.5])
    assert top_k(scores, ["a", "b", "c"], 10) == [1, 2, 0]
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
    rows, _ = rows_and_mirror(BLOCK)
    first = rows.vector("key00000")
    rows.add("extra", np.ones(4))  # opens the second block
    assert np.shares_memory(first, rows.vector("key00000"))


def test_vector_view_lasts_until_the_next_add_or_remove():
    # the add that fills a block replaces it by its transpose, so a view
    # taken before that add keeps the old copy and misses later moves
    rows, mirror = rows_and_mirror(BLOCK - 1)
    stale = rows.vector("key00000")
    rows.add("fill", np.ones(4))  # fills the first block
    assert not np.shares_memory(stale, rows.vector("key00000"))
    rows.remove("key00000")  # moves "fill" into row 0
    assert np.array_equal(rows.vector("fill"), np.ones(4))
    assert np.array_equal(stale, mirror["key00000"])


@pytest.mark.parametrize(
    "remove", [[0], [N - 1], [BLOCK, BLOCK, 0], [N - 1, N - 2, BLOCK - 1]]
)
def test_swap_remove_moves_last_row_into_the_gap(remove):
    rows, mirror = rows_and_mirror()
    order = list(mirror)  # the key of each row
    for row in remove:
        key, last = order[row], order[-1]
        gap = rows.vector(key)
        order[row] = last
        order.pop()
        del mirror[key]
        rows.remove(key)
        if last != key:
            assert np.shares_memory(gap, rows.vector(last))
        assert_store_matches(rows, mirror)
    assert rows.search(np.ones(4), 5) == oracle_search(mirror, np.ones(4), 5)


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
    ),
    max_size=60,
)


def unit(angle):
    return np.array([np.cos(angle), np.sin(angle)])


@settings(max_examples=200, deadline=None)
@given(operations)
def test_store_behaves_as_a_dict_with_a_full_sort(ops):
    # blocks of 4 rows, so short sequences cross block boundaries both ways
    original = embedding._BLOCK_ROWS
    embedding._BLOCK_ROWS = 4
    try:
        rows = VectorRows(2)
        mirror = {}
        for op in ops:
            if op[0] == "add":
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
    finally:
        embedding._BLOCK_ROWS = original


# d = 64; rows and queries hold from one to all 64 non-zeros, so a scan of
# a transposed block reads from one coordinate to every one
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


@settings(max_examples=200, deadline=None)
@given(sparse_operations)
@example(
    [
        ("add", 0, BOUNDARY_ROW),
        ("add", 1, NEXT_ROW),
        ("add", 2, ((63, 1.0),)),
        ("add", 3, ((62, 1.0),)),  # fills the block, which transposes
        ("search", BOUNDARY_QUERY, 1),
    ]
)
def test_search_ranks_by_the_rounded_1d_dot(ops):
    # blocks of 4 rows, so adds and swap-removes cross the transposition
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
