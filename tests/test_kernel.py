"""The shared exact search kernel: ``top_k`` ranking and the ``VectorRows`` store."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocketrag import embedding
from pocketrag.embedding import VectorRows, top_k

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
    rng = np.random.default_rng(seed)
    rows = VectorRows(dimension)
    mirror = []
    for _ in range(count):
        vector = rng.standard_normal(dimension)
        assert rows.append(vector) == len(mirror)
        mirror.append(vector)
    return rows, mirror


# uneven extend sizes summing to N; the 1000- and 8-row chunks cross the two
# block boundaries part way through
CHUNKS = [1, 700, 1000, 340, 8]


def extended_rows(mirror, dimension=4):
    rows = VectorRows(dimension)
    done = 0
    for size in CHUNKS:
        rows.extend(np.stack(mirror[done : done + size]))
        done += size
    assert done == len(rows) == len(mirror)
    return rows


def stored(rows):
    return np.array([rows.row(i) for i in range(len(rows))]).reshape(len(rows), rows.dimension)


def test_rows_span_blocks_and_score_in_row_order():
    appended, mirror = rows_and_mirror()
    query = np.arange(4, dtype=np.float64)
    for rows in (appended, extended_rows(mirror)):
        assert len(rows) == N
        assert np.array_equal(stored(rows), np.stack(mirror))
        assert np.allclose(rows.scores(query), np.stack(mirror) @ query)
        assert np.array_equal(rows.scores(query), appended.scores(query))


def test_rows_growth_never_moves_stored_rows():
    rows, _ = rows_and_mirror(BLOCK)
    first = rows.row(0)
    rows.append(np.ones(4))  # opens the second block
    assert np.shares_memory(first, rows.row(0))


@pytest.mark.parametrize(
    "remove", [[0], [N - 1], [BLOCK, BLOCK, 0], [N - 1, N - 2, BLOCK - 1]]
)
def test_swap_remove_moves_last_row_into_the_gap(remove):
    rows, mirror = rows_and_mirror()
    for row in remove:
        mirror[row] = mirror[-1]
        mirror.pop()
        rows.swap_remove(row)
        assert np.array_equal(stored(rows), np.stack(mirror))
    assert np.allclose(rows.scores(np.ones(4)), np.stack(mirror) @ np.ones(4))


def test_drained_rows_accept_rows_again():
    rows, mirror = rows_and_mirror()
    while mirror:
        mirror[0] = mirror[-1]
        mirror.pop()
        rows.swap_remove(0)
        if mirror:
            assert np.array_equal(rows.row(0), mirror[0])
    assert len(rows) == 0
    rows.append(np.zeros(4))
    assert len(rows) == 1
    assert np.array_equal(rows.scores(np.ones(4)), [0.0])
