"""Embedding backends, normalization invariants, similarity kernel."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocketrag.embedding import (
    EmbeddingVector,
    HashedTokenEmbedder,
    HttpEmbedderBackend,
    cosine_similarity,
    embed,
    normalize_text,
    register_backend,
    resolve_backend,
    tokenize,
)
from pocketrag.errors import (
    BackendFailureError,
    DimensionMismatchError,
    EmptyTextError,
)

WORDS = st.text(alphabet="abcdefghij", min_size=1, max_size=6)
TEXTS = st.lists(WORDS, min_size=1, max_size=12).map(" ".join)


def test_embed_returns_unit_vector(backend):
    vec = embed(backend, "weather app")
    assert vec.dimension == 384
    assert abs(np.linalg.norm(vec.values) - 1.0) <= 1e-6


def test_embed_is_deterministic(backend):
    a = embed(backend, "play relaxing piano music")
    b = embed(backend, "play relaxing piano music")
    assert a == b
    assert np.array_equal(a.values, b.values)


def test_lexical_overlap_orders_similarity(backend):
    base = embed(backend, "music streaming")
    close = embed(backend, "music streaming player")
    far = embed(backend, "flight booking")
    assert cosine_similarity(base, close) > cosine_similarity(base, far)


def test_cosine_of_known_vectors():
    a = [0.0] * 384
    b = [0.0] * 384
    a[0] = a[1] = 1.0
    b[0] = 1.0
    va = EmbeddingVector.from_raw(a)
    vb = EmbeddingVector.from_raw(b)
    assert cosine_similarity(va, vb) == pytest.approx(0.7071, abs=1e-4)


def test_cosine_self_similarity(backend):
    vec = embed(backend, "any text at all")
    assert cosine_similarity(vec, vec) == pytest.approx(1.0, abs=1e-6)


def test_cosine_orthogonal_basis():
    e1 = [0.0] * 384
    e2 = [0.0] * 384
    e1[0] = 1.0
    e2[1] = 1.0
    assert cosine_similarity(EmbeddingVector(e1), EmbeddingVector(e2)) == pytest.approx(
        0.0, abs=1e-9
    )


@settings(max_examples=60)
@given(TEXTS, TEXTS)
def test_cosine_symmetry_exact(a_text, b_text):
    backend = HashedTokenEmbedder()
    try:
        a = embed(backend, a_text)
        b = embed(backend, b_text)
    except EmptyTextError:
        return
    assert cosine_similarity(a, b) == cosine_similarity(b, a)


@settings(max_examples=60)
@given(TEXTS)
def test_self_similarity_property(text):
    backend = HashedTokenEmbedder()
    try:
        vec = embed(backend, text)
    except EmptyTextError:
        return
    assert abs(cosine_similarity(vec, vec) - 1.0) <= 1e-6


def test_empty_text_rejected(backend):
    with pytest.raises(EmptyTextError):
        embed(backend, "   \t\n ")


def test_tokenless_text_rejected(backend):
    with pytest.raises(EmptyTextError):
        embed(backend, "!!! --- ???")


def test_dimension_mismatch():
    a = embed(HashedTokenEmbedder(384), "hello world")
    b = embed(HashedTokenEmbedder(128), "hello world")
    with pytest.raises(DimensionMismatchError):
        cosine_similarity(a, b)


def test_vector_constructor_requires_unit_norm():
    with pytest.raises(ValueError):
        EmbeddingVector([1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        EmbeddingVector.from_raw([0.0, 0.0, 0.0])


def test_vector_values_are_read_only(backend):
    vec = embed(backend, "immutability check")
    with pytest.raises(ValueError):
        vec.values[0] = 5.0


def test_tokenize_splits_on_non_alphanumerics():
    assert tokenize("Play 'Shape of You' by Ed-Sheeran!") == [
        "play", "shape", "of", "you", "by", "ed", "sheeran",
    ]


def test_normalize_text():
    assert normalize_text("  Set an   Alarm for 8 AM.  ") == "set an alarm for 8 am"
    assert normalize_text("Hello!?") == "hello"


def test_backend_failure_wraps_broken_backend():
    class Broken:
        name = "broken"
        dimension = 8

        def encode(self, text):
            raise ConnectionError("unreachable")

    with pytest.raises(BackendFailureError):
        embed(Broken(), "hello")


def test_backend_failure_on_bad_shape():
    class WrongShape:
        name = "short"
        dimension = 8

        def encode(self, text):
            return [1.0, 2.0]

    with pytest.raises(BackendFailureError):
        embed(WrongShape(), "hello")


def test_http_backend_with_stub_session():
    class StubResponse:
        def raise_for_status(self):
            pass

        def json(self):
            return {"embedding": [1.0] + [0.0] * 7}

    class StubSession:
        def post(self, url, json=None, headers=None, timeout=None):
            assert json == {"text": "hello"}
            return StubResponse()

    http = HttpEmbedderBackend("https://emb.example/v1", dimension=8, session=StubSession())
    vec = embed(http, "hello")
    assert vec.dimension == 8
    assert vec.values[0] == pytest.approx(1.0)


def test_backend_registry_round_trip():
    register_backend("hashed-token-64", lambda: HashedTokenEmbedder(64))
    backend = resolve_backend("hashed-token-64")
    assert backend.dimension == 64
    with pytest.raises(BackendFailureError):
        resolve_backend("no-such-backend")


# texts whose signed token hashes cancel exactly in 384 dimensions
ZERO_HASH_TEXTS = ["zudami vaperi dizopa nezege", "food browser"]


def test_cancelling_tokens_rejected(backend):
    for text in ZERO_HASH_TEXTS:
        assert not backend.encode(text).any()
        with pytest.raises(EmptyTextError):
            embed(backend, text)


class ArrayBackend:
    """Returns a fixed, arbitrary vector per text."""

    name = "array"
    dimension = 8

    def __init__(self, vectors):
        self.vectors = vectors

    def encode(self, text):
        return self.vectors[text]


# the full finite range: squares that overflow or underflow must fail
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def assert_embed_is_raw_over_own_norm(backend, text):
    """``embed`` is the raw vector over the root of its own dot product, bit for
    bit, or raises EmptyTextError when that is not a finite unit vector."""
    raw = np.asarray(backend.encode(text.strip()), dtype=np.float64)
    with np.errstate(all="ignore"):
        squared = float(raw @ raw)
        expected = raw / math.sqrt(squared) if 0.0 < squared < math.inf else None
    if expected is None or abs(math.sqrt(float(expected @ expected)) - 1.0) > 1e-6:
        with pytest.raises(EmptyTextError):
            embed(backend, text)
    else:
        assert embed(backend, text).values.tobytes() == expected.tobytes()


@settings(max_examples=100)
@given(TEXTS)
def test_embed_equals_raw_over_own_norm_hashed(text):
    assert_embed_is_raw_over_own_norm(HashedTokenEmbedder(), text)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200)
@given(st.lists(st.one_of(st.just(0.0), FINITE), min_size=8, max_size=8))
def test_embed_equals_raw_over_own_norm_arbitrary_floats(vector):
    assert_embed_is_raw_over_own_norm(ArrayBackend({"text": vector}), "text")
