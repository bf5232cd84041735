"""Text embedding backends and the exact inner-product search kernel.

Every retrieval module in the package works on unit-norm vectors produced
here, so similarity is always a plain dot product. Backends are pluggable;
the shipped reference backend is a deterministic signed-hash bag-of-tokens
embedder that needs no model weights.

``embed_row`` is the one path from text to a unit vector: the backend's
raw vector over the square root of its own dot product, checked. The
library stores and searches these plain rows; ``embed`` wraps one in an
``EmbeddingVector``.

The reference backend's token hash is a pure function of the token, so it
is memoised process-wide in a bounded LRU cache (``_token_hash``, 65,536
tokens) and shared by every ``HashedTokenEmbedder`` whatever its dimension;
the hashing trick itself follows Weinberger et al., "Feature Hashing for
Large Scale Multitask Learning" (arXiv:0902.2206).

``VectorRows``, the one keyed vector store of the app index and the
memory, keeps full blocks transposed, so a query reads only its own
non-zero coordinates of them (5-8 of 384 from the reference embedder), as
an inverted file does (Zobel and Moffat, ACM Computing Surveys 2006). Hits
are ranked and reported exactly, by 1-D dot products.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
from pathlib import Path
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import BackendFailureError, DimensionMismatchError, EmptyTextError

DEFAULT_DIMENSION = 384
# the reference embedder: benchmarks always use it, the CLI unless told otherwise
DEFAULT_BACKEND = f"hashed-token-{DEFAULT_DIMENSION}"

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_TERMINAL_PUNCTUATION = ".!?…"


def tokenize(text: str) -> list[str]:
    """Split case-folded text on non-alphanumeric boundaries."""
    return _TOKEN_RE.findall(text.casefold())


def normalize_text(text: str) -> str:
    """Canonical query form: case-fold, collapse whitespace, drop terminal punctuation."""
    collapsed = " ".join(text.casefold().split())
    return collapsed.rstrip(_TERMINAL_PUNCTUATION).rstrip()


class EmbeddingVector:
    """A fixed-dimension, L2-normalized dense vector.

    Instances are immutable; the wrapped array is marked read-only. Use
    :meth:`from_raw` to build one from an unnormalized vector.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 1 or array.size == 0:
            raise ValueError("embedding must be a non-empty 1-D vector")
        # one dot product: any non-finite entry makes the squared norm non-finite
        squared = float(array.dot(array))
        if not math.isfinite(squared) and not np.isfinite(array).all():
            raise ValueError("embedding contains non-finite values")
        norm = math.sqrt(squared)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"embedding is not unit-norm (|v| = {norm!r})")
        self._values = _frozen(array.copy())

    @classmethod
    def from_raw(cls, values: Sequence[float] | np.ndarray) -> "EmbeddingVector":
        """Normalize an arbitrary 1-D vector as ``embed_row`` does.

        Raises ValueError on a zero or non-finite vector.
        """
        array = np.asarray(values, dtype=np.float64)
        unit = _unit(array) if array.ndim == 1 else None
        if unit is None:
            raise ValueError("cannot normalize a zero, non-finite or non-1-D vector")
        return cls(unit)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def dimension(self) -> int:
        return int(self._values.shape[0])

    def to_list(self) -> list[float]:
        return self._values.tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return bool(np.array_equal(self._values, other._values))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        head = ", ".join(f"{x:.4f}" for x in self._values[:3])
        return f"EmbeddingVector(dim={self.dimension}, [{head}, ...])"


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _unit(raw: np.ndarray) -> np.ndarray | None:
    """``raw`` divided by the square root of its own dot product, or None when
    that is zero or not finite (a zero vector, or one holding NaN or infinity)."""
    squared = float(raw.dot(raw))
    if not 0.0 < squared < math.inf:
        return None
    return raw / math.sqrt(squared)


@runtime_checkable
class EmbedderBackend(Protocol):
    """Interface every embedding backend implements.

    ``encode`` returns a raw (possibly unnormalized) vector of length
    ``dimension``; it must be deterministic for a given input text.
    """

    name: str
    dimension: int

    def encode(self, text: str) -> Sequence[float]:
        ...


class HashedTokenEmbedder:
    """Reference backend: signed-hash bag of tokens, L2-normalized downstream.

    Each token is hashed (blake2b, stable across processes and platforms)
    into one of ``dimension`` buckets with a +/-1 sign, so lexical overlap
    between texts translates directly into cosine similarity.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.name = f"hashed-token-{dimension}"

    # the dimension fixes every vector, so equal backends embed alike and
    # may share anything built from their vectors (see Scenario.store_index)
    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.dimension == other.dimension

    def __hash__(self) -> int:
        return hash((type(self), self.dimension))

    def encode(self, text: str) -> np.ndarray:
        dimension = self.dimension
        vec = np.zeros(dimension, dtype=np.float64)
        for token in tokenize(text):
            value = _token_hash(token)
            vec[value % dimension] += -1.0 if value >> 63 else 1.0
        return vec


@functools.lru_cache(maxsize=1 << 16)
def _token_hash(token: str) -> int:
    """The token's 64-bit blake2b value: bucket and sign for any dimension."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class HttpEmbedderBackend:
    """Remote embedding endpoint speaking a minimal JSON contract.

    POSTs ``{"text": ...}`` and expects ``{"embedding": [...]}`` back.
    Network or shape failures surface as BackendFailureError via embed().
    """

    def __init__(
        self,
        endpoint: str,
        dimension: int,
        name: str = "http",
        api_key: str | None = None,
        timeout: float = 10.0,
        session=None,
    ) -> None:
        self.endpoint = endpoint
        self.dimension = dimension
        self.name = name
        self._api_key = api_key
        self._timeout = timeout
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def encode(self, text: str) -> Sequence[float]:
        headers = {}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        response = self._session.post(
            self.endpoint, json={"text": text}, headers=headers, timeout=self._timeout
        )
        response.raise_for_status()
        return response.json()["embedding"]


def embed(backend: EmbedderBackend, text: str) -> EmbeddingVector:
    """Embed ``text`` with ``backend`` and normalize the result (see ``embed_row``)."""
    return EmbeddingVector(embed_row(backend, text))


def embed_row(backend: EmbedderBackend, text: str) -> np.ndarray:
    """The unit vector of ``text``: the backend's vector over its own norm.

    Calls ``backend.encode`` once on the trimmed text and divides the vector
    by the square root of its own dot product. Raises EmptyTextError when
    the text trims to nothing or embeds to a zero, non-finite or (from
    subnormal entries) not unit-norm vector, and BackendFailureError when
    the backend raises or returns a vector of the wrong shape.
    """
    trimmed = text.strip()
    if not trimmed:
        raise EmptyTextError("cannot embed empty text")
    try:
        raw = np.asarray(backend.encode(trimmed), dtype=np.float64)
    except (EmptyTextError, BackendFailureError):
        raise
    except Exception as exc:
        raise BackendFailureError(f"backend {backend.name!r} failed: {exc}") from exc
    if raw.shape != (backend.dimension,):
        raise BackendFailureError(
            f"backend {backend.name!r} returned shape {raw.shape}, "
            f"expected ({backend.dimension},)"
        )
    row = _unit(raw)
    if row is None or abs(math.sqrt(float(row.dot(row))) - 1.0) > 1e-6:
        raise EmptyTextError(f"text {trimmed!r} has no embeddable content")
    return row


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Dot product of two unit vectors, clamped to [-1, 1]."""
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )
    score = float(np.dot(a.values, b.values))
    return min(1.0, max(-1.0, score))


# --- exact inner-product search -------------------------------------------

_BLOCK_ROWS = 256  # rows per block of a VectorRows store


class VectorRows:
    """Unit vectors stored under string keys, in blocks of ``_BLOCK_ROWS`` rows.

    A block is row-major (rows × dimension) while it fills; the add that
    fills it replaces it by its contiguous transpose (dimension × rows). The
    first ``_transposed`` blocks are transposed, even when removals empty
    them. Removing a key moves the last vector into its slot. A ``vector``
    view is valid only until the next ``add`` or ``remove``: the filling
    add copies its block, so an older view no longer sees later writes.

    ``search`` scans a transposed block as ``query[nz] @ block[nz]`` over
    the query's non-zero coordinates ``nz``, and the row-major block as
    ``block @ query``. Any order of a d-term dot product is within
    γ_d·|q|·|v| of the exact sum, γ_d = d·u/(1−d·u), u = 2^-53 (Higham,
    "Accuracy and Stability of Numerical Algorithms", §3.1), and
    ``embed_row`` keeps |q|, |v| ≤ 1 + 1e-6. So a scan score is within
    ε = 2·γ_d·(1 + 1e-6)² (8.5e-14 at d = 384) of the reported 1-D dot, and
    only a scan score within ε of a rounding boundary (m + 0.5)·1e-9 can
    round to another 9th decimal. ``search`` flags them as the scores s
    with |s·1e9 − rint(s·1e9)| ≥ 0.5 − 1e9·(ε + 2^-52), where 2^-52 covers
    the rounding of s·1e9 for |s| < 2, and replaces just those by the 1-D
    dot before ``top_k`` ranks, as FAISS re-ranks a coarse scan (Douze et
    al., arXiv:2401.08281).
    """

    def __init__(self, dimension: int) -> None:
        self.dimension = dimension
        self._blocks: list[np.ndarray] = []
        self._transposed = 0  # the leading blocks that are transposed
        self._keys: list[str] = []  # the key of each row
        self._row_of: dict[str, int] = {}
        gamma = dimension * 2.0**-53 / (1.0 - dimension * 2.0**-53)
        self._margin = 1e9 * (2.0 * gamma * (1.0 + 1e-6) ** 2 + 2.0**-52)

    def __len__(self) -> int:
        return len(self._keys)

    def add(self, key: str, vector: np.ndarray) -> None:
        """Store ``vector`` under ``key``, which must not be stored already."""
        if key in self._row_of:
            raise KeyError(f"{key!r} is already stored")
        block, offset = divmod(len(self._keys), _BLOCK_ROWS)
        if block == len(self._blocks):
            self._blocks.append(np.empty((_BLOCK_ROWS, self.dimension)))
        if block < self._transposed:
            self._blocks[block][:, offset] = vector
        else:  # the open block, which transposes once full
            self._blocks[block][offset] = vector
            if offset == _BLOCK_ROWS - 1:
                self._blocks[block] = np.ascontiguousarray(self._blocks[block].T)
                self._transposed += 1
        self._row_of[key] = len(self._keys)
        self._keys.append(key)

    def remove(self, key: str) -> None:
        """Drop ``key`` by moving the last vector into its slot; empty blocks
        are kept, so a store that evicts on every commit reuses its last one."""
        row = self._row_of.pop(key)
        last = self._keys.pop()
        if last != key:
            self._row(row)[:] = self._row(len(self._keys))
            self._keys[row] = last
            self._row_of[last] = row

    def vector(self, key: str) -> np.ndarray:
        """The vector stored under ``key``, as a view; callers must not write to it."""
        return self._row(self._row_of[key])

    def _row(self, row: int) -> np.ndarray:
        block, offset = divmod(row, _BLOCK_ROWS)
        if block < self._transposed:
            return self._blocks[block][:, offset]
        return self._blocks[block][offset]

    def _dot(self, query: np.ndarray, row: int) -> float:
        return float(query @ np.ascontiguousarray(self._row(row)))

    def search(self, query: np.ndarray, k: int) -> list[tuple[str, float]]:
        """The ``k`` best keys for ``query`` with their 1-D dot products, ranked
        by ``top_k`` over those products, though only a few are computed."""
        n = len(self._keys)
        if not n:
            return []
        nonzero = np.flatnonzero(query) if self._transposed else None
        parts = []
        for index, block in enumerate(self._blocks[: -(-n // _BLOCK_ROWS)]):
            if index < self._transposed:
                parts.append(query[nonzero] @ block.take(nonzero, axis=0))
            else:
                parts.append(block[: n - index * _BLOCK_ROWS] @ query)
        scores = parts[0][:n] if len(parts) == 1 else np.concatenate(parts)[:n]
        scaled = scores * 1e9
        scaled -= np.rint(scaled)
        for row in np.flatnonzero(np.abs(scaled) >= 0.5 - self._margin).tolist():
            scores[row] = self._dot(query, row)
        return [(self._keys[row], self._dot(query, row)) for row in top_k(scores, self._keys, k)]


def top_k(scores: np.ndarray, keys: Sequence[str], k: int) -> list[int]:
    """Positions of the ``k`` best scores: rounded score descending, then key.

    Equals ``sorted(range(n), key=lambda i: (-round(float(scores[i]), 9),
    keys[i]))[:k]`` exactly. Rounding to 9 decimals moves a score by at most
    5e-10, so a score more than 1e-8 below the k-th largest raw score can
    never reach the top k; ``np.partition`` (``max`` when k is 1) finds
    that bound in linear time and only the scores above it are sorted.
    """
    n = len(scores)
    if n > 4 * k:
        kth = scores.max() if k == 1 else np.partition(scores, n - k)[n - k]
        candidates = np.flatnonzero(scores >= kth - 1e-8).tolist()
    else:
        candidates = range(n)
    return sorted(candidates, key=lambda i: (-round(float(scores[i]), 9), keys[i]))[:k]


def write_json_atomic(path: str | Path, data) -> None:
    """Write ``data`` as indented JSON so that ``path`` is never half-written.

    The text goes to a temporary file in the same directory, is flushed to
    disk, and then replaces ``path`` in one ``os.replace``; a failure part
    way leaves the previous file as it was.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.tmp")
    try:
        with temp.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(data, indent=2))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


# --- backend registry -----------------------------------------------------

_BACKEND_FACTORIES: dict[str, Callable[[], EmbedderBackend]] = {
    DEFAULT_BACKEND: lambda: HashedTokenEmbedder(DEFAULT_DIMENSION),
}


def register_backend(name: str, factory: Callable[[], EmbedderBackend]) -> None:
    _BACKEND_FACTORIES[name] = factory


def resolve_backend(name: str) -> EmbedderBackend:
    """Instantiate a registered backend by name."""
    try:
        factory = _BACKEND_FACTORIES[name]
    except KeyError:
        raise BackendFailureError(f"no registered embedder backend named {name!r}") from None
    return factory()
