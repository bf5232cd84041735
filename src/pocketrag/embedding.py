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
Large Scale Multitask Learning" (arXiv:0902.2206). Whole app catalogs
are indexed once per process too (``app_index``, at most 4,096 rows), keyed
on the backend by ``==``, and each build gets a ``VectorRows.copy``;
queries and memory texts are always embedded afresh.

``VectorRows``, the one keyed vector store of the app index and the
memory, is written only by ``add``, which checks each vector's dimension.
It keeps each sealed vector as its non-zero (coordinate, value) pairs,
or, when those take more bytes, as a dense row, and serves a query from
the postings of the query's own non-zero coordinates (5-8 of 384 from
the reference embedder), an inverted file (Zobel and Moffat, ACM
Computing Surveys 2006). Sealed arrays are never written again, so a
``copy`` shares them. Hits are ranked and reported exactly, by 1-D dot
products. ``write_text_atomic`` writes every file the package writes;
``read_vector_file`` reads the header of an index or a memory file.
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
    ``dimension``; it must be deterministic for a given input text. A
    backend must also be hashable: catalog indexes are cached per backend,
    and backends that compare equal share them.
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

    # the dimension fixes every vector, so equal backends embed alike and may share
    # anything built from their vectors (Scenario.store_index, AppIndex.build's cache)
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

_BLOCK_ROWS = 256  # rows a store stages densely before it seals them


class VectorRows:
    """Unit vectors stored under string keys, each sealed one as its non-zero
    (coordinate, value) pairs or as a dense row, whichever takes fewer bytes.

    ``add`` checks that a vector has the store's dimension and writes it
    into the stage, ``_BLOCK_ROWS`` dense rows. The add that fills the
    stage, and every ``copy``, seals it. A row with fewer non-zero
    coordinates than half the dimension (a pair takes 16 bytes, a dense
    coordinate 8) is kept as pairs, in slot order; a -0.0 coordinate
    counts as non-zero, so ``vector`` gives back every bit that was added.
    The stage's other rows, zero rows among them, stay as one dense,
    row-major block, in which the pair rows read 0. Once ``_BLOCK_ROWS``
    rows are sealed, every seal also adds the pairs not yet there to the
    postings, the pairs in order of coordinate, an inverted file (Zobel and
    Moffat, ACM Computing Surveys 2006). Sealed arrays are never written again, so a ``copy``
    shares them and copies only the keys. A removed key's slot stays
    unused, and when more slots are unused than keys are stored, the store
    is built again from its vectors.

    ``search`` sums the products of the pairs of the query's non-zero
    coordinates, read from the postings (from all pairs when there are
    none yet), per slot by one ``np.bincount``, and scans each block and
    the stage as ``rows @ query``. The bincount adds a row's products in
    the order of the query's coordinates, leaving out the zero products,
    which are exact: one order of the d-term dot product. Any order of it
    is within γ_d·|q|·|v| of the exact sum, γ_d = d·u/(1−d·u), u = 2^-53
    (Higham, "Accuracy and Stability of Numerical Algorithms", §3.1), and
    ``embed_row`` keeps |q|, |v| ≤ 1 + 1e-6. So a scan score is within ε =
    2·γ_d·(1 + 1e-6)² (8.5e-14 at d = 384) of the reported 1-D dot of the
    query and the row (rebuilt dense from its pairs).

    ``search`` finds the k-th best scan score once (by ``max`` when k is 1,
    otherwise by ``np.sort``, which, unlike ``np.partition``, stays fast on
    the many exact ties a sparse query leaves: every row that shares no
    coordinate with it scores 0.0) and keeps as candidates the slots scanned
    within 1e-8 of it, or every slot when there are at most 4k. Rounding to
    9 decimals moves a score by at most 5e-10, and 1e-8 > 2ε + 1e-9, so any
    other slot ranks below k rounded 1-D dots either way. Among the
    candidates, only a scan score within ε of a rounding boundary (m +
    0.5)·1e-9 can round to another 9th decimal than its 1-D dot. ``search``
    flags them as the scores s with |s·1e9 − rint(s·1e9)| ≥ 0.5 − 1e9·(ε +
    2^-52), where 2^-52 covers the rounding of s·1e9 for |s| < 2, replaces
    just those by the 1-D dot, as FAISS re-ranks a coarse scan (Douze et
    al., arXiv:2401.08281), and ranks the candidates by rounded score, then
    key.
    """

    def __init__(self, dimension: int) -> None:
        self.dimension = dimension
        self._keys: list[str] = []  # the key of each slot, "" once removed
        self._row_of: dict[str, int] = {}  # the slot of each key
        self._removed: list[int] = []
        self._sealed = 0  # the slots sealed
        self._stage: np.ndarray | None = None  # the rows of the slots from ``_sealed`` on
        # the sealed rows' pairs as (slot, coordinate, value), in slot order, and
        # where each slot's pairs start; the postings, once a stage's worth of
        # rows is sealed: the pairs' order by coordinate (then by slot), and
        # where each coordinate's pairs start in it
        self._pairs = (np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))
        self._starts = [0]
        self._postings: tuple[np.ndarray, list[int]] | None = None
        self._blocks: tuple[tuple[int, np.ndarray], ...] = ()  # (first slot, dense rows)
        gamma = dimension * 2.0**-53 / (1.0 - dimension * 2.0**-53)
        self._margin = 1e9 * (2.0 * gamma * (1.0 + 1e-6) ** 2 + 2.0**-52)

    def __len__(self) -> int:
        return len(self._row_of)

    def add(self, key: str, vector: np.ndarray) -> None:
        """Store ``vector`` under ``key``, which must not be stored already.

        Raises DimensionMismatchError, naming ``key``, when the vector's
        length is not the store's dimension.
        """
        if len(vector) != self.dimension:
            raise DimensionMismatchError(
                f"vector for {key!r} has dimension {len(vector)}, expected {self.dimension}"
            )
        if key in self._row_of:
            raise KeyError(f"{key!r} is already stored")
        if self._stage is None:
            self._stage = np.empty((_BLOCK_ROWS, self.dimension))
        self._stage[len(self._keys) - self._sealed] = vector
        self._row_of[key] = len(self._keys)
        self._keys.append(key)
        if len(self._keys) - self._sealed == len(self._stage):
            self._seal()

    def _seal(self) -> None:
        """Keep the staged rows as pairs or in a dense block and, once a
        stage's worth of rows is sealed, add the pairs not in the postings
        yet to them (see the class docstring)."""
        staged = self._stage[: len(self._keys) - self._sealed]
        nonzero = staged.view(np.int64) != 0  # the bits of -0.0 are not zero
        count = np.count_nonzero(nonzero, axis=1)
        sparse = (count > 0) & (2 * count < self.dimension)  # a zero row goes in a block
        if not sparse.all():
            self._blocks += ((self._sealed, np.where(sparse[:, None], 0.0, staged)),)
            nonzero[~sparse] = False
        rows, coords = np.divmod(np.flatnonzero(nonzero), self.dimension)
        slots, all_coords, values = self._pairs
        self._pairs = (
            np.concatenate((slots, rows + self._sealed)),
            np.concatenate((all_coords, coords)),
            np.concatenate((values, staged[rows, coords])),
        )
        self._starts = self._starts + (self._starts[-1] + np.cumsum(count * sparse)).tolist()
        self._sealed, self._stage = len(self._keys), None
        if self._sealed >= _BLOCK_ROWS:  # index the pairs not indexed yet
            order, ptr = self._postings or (np.zeros(0, np.intp), [0] * (self.dimension + 1))
            coords = self._pairs[1][len(order) :]
            # each after the pairs of its coordinate indexed before (a stable
            # sort of small integers is a radix sort)
            new = np.argsort(coords.astype(np.min_scalar_type(self.dimension)), kind="stable")
            order = np.insert(order, np.take(ptr[1:], coords[new]), new + len(order))
            counts = np.bincount(coords, minlength=self.dimension)
            self._postings = (order, (ptr + np.concatenate(([0], np.cumsum(counts)))).tolist())

    def copy(self) -> "VectorRows":
        """An equal store. Seals this store's staged rows first, then shares
        every sealed array with the copy and copies the keys."""
        if len(self._keys) > self._sealed:
            self._seal()
        copy = object.__new__(VectorRows)
        copy.__dict__.update(self.__dict__)
        copy._keys, copy._row_of, copy._removed = list(self._keys), dict(self._row_of), list(self._removed)
        return copy

    def remove(self, key: str) -> None:
        """Drop ``key``. Its slot stays unused until more slots are unused
        than keys are stored, and the store is then built again from its rows."""
        self._removed.append(self._row_of.pop(key))
        self._keys[self._removed[-1]] = ""
        if 2 * len(self._removed) > len(self._keys):
            rebuilt = VectorRows(self.dimension)
            for kept, row in self._row_of.items():
                rebuilt.add(kept, self._row(row))
            self.__dict__ = rebuilt.__dict__

    def vector(self, key: str) -> np.ndarray:
        """The vector stored under ``key``, bit for bit; callers must not write to it."""
        return self._row(self._row_of[key])

    def _row(self, row: int) -> np.ndarray:
        if row >= self._sealed:
            return self._stage[row - self._sealed]
        start, end = self._starts[row], self._starts[row + 1]
        if start == end:  # a row without pairs is in a block
            for first, block in self._blocks:
                if row < first + len(block):
                    return block[row - first]
        _, coords, values = self._pairs
        vector = np.zeros(self.dimension)
        vector[coords[start:end]] = values[start:end]
        return vector

    def _dot(self, query: np.ndarray, row: int) -> float:
        return float(query @ self._row(row))

    def _scores(self, query: np.ndarray) -> np.ndarray:
        """The scan score of every slot (see the class docstring)."""
        if not self._sealed:  # as in every desk memory: no bincount to pay for
            return self._stage[: len(self._keys)] @ query
        slots, coords, values = self._pairs
        # only the pairs of the query's coordinates; a store of dense rows has
        # postings too, all empty, and walking them costs more than its scan
        if len(values) and self._postings is not None:
            order, ptr = self._postings
            nonzero = query.nonzero()[0].tolist()
            entries = np.concatenate([order[:0], *(order[ptr[c] : ptr[c + 1]] for c in nonzero)])
            slots, coords, values = slots[entries], coords[entries], values[entries]
        # zeros when no pair is left to count, as in a store of dense rows
        count = len(self._keys)
        scores = np.bincount(slots, values * query[coords], count) if len(values) else np.zeros(count)
        for first, block in self._blocks:
            scores[first : first + len(block)] += block @ query
        if count > self._sealed:
            scores[self._sealed :] += self._stage[: count - self._sealed] @ query
        return scores

    def search(
        self, query: np.ndarray, k: int, floor: float | None = None
    ) -> list[tuple[str, float]]:
        """The ``k`` best keys for ``query`` with their 1-D dot products: by
        rounded dot product descending, then key, as ``sorted(keys, key=lambda
        key: (-round(dot(key), 9), key))[:k]`` ranks them, though only a few
        dot products are computed (see the class docstring).

        ``floor``, when given, is the score below which the caller rejects
        the query: when every scan score is more than 1e-8 below it and the
        store holds more than 4k slots, only the best key is returned.
        """
        if not self._row_of:
            return []
        scores = self._scores(query)
        if self._removed:
            scores[self._removed] = -2.0  # below every stored row
        k, kth = min(k, len(self._row_of)), -np.inf  # at most 4k slots: rank them all
        if len(scores) > 4 * k:
            top = scores.max()
            if floor is not None and top < floor - 1e-8:
                k = 1
            kth = top if k == 1 else np.sort(scores)[-k]
        rows = (scores >= kth - 1e-8).nonzero()[0]
        if len(rows) == 1:
            row = int(rows[0])
            return [(self._keys[row], self._dot(query, row))]
        values = scores[rows]
        scaled = values * 1e9
        scaled -= np.rint(scaled)
        rows, values = rows.tolist(), values.tolist()
        for i in (np.abs(scaled) >= 0.5 - self._margin).nonzero()[0].tolist():
            values[i] = self._dot(query, rows[i])
        # round each distinct value once: hundreds of candidates may tie
        rounded = {value: -round(value, 9) for value in set(values)}
        ranked = zip(map(rounded.__getitem__, values), map(self._keys.__getitem__, rows), rows)
        best = sorted(ranked)[:k] if k > 1 else [min(ranked)]
        return [(key, self._dot(query, row)) for _, key, row in best]


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` so that ``path`` is never half-written.

    The text goes to a temporary file in the same directory, is flushed to
    disk, and then replaces ``path`` in one ``os.replace``; a failure part
    way leaves the previous file as it was.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.tmp")
    try:
        with temp.open("w", encoding="utf-8") as fh:
            fh.write(text)
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
    factory = _BACKEND_FACTORIES.get(name) if isinstance(name, str) else None
    if factory is None:
        raise BackendFailureError(f"no registered embedder backend named {name!r}")
    return factory()


def read_vector_file(
    path: str | Path, backend: EmbedderBackend | None, kind: str
) -> tuple[dict, EmbedderBackend]:
    """The JSON of an index or memory file, and ``backend``, or when that is
    None the backend the file names.

    Raises DimensionMismatchError ("``kind`` file has dimension …") when the
    file's dimension differs from the backend's.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if backend is None:
        backend = resolve_backend(data["backend"])
    if backend.dimension != data["dimension"]:
        raise DimensionMismatchError(
            f"{kind} file has dimension {data['dimension']}, "
            f"backend {backend.name!r} produces {backend.dimension}"
        )
    return data, backend
