"""Local app knowledge base: build, query with rejection, register, persist.

The index embeds every app description once and answers queries with the
top-k scored matches, or an explicit no-match outcome when even the best
score sits below the configured threshold; vectors are stored under their
package ids in the shared keyed store (``VectorRows``), one ``add`` each,
and a query is one ``search`` of it. Each app's vector is held once, in
that store: every entry is checked and embedded before any is stored,
``add`` checks each vector's dimension, and the ``AppRecord`` that
``get``, ``records`` and ``register`` return is built on demand with its
``embedding`` copied from the store. The module also generates the
contrastive training corpus (query, positive, negatives) used to fine-tune
a real retrieval model offline.

A catalog does not change between builds, so ``build`` keeps each one it
indexes process-wide, keyed on its backend (by ``==``), ``installed`` and
every entry's (package id, name, description), and copies it for a later
build at any threshold (``VectorRows.copy``: every sealed array shared,
since none is written again, and only the keys copied). A catalog that
fails is never kept. At most 4,096 rows (~1.2 MB of reference-embedder
rows, at most ~13 MB of dense rows at d = 384) are kept, least recently
used out first, each holding its backend alive.
"""

from __future__ import annotations

import json
import random
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, KeysView, Mapping, NamedTuple, Protocol, Sequence

import numpy as np

from .embedding import (
    EmbedderBackend,
    EmbeddingVector,
    VectorRows,
    embed,  # unused here, but kept: perfbench's tracer wraps ``app_index.embed``
    embed_row,
    read_vector_file,
    tokenize,
    write_text_atomic,
)
from .errors import (
    ConflictingRecordError,
    DuplicatePackageIdError,
    EmptyDescriptionError,
    EmptyQueryError,
    MalformedEntryError,
    QuerySourceFailureError,
    check_types,
    malformed,
)

NONE_SENTINEL = "NONE"
NEGATIVES_PER_EXAMPLE = 3

SOURCE_PREINSTALLED = "preinstalled"
SOURCE_STORE = "store_installed"
SOURCE_CATALOG = "store_catalog"  # in the store's index, not installed


@dataclass(frozen=True)
class AppSeed:
    """Unembedded app metadata, as it appears in catalogs and scenarios."""

    app_name: str
    package_id: str
    description: str

    @classmethod
    def from_dict(cls, data: Mapping) -> "AppSeed":
        """Raises KeyError when a field is missing and ValueError for one of the
        wrong type (``check_types``); callers guard the whole catalog."""
        check_types(data, _SEED_FIELD_TYPES)
        name = data.get("name") or data.get("app_name") or ""
        return cls(name, data["package_id"], data["description"])


# the type of each field of a catalog entry
_SEED_FIELD_TYPES = {"name": str, "app_name": str, "package_id": str, "description": str}


@dataclass(frozen=True)
class AppRecord:
    """An indexed app: metadata plus the embedding of its description."""

    app_name: str
    package_id: str
    description: str
    embedding: EmbeddingVector
    installed: bool = True
    source: str = SOURCE_PREINSTALLED


@dataclass(frozen=True)
class AppMatch:
    """One scored retrieval hit."""

    package_id: str
    app_name: str
    description: str
    score: float


@dataclass(frozen=True)
class RetrievalOutcome:
    """Top-k matches, or rejection with the best (sub-threshold) score.

    ``matches`` is empty when no local app clears the threshold;
    ``best_score`` is then the rejected best score, or None on an empty
    index. When matches exist, ``best_score`` equals the top match's score.
    """

    matches: tuple[AppMatch, ...]
    best_score: float | None

    @property
    def found(self) -> bool:
        return bool(self.matches)


class _Entry(NamedTuple):
    """An indexed app as the index keeps it; its vector is in the keyed store."""

    seed: AppSeed
    installed: bool
    source: str


class AppIndex:
    """Exhaustive-scan cosine index over app descriptions.

    Supports many concurrent readers; ``register`` requires exclusive
    access (single-writer contract). The threshold is fixed at
    construction. ``package_ids`` lists the indexed apps.
    """

    def __init__(
        self,
        backend: EmbedderBackend,
        threshold: float,
        records: Iterable[AppRecord] = (),
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        self.backend = backend
        self.threshold = float(threshold)
        self._records: dict[str, _Entry] = {}
        self._rows = VectorRows(backend.dimension)
        records = list(records)
        self._insert(
            [_Entry(AppSeed(r.app_name, r.package_id, r.description), r.installed, r.source)
             for r in records],
            [r.embedding.values for r in records],
        )

    @classmethod
    def build(
        cls,
        catalog: Iterable[AppSeed | Mapping],
        backend: EmbedderBackend,
        threshold: float = 0.5,
        installed: bool = True,
    ) -> "AppIndex":
        """Embed a catalog of seeds into a fresh index, or copy its cached one.

        Every entry is checked before any is embedded, so a malformed entry
        anywhere fails the build before the embedding work starts.
        """
        index = cls(backend, threshold)
        with malformed(MalformedEntryError, "catalog"):
            seeds = [e if isinstance(e, AppSeed) else AppSeed.from_dict(e) for e in catalog]
        key = (backend, installed, tuple([(s.package_id, s.app_name, s.description) for s in seeds]))
        with _catalogs_lock:
            base = _catalogs.get(key)
            if base is not None:
                _catalogs.move_to_end(key)
        if base is not None:
            index._rows, index._records = base[0].copy(), dict(base[1])
            return index
        source = SOURCE_PREINSTALLED if installed else SOURCE_CATALOG
        index._insert([_Entry(seed, installed, source) for seed in seeds])
        if len(seeds) <= _CATALOG_ROWS:
            with _catalogs_lock:
                _catalogs[key] = (index._rows.copy(), dict(index._records))
                kept = sum(len(rows) for rows, _ in _catalogs.values())
                while kept > _CATALOG_ROWS:  # evict the least recently used
                    kept -= len(_catalogs.popitem(last=False)[1][0])
        return index

    def _insert(self, entries: list[_Entry], rows: list[np.ndarray] | None = None) -> None:
        """Check every entry and embed every description (unless ``rows``
        gives the vectors) before storing any, then store each entry's row
        under its package id by ``VectorRows.add``.

        Only ``__init__`` and ``load`` give rows, and when ``add`` raises
        DimensionMismatchError for one of them they raise too, so no caller
        holds a half-filled index.
        """
        self._check([entry.seed for entry in entries])
        if rows is None:
            rows = [embed_row(self.backend, e.seed.description) for e in entries]
        for entry, row in zip(entries, rows):
            self._rows.add(entry.seed.package_id, row)
            self._records[entry.seed.package_id] = entry

    def _check(self, seeds: list[AppSeed]) -> None:
        """Raise for an empty package id or description, or an id already taken."""
        new: set[str] = set()
        for position, seed in enumerate(seeds):
            if not seed.package_id:
                raise MalformedEntryError(
                    f"app entry {position} ({seed.app_name!r}) has an empty package_id"
                )
            if not seed.description.strip():
                raise EmptyDescriptionError(seed.package_id)
            if seed.package_id in self._records or seed.package_id in new:
                raise DuplicatePackageIdError(seed.package_id)
            new.add(seed.package_id)

    def _record(self, entry: _Entry) -> AppRecord:
        seed = entry.seed
        return AppRecord(
            app_name=seed.app_name,
            package_id=seed.package_id,
            description=seed.description,
            embedding=EmbeddingVector(self._rows.vector(seed.package_id)),
            installed=entry.installed,
            source=entry.source,
        )

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, package_id: str) -> bool:
        return package_id in self._records

    def package_ids(self) -> KeysView[str]:
        """The indexed package ids, as a live read-only set view."""
        return self._records.keys()

    def get(self, package_id: str) -> AppRecord | None:
        entry = self._records.get(package_id)
        return None if entry is None else self._record(entry)

    def records(self) -> list[AppRecord]:
        """Every record, in ascending package-id order."""
        return [self._record(self._records[pid]) for pid in sorted(self._records)]

    def retrieve(self, query: str, k: int = 3) -> RetrievalOutcome:
        """Score every record against ``query`` and return the top ``k``.

        Ranks as ``VectorRows.search`` does: by each record's 1-D dot
        product rounded to 9 decimals, then by ascending package id, so
        the result does not depend on the BLAS or on where a vector sits.
        Returns a rejection outcome when the top score is below the
        threshold (or the index is empty); a query that no record can lift
        to the threshold ranks only its best record.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if not query.strip():
            raise EmptyQueryError("query is empty")
        if not self._records:
            return RetrievalOutcome(matches=(), best_score=None)
        hits = self._rows.search(embed_row(self.backend, query), k, floor=self.threshold)
        best = hits[0][1]
        if best < self.threshold:
            return RetrievalOutcome(matches=(), best_score=best)
        matches = []
        for package_id, score in hits:
            seed = self._records[package_id].seed
            matches.append(AppMatch(seed.package_id, seed.app_name, seed.description, score))
        return RetrievalOutcome(matches=tuple(matches), best_score=best)

    def register(self, seed: AppSeed) -> AppRecord:
        """Add an app installed from the store; idempotent for an identical record.

        Raises ConflictingRecordError when the package id exists with a
        different description. Never changes scores of existing records.
        """
        existing = self._records.get(seed.package_id)
        if existing is not None:
            if existing.seed.description != seed.description:
                raise ConflictingRecordError(
                    f"{seed.package_id} already indexed with a different description"
                )
            return self._record(existing)
        self._insert([_Entry(seed, True, SOURCE_STORE)])
        return self._record(self._records[seed.package_id])

    # --- persistence ---

    def to_dict(self) -> dict:
        return {
            "backend": self.backend.name,
            "dimension": self.backend.dimension,
            "threshold": self.threshold,
            "apps": [
                {
                    "name": e.seed.app_name,
                    "package_id": e.seed.package_id,
                    "description": e.seed.description,
                    "embedding": self._rows.vector(e.seed.package_id).tolist(),
                    "installed": e.installed,
                    "source": e.source,
                }
                for e in (self._records[pid] for pid in sorted(self._records))
            ],
        }

    def save(self, path: str | Path) -> None:
        """Write the index file atomically (see ``write_text_atomic``)."""
        write_text_atomic(path, json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(
        cls,
        path: str | Path,
        backend: EmbedderBackend | None = None,
        threshold: float | None = None,
    ) -> "AppIndex":
        """Load an index file; resolves the backend by name if not given.

        ``threshold``, when given, replaces the threshold stored in the file.
        Raises a PocketRagError naming the entry when a field is missing or
        invalid, a vector is not unit-norm, or a vector's dimension differs
        from the backend's (``VectorRows.add`` checks it), and
        DimensionMismatchError when the file's dimension does.
        """
        where = f"index file {str(path)!r}"
        with malformed(MalformedEntryError, where):
            data, backend = read_vector_file(path, backend, "index")
            check_types(data, {"threshold": float, "apps": list})
            index = cls(backend, data["threshold"] if threshold is None else threshold)
            apps, rows = [], []
            for position, entry in enumerate(data["apps"]):
                with malformed(MalformedEntryError, f"{where}, app entry {position}"):
                    check_types(entry, {**_SEED_FIELD_TYPES, "installed": bool, "source": str})
                    seed = AppSeed(entry["name"], entry["package_id"], entry["description"])
                    rows.append(EmbeddingVector(entry["embedding"]).values)
                    installed = entry.get("installed", True)
                    default = SOURCE_PREINSTALLED if installed else SOURCE_CATALOG
                    source = entry.get("source", default)
                apps.append(_Entry(seed, installed, source))
            index._insert(apps, rows)
        return index


# built catalogs as (rows, records), least recently used first (see the module docstring)
_CATALOG_ROWS = 1 << 12
_catalogs: OrderedDict[tuple, tuple[VectorRows, dict[str, _Entry]]] = OrderedDict()
_catalogs_lock = threading.Lock()


# --- training corpus --------------------------------------------------------


@dataclass(frozen=True)
class TrainingExample:
    """One contrastive example: a query, its positive app, sampled negatives."""

    query: str
    positive: str
    negatives: tuple[str, ...]
    is_none_case: bool = False

    def __post_init__(self) -> None:
        if self.is_none_case != (self.positive == NONE_SENTINEL):
            raise ValueError("is_none_case must mirror the NONE sentinel")
        if self.positive in self.negatives:
            raise ValueError("positive appears among negatives")


class QuerySource(Protocol):
    """Produces candidate user queries for corpus generation.

    Production wires a text-generation model here; tests use the keyword
    template source below.
    """

    def queries_for_app(self, seed: AppSeed, count: int) -> Sequence[str]:
        ...

    def none_queries(self, count: int) -> Sequence[str]:
        ...


class KeywordQuerySource:
    """Deterministic template source deriving queries from description tokens."""

    _NONE_TOPICS = (
        "recalibrate the orbital telescope",
        "book a llama grooming session",
        "renew my maritime fishing licence",
        "tune the harpsichord in the attic",
        "schedule volcanic ash removal",
        "translate ancient cuneiform tablets",
        "audit the beekeeping cooperative",
        "reserve a glacier camping permit",
    )

    def queries_for_app(self, seed: AppSeed, count: int) -> list[str]:
        tokens = [t for t in tokenize(seed.description) if len(t) > 2]
        if not tokens:
            tokens = tokenize(seed.app_name) or ["app"]
        queries = []
        for i in range(count):
            start = (2 * i) % len(tokens)
            window = tokens[start : start + 3]
            if len(window) < 3:
                window = (tokens + tokens)[start : start + 3]
            queries.append(" ".join(window))
        return queries

    def none_queries(self, count: int) -> list[str]:
        topics = self._NONE_TOPICS
        return [f"{topics[i % len(topics)]} {i // len(topics) + 1}" for i in range(count)]


def generate_training_corpus(
    catalog: Sequence[AppSeed],
    queries_per_app: int,
    none_fraction: float,
    query_source: QuerySource,
    seed: int = 0,
) -> list[TrainingExample]:
    """Emit positives per app plus none-cases at the requested fraction.

    Each example samples up to ``NEGATIVES_PER_EXAMPLE`` negatives. With P
    positives, the number of none-cases is round(P * f / (1 - f)), which
    keeps the none share of the whole corpus at ``none_fraction`` within
    one example.
    """
    if not catalog:
        raise MalformedEntryError("catalog is empty")
    if len(catalog) < 2:
        raise MalformedEntryError("corpus generation needs >= 2 apps to sample negatives")
    if queries_per_app < 1:
        raise ValueError("queries_per_app must be >= 1")
    if not 0.0 <= none_fraction < 1.0:
        raise ValueError("none_fraction must be in [0, 1)")

    rng = random.Random(seed)
    package_ids = [s.package_id for s in catalog]
    examples: list[TrainingExample] = []

    for app in catalog:
        try:
            queries = list(query_source.queries_for_app(app, queries_per_app))
        except Exception as exc:
            raise QuerySourceFailureError(str(exc)) from exc
        if len(queries) < queries_per_app:
            raise QuerySourceFailureError(
                f"query source yielded {len(queries)} queries for "
                f"{app.package_id}, wanted {queries_per_app}"
            )
        others = [pid for pid in package_ids if pid != app.package_id]
        for query in queries[:queries_per_app]:
            negatives = rng.sample(others, min(NEGATIVES_PER_EXAMPLE, len(others)))
            examples.append(
                TrainingExample(
                    query=query,
                    positive=app.package_id,
                    negatives=tuple(negatives),
                )
            )

    positives = len(examples)
    none_count = round(positives * none_fraction / (1.0 - none_fraction))
    if none_count:
        try:
            none_qs = list(query_source.none_queries(none_count))
        except Exception as exc:
            raise QuerySourceFailureError(str(exc)) from exc
        for query in none_qs[:none_count]:
            negatives = rng.sample(
                package_ids, min(NEGATIVES_PER_EXAMPLE, len(package_ids))
            )
            examples.append(
                TrainingExample(
                    query=query,
                    positive=NONE_SENTINEL,
                    negatives=tuple(negatives),
                    is_none_case=True,
                )
            )
    return examples


def write_corpus(examples: Iterable[TrainingExample], path: str | Path) -> None:
    """Serialize examples as one JSON object per line (the fields in order), atomically."""
    write_text_atomic(path, "".join(json.dumps(asdict(ex)) + "\n" for ex in examples))


def load_corpus(path: str | Path) -> list[TrainingExample]:
    examples = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            data = json.loads(line)
            examples.append(
                TrainingExample(
                    query=data["query"],
                    positive=data["positive"],
                    negatives=tuple(data["negatives"]),
                    is_none_case=data["is_none_case"],
                )
            )
    return examples
