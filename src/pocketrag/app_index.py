"""Local app knowledge base: build, query with rejection, extend, persist.

The index embeds every app description once and answers queries with the
top-k scored matches, or an explicit no-match outcome when even the best
score sits below the configured threshold; vectors are stored under their
package ids in the shared keyed store (``VectorRows``), and a query is one
``search`` of it. Each app's vector is held once, in that store: every
entry is checked before any is stored, and the ``AppRecord`` that ``get``,
``records`` and ``register`` return is built on demand with its
``embedding`` copied from the store. The module also generates the
contrastive training corpus (query, positive, negatives) used to fine-tune
a real retrieval model offline.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Protocol, Sequence

from .embedding import (
    EmbedderBackend,
    EmbeddingVector,
    VectorRows,
    embed,  # unused here, but kept: perfbench's tracer wraps ``app_index.embed``
    embed_row,
    resolve_backend,
    tokenize,
    write_json_atomic,
)
from .errors import (
    ConflictingRecordError,
    DimensionMismatchError,
    DuplicatePackageIdError,
    EmptyDescriptionError,
    EmptyQueryError,
    MalformedEntryError,
    QuerySourceFailureError,
)

NONE_SENTINEL = "NONE"
NEGATIVES_PER_EXAMPLE = 3

SOURCE_PREINSTALLED = "preinstalled"
SOURCE_STORE = "store_installed"


@dataclass(frozen=True)
class AppSeed:
    """Unembedded app metadata, as it appears in catalogs and scenarios."""

    app_name: str
    package_id: str
    description: str

    @classmethod
    def from_dict(cls, data: Mapping) -> "AppSeed":
        """Raises MalformedEntryError when ``package_id`` or ``description`` is missing."""
        try:
            return cls(
                app_name=str(data.get("name") or data.get("app_name") or ""),
                package_id=str(data["package_id"]),
                description=str(data["description"]),
            )
        except (KeyError, AttributeError, TypeError) as exc:
            raise MalformedEntryError(f"app entry {data!r} is malformed: {exc!r}") from None


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
    construction. Iterating yields the package ids in insertion order.
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
            [r.embedding for r in records],
        )

    @classmethod
    def build(
        cls,
        catalog: Iterable[AppSeed | Mapping],
        backend: EmbedderBackend,
        threshold: float = 0.5,
        installed: bool = True,
    ) -> "AppIndex":
        """Embed a catalog of seeds into a fresh index.

        Every entry is checked before any is embedded, so a malformed entry
        anywhere fails the build before the embedding work starts.
        """
        index = cls(backend, threshold)
        seeds = [e if isinstance(e, AppSeed) else AppSeed.from_dict(e) for e in catalog]
        index._insert([_Entry(seed, installed, SOURCE_PREINSTALLED) for seed in seeds])
        return index

    def _insert(
        self, entries: list[_Entry], vectors: list[EmbeddingVector] | None = None
    ) -> None:
        """Check every entry, then store each under its package id.

        An entry's vector is ``vectors[i]`` when given (its dimension must
        be the backend's), otherwise its embedded description.
        """
        self._check([entry.seed for entry in entries])
        for position, entry in enumerate(entries):
            seed = entry.seed
            if vectors is None:
                vector = embed_row(self.backend, seed.description)
            elif vectors[position].dimension != self.backend.dimension:
                raise DimensionMismatchError(
                    f"record {seed.package_id} has dimension "
                    f"{vectors[position].dimension}, index uses {self.backend.dimension}"
                )
            else:
                vector = vectors[position].values
            self._rows.add(seed.package_id, vector)
            self._records[seed.package_id] = entry

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

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

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
        threshold (or the index is empty).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if not query.strip():
            raise EmptyQueryError("query is empty")
        if not self._records:
            return RetrievalOutcome(matches=(), best_score=None)
        hits = self._rows.search(embed_row(self.backend, query), k)
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
        """Write the index file atomically (see ``write_json_atomic``)."""
        write_json_atomic(path, self.to_dict())

    @classmethod
    def load(
        cls,
        path: str | Path,
        backend: EmbedderBackend | None = None,
        threshold: float | None = None,
    ) -> "AppIndex":
        """Load an index file; resolves the backend by name if not given.

        ``threshold``, when given, replaces the threshold stored in the file.
        Raises a PocketRagError (MalformedEntryError names the entry) when a
        field is missing or invalid, a vector is not unit-norm, or the file's
        dimension differs from the backend's.
        """
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        try:
            if backend is None:
                backend = resolve_backend(data["backend"])
            if backend.dimension != data["dimension"]:
                raise DimensionMismatchError(
                    f"index file has dimension {data['dimension']}, "
                    f"backend {backend.name!r} produces {backend.dimension}"
                )
            index = cls(backend, data["threshold"] if threshold is None else threshold)
            entries = list(data["apps"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedEntryError(f"index file {str(path)!r}: {exc!r}") from exc
        apps, vectors = [], []
        for position, entry in enumerate(entries):
            try:
                seed = AppSeed(entry["name"], entry["package_id"], entry["description"])
                vector = EmbeddingVector(entry["embedding"])
                installed = bool(entry.get("installed", True))
                source = entry.get("source", SOURCE_PREINSTALLED)
            except (KeyError, TypeError, ValueError) as exc:
                pid = entry.get("package_id") if isinstance(entry, dict) else None
                raise MalformedEntryError(
                    f"index file {str(path)!r}, app entry {position} ({pid!r}): {exc!r}"
                ) from exc
            apps.append(_Entry(seed, installed, source))
            vectors.append(vector)
        index._insert(apps, vectors)
        return index


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
    catalog: Sequence[AppSeed | Mapping],
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
    seeds = [s if isinstance(s, AppSeed) else AppSeed.from_dict(s) for s in catalog]
    if not seeds:
        raise ValueError("catalog is empty")
    if len(seeds) < 2:
        raise ValueError("corpus generation needs >= 2 apps to sample negatives")
    if queries_per_app < 1:
        raise ValueError("queries_per_app must be >= 1")
    if not 0.0 <= none_fraction < 1.0:
        raise ValueError("none_fraction must be in [0, 1)")

    rng = random.Random(seed)
    package_ids = [s.package_id for s in seeds]
    examples: list[TrainingExample] = []

    for app in seeds:
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
    """Serialize examples as one JSON object per line."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(
                json.dumps(
                    {
                        "query": ex.query,
                        "positive": ex.positive,
                        "negatives": list(ex.negatives),
                        "is_none_case": ex.is_none_case,
                    }
                )
            )
            fh.write("\n")


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
