"""Experience memory: store successful task traces, route new queries.

A new query routes one of three ways: an exact normalized-string match
replays the stored trace verbatim with zero planner involvement; a
cosine-similar past query (score >= threshold, 0.8 by default) is handed
to the planner as guidance; anything else is a miss. Only successful
traces are ever committed.

Each record's query embedding is stored once, under its normalized query,
in the shared keyed store (``VectorRows``); records themselves carry no
vector. A non-exact lookup is one ``search`` of that store for the best
key; its score is one 1-D dot product, so routing and the reported score
do not depend on where the vector sits.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .embedding import (
    EmbedderBackend,
    EmbeddingVector,
    VectorRows,
    embed,  # unused here, but kept: perfbench's tracer wraps ``task_memory.embed``
    embed_row,
    normalize_text,
    resolve_backend,
    write_json_atomic,
)
from .errors import (
    EmptyQueryError,
    EmptyTraceError,
    MalformedEntryError,
    PocketRagError,
    TraceWithoutStopError,
)
from .simulator import ActionTrace, Device

DEFAULT_MEMORY_THRESHOLD = 0.8

MATCH_EXACT = "exact"
MATCH_SIMILAR = "similar"
MATCH_NONE = "none"

REPLAY_COMPLETED = "completed"
REPLAY_ABORTED = "aborted"

ABORT_MISSING_TARGET = "missing_target"


@dataclass(frozen=True)
class MemoryRecord:
    """One remembered success: the query and the trace.

    The query's embedding lives in the owning store's row store.
    """

    query_text: str
    normalized_query: str
    trace: ActionTrace
    created_at: float
    success_count: int = 1
    seq: int = 0  # insertion order; breaks created_at ties on eviction


@dataclass(frozen=True)
class MemoryMatch:
    """Lookup outcome: exactly one of exact / similar / none.

    ``record`` is set for exact and similar; ``score`` only for similar.
    """

    kind: str
    record: MemoryRecord | None = None
    score: float | None = None

    @property
    def is_exact(self) -> bool:
        return self.kind == MATCH_EXACT

    @property
    def is_similar(self) -> bool:
        return self.kind == MATCH_SIMILAR

    @property
    def is_none(self) -> bool:
        return self.kind == MATCH_NONE


@dataclass(frozen=True)
class ReplayOutcome:
    """Result of executing a stored trace against a device."""

    status: str
    actions_executed: int
    abort_index: int | None = None
    reason: str | None = None

    @property
    def completed(self) -> bool:
        return self.status == REPLAY_COMPLETED


class MemoryStore:
    """Keyed by normalized query; single writer, many readers.

    ``capacity`` bounds the record count; overflow evicts the oldest
    record by (created_at, insertion order).
    """

    def __init__(
        self,
        backend: EmbedderBackend,
        threshold: float = DEFAULT_MEMORY_THRESHOLD,
        capacity: int | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 when set")
        self.backend = backend
        self.threshold = float(threshold)
        self.capacity = capacity
        self._clock = clock
        self._next_seq = 0
        self.clear()

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[MemoryRecord]:
        return [self._records[key] for key in sorted(self._records)]

    def clear(self) -> None:
        self._records: dict[str, MemoryRecord] = {}
        self._rows = VectorRows(self.backend.dimension)

    def lookup(self, query: str) -> MemoryMatch:
        """Route a query: exact key match, best similar >= threshold, or none."""
        if not query.strip():
            raise EmptyQueryError("memory lookup query is empty")
        key = normalize_text(query)
        record = self._records.get(key)
        if record is not None:
            return MemoryMatch(kind=MATCH_EXACT, record=record)
        if not self._records:
            return MemoryMatch(kind=MATCH_NONE)
        ((best, score),) = self._rows.search(embed_row(self.backend, query), 1)
        if score >= self.threshold:
            return MemoryMatch(
                kind=MATCH_SIMILAR,
                record=self._records[best],
                score=min(1.0, score),
            )
        return MemoryMatch(kind=MATCH_NONE)

    def commit(self, query: str, trace: ActionTrace) -> MemoryRecord:
        """Store a successful trace under the normalized query.

        Re-committing an existing query replaces its trace and increments
        the success count. The caller asserts the run actually succeeded.
        """
        if not query.strip():
            raise EmptyQueryError("memory commit query is empty")
        if not trace.steps:
            raise EmptyTraceError("cannot commit an empty trace")
        if not trace.ends_with_stop:
            raise TraceWithoutStopError("committed traces must end with stop")
        key = normalize_text(query)
        existing = self._records.get(key)
        if existing is not None:
            record = MemoryRecord(
                query_text=existing.query_text,
                normalized_query=key,
                trace=trace,
                created_at=existing.created_at,
                success_count=existing.success_count + 1,
                seq=existing.seq,
            )
        else:
            row = embed_row(self.backend, query)
            record = MemoryRecord(
                query_text=query,
                normalized_query=key,
                trace=trace,
                created_at=float(self._clock()),
                success_count=1,
                seq=self._next_seq,
            )
            self._next_seq += 1
            self._rows.add(key, row)
        self._records[key] = record
        self._evict_overflow()
        return record

    def _evict_overflow(self) -> None:
        if self.capacity is None:
            return
        while len(self._records) > self.capacity:
            oldest = min(
                self._records.values(), key=lambda r: (r.created_at, r.seq)
            )
            del self._records[oldest.normalized_query]
            self._rows.remove(oldest.normalized_query)

    # --- persistence ---

    def to_dict(self) -> dict:
        data: dict = {
            "backend": self.backend.name,
            "dimension": self.backend.dimension,
            "threshold": self.threshold,
            "records": [
                {
                    "query": r.query_text,
                    "normalized_query": r.normalized_query,
                    "embedding": self._rows.vector(r.normalized_query).tolist(),
                    "trace": r.trace.to_jsonable(),
                    "created_at": r.created_at,
                    "success_count": r.success_count,
                    "seq": r.seq,
                }
                for r in self.records()
            ],
        }
        if self.capacity is not None:
            data["capacity"] = self.capacity
        return data

    def save(self, path: str | Path) -> None:
        """Write the memory file atomically (see ``write_json_atomic``)."""
        write_json_atomic(path, self.to_dict())

    @classmethod
    def load(
        cls,
        path: str | Path,
        backend: EmbedderBackend | None = None,
        clock: Callable[[], float] = time.time,
        threshold: float | None = None,
    ) -> "MemoryStore":
        """Load a memory file; ``threshold``, when given, replaces the stored one.

        Raises a PocketRagError (MalformedEntryError names the record) when a
        field is missing or invalid, a vector is not unit-norm, or a
        dimension differs from the backend's.
        """
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        try:
            if backend is None:
                backend = resolve_backend(data["backend"])
            if backend.dimension != data["dimension"]:
                raise PocketRagError(
                    f"memory file has dimension {data['dimension']}, "
                    f"backend {backend.name!r} produces {backend.dimension}"
                )
            if threshold is None:
                threshold = data.get("threshold", DEFAULT_MEMORY_THRESHOLD)
            store = cls(backend, threshold=threshold, capacity=data.get("capacity"), clock=clock)
            entries = list(data.get("records", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedEntryError(f"memory file {str(path)!r}: {exc!r}") from exc
        max_seq = -1
        for position, entry in enumerate(entries):
            try:
                record = MemoryRecord(
                    query_text=entry["query"],
                    normalized_query=entry["normalized_query"],
                    trace=ActionTrace.from_jsonable(entry["trace"]),
                    created_at=float(entry["created_at"]),
                    success_count=int(entry["success_count"]),
                    seq=int(entry.get("seq", 0)),
                )
                vector = EmbeddingVector(entry["embedding"])
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                query = entry.get("normalized_query") if isinstance(entry, dict) else None
                raise MalformedEntryError(
                    f"memory file {str(path)!r}, record {position} ({query!r}): {exc!r}"
                ) from exc
            if record.normalized_query in store._records:
                raise PocketRagError(
                    f"memory file repeats the query {record.normalized_query!r}"
                )
            if vector.dimension != backend.dimension:
                raise PocketRagError(
                    f"memory record {record.normalized_query!r} has dimension "
                    f"{vector.dimension}, backend produces {backend.dimension}"
                )
            store._records[record.normalized_query] = record
            store._rows.add(record.normalized_query, vector.values)
            max_seq = max(max_seq, record.seq)
        store._next_seq = max_seq + 1
        return store


def replay(record: MemoryRecord, device: Device) -> ReplayOutcome:
    """Execute a stored trace verbatim, without any planner involvement.

    Aborts at the first step whose tap/type target is missing from the
    current screen or whose execution raises; the abort index and reason
    come back in the outcome rather than as an exception.
    """
    steps = record.trace.steps
    for i, step in enumerate(steps):
        action = step.action
        if action.kind in ("tap", "type"):
            screen = device.observe()
            if action.target not in screen.element_ids():
                return ReplayOutcome(
                    status=REPLAY_ABORTED,
                    actions_executed=i,
                    abort_index=i,
                    reason=ABORT_MISSING_TARGET,
                )
        try:
            device.execute(action)
        except PocketRagError as exc:
            return ReplayOutcome(
                status=REPLAY_ABORTED,
                actions_executed=i,
                abort_index=i,
                reason=type(exc).__name__,
            )
    return ReplayOutcome(status=REPLAY_COMPLETED, actions_executed=len(steps))
