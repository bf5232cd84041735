"""External knowledge retrieval: query formulation, search, bounded digest.

The agent hands over unfamiliar entities; this module formulates a search
query, fetches raw hits from a pluggable backend, and condenses them into
at most ten deduplicated results rendered as a prompt-friendly digest.
The fixture backend makes benchmark runs hermetic and deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence, runtime_checkable

from .embedding import normalize_text, tokenize
from .errors import BackendUnavailableError, check_types, malformed

DEFAULT_RESULT_CAP = 10
DEFAULT_SUMMARY_LIMIT = 400

# the type of each field of a raw hit, from a scenario's fixtures or an HTTP response
HIT_FIELD_TYPES = {"title": str, "summary": str, "url": str}


def check_hits(hits: list) -> list[Mapping[str, str]]:
    """A copy of ``hits``; raises TypeError unless it is an array of objects,
    and ValueError for a hit field of the wrong type (``HIT_FIELD_TYPES``)."""
    if not isinstance(hits, list):
        raise TypeError(f"search hits {hits!r} are not an array")
    for hit in hits:
        if not isinstance(hit, Mapping):
            raise TypeError(f"search hit {hit!r} is not an object")
        check_types(hit, HIT_FIELD_TYPES)
    return list(hits)


@dataclass(frozen=True)
class SearchQuery:
    """What gets sent to the search backend, plus its provenance."""

    text: str
    origin_instruction: str
    unknown_entities: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("search query text is empty")


@dataclass(frozen=True)
class SearchResult:
    rank: int
    title: str
    summary: str
    url: str


@dataclass(frozen=True)
class KnowledgeContext:
    """Bounded, deduplicated search results plus their digest rendering."""

    query: SearchQuery
    results: tuple[SearchResult, ...]
    digest: str


@runtime_checkable
class SearchBackend(Protocol):
    """Returns raw hits as dicts with ``title``, ``summary`` and ``url``, each
    a string where it is set (``HIT_FIELD_TYPES``)."""

    name: str

    def raw_search(self, text: str) -> Sequence[Mapping[str, str]]:
        ...


def formulate_query(instruction: str, unknown_entities: Sequence[str]) -> SearchQuery:
    """Build the query text from the unfamiliar entities plus instruction context.

    With no entities the trimmed instruction passes through unchanged;
    otherwise the entities lead and the instruction follows in parentheses
    for disambiguation.
    """
    trimmed = instruction.strip()
    if not trimmed:
        raise ValueError("instruction is empty")
    entities = tuple(e.strip() for e in unknown_entities if e.strip())
    if not entities:
        return SearchQuery(text=trimmed, origin_instruction=trimmed)
    text = f"{' '.join(entities)} ({trimmed})"
    return SearchQuery(text=text, origin_instruction=trimmed, unknown_entities=entities)


def _truncate_summary(summary: str) -> str:
    if len(summary) <= DEFAULT_SUMMARY_LIMIT:
        return summary
    cut = summary[:DEFAULT_SUMMARY_LIMIT]
    if " " in cut:
        cut = cut[: cut.rfind(" ")]
    return cut.rstrip()


def render_digest(results: Sequence[SearchResult]) -> str:
    """Numbered "rank. title - summary" lines, one per result."""
    return "\n".join(f"{r.rank}. {r.title} - {r.summary}" for r in results)


def search(
    backend: SearchBackend,
    query: SearchQuery,
    k: int = DEFAULT_RESULT_CAP,
) -> KnowledgeContext:
    """Fetch, dedupe by url, truncate summaries, cap at ``k``, renumber ranks.

    Zero hits is not an error: the context simply carries no results and
    an empty digest.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    raw_hits = backend.raw_search(query.text)
    results: list[SearchResult] = []
    seen_urls: set[str] = set()
    for hit in raw_hits:
        url = hit.get("url", "").strip()
        if not url or url in seen_urls:
            continue
        seen_urls.add(url)
        title, summary = hit.get("title", "").strip(), hit.get("summary", "").strip()
        results.append(SearchResult(len(results) + 1, title, _truncate_summary(summary), url))
        if len(results) >= k:
            break
    bounded = tuple(results)
    return KnowledgeContext(query=query, results=bounded, digest=render_digest(bounded))


class FixtureSearchBackend:
    """Canned responses keyed by normalized query text.

    Unknown queries fall back to the fixture key with the largest token
    overlap (ties break on the lexicographically smallest key); zero
    overlap yields zero hits. Read-only after construction.
    """

    name = "fixture"

    def __init__(self, fixtures: Mapping[str, Sequence[Mapping[str, str]]]) -> None:
        self._fixtures: dict[str, list[dict[str, str]]] = {
            normalize_text(key): [dict(hit) for hit in hits]
            for key, hits in fixtures.items()
        }

    def raw_search(self, text: str) -> list[dict[str, str]]:
        key = normalize_text(text)
        if key in self._fixtures:
            return list(self._fixtures[key])
        query_tokens = set(tokenize(text))
        best_key = None
        best_overlap = 0
        for candidate in sorted(self._fixtures):
            overlap = len(query_tokens & set(tokenize(candidate)))
            if overlap > best_overlap:
                best_key, best_overlap = candidate, overlap
        if best_key is None:
            return []
        return list(self._fixtures[best_key])


class HttpSearchBackend:
    """Generic web-search JSON API client.

    Configured with an endpoint URL, the name of the environment variable
    holding the API key, and a timeout in milliseconds. Expects a JSON
    response shaped ``{"results": [{"title", "summary", "url"}, ...]}``
    (``snippet`` and ``link`` stand in for a missing summary and url); any
    other shape, or a field that is not a string, raises
    BackendUnavailableError.
    """

    name = "http"

    def __init__(
        self,
        endpoint: str,
        api_key_env: str | None = None,
        timeout_ms: int = 10_000,
        session=None,
    ) -> None:
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self.timeout_ms = timeout_ms
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def raw_search(self, text: str) -> list[dict[str, str]]:
        params = {"q": text}
        if self.api_key_env:
            key = os.environ.get(self.api_key_env)
            if not key:
                raise BackendUnavailableError(
                    f"environment variable {self.api_key_env!r} is not set"
                )
            params["key"] = key
        try:
            response = self._session.get(
                self.endpoint, params=params, timeout=self.timeout_ms / 1000.0
            )
            response.raise_for_status()
            payload = response.json()
        except BackendUnavailableError:
            raise
        except Exception as exc:
            raise BackendUnavailableError(f"search request failed: {exc}") from exc
        with malformed(BackendUnavailableError, "search response"):
            hits = [
                {
                    "title": hit.get("title", ""),
                    "summary": hit.get("summary", hit.get("snippet", "")),
                    "url": hit.get("url", hit.get("link", "")),
                }
                for hit in payload.get("results", [])
            ]
            return check_hits(hits)
