"""Query formulation, result bounding, dedupe, fixture and HTTP backends."""

from __future__ import annotations

import pytest

from pocketrag.errors import BackendUnavailableError
from pocketrag.web_search import (
    DEFAULT_SUMMARY_LIMIT,
    FixtureSearchBackend,
    HttpSearchBackend,
    SearchQuery,
    formulate_query,
    search,
)


def hit(n: int, url: str | None = None) -> dict:
    return {
        "title": f"Title {n}",
        "summary": f"Summary text number {n}",
        "url": url or f"https://site.example/page-{n}",
    }


class ListBackend:
    name = "list"

    def __init__(self, hits):
        self._hits = hits

    def raw_search(self, text):
        return list(self._hits)


def test_formulate_with_entities_mentions_entity():
    query = formulate_query("I want to watch Squid Game", ["Squid Game"])
    assert "Squid Game" in query.text
    assert query.unknown_entities == ("Squid Game",)


def test_formulate_without_entities_passes_through():
    query = formulate_query("  set an alarm  ", [])
    assert query.text == "set an alarm"
    assert query.unknown_entities == ()


def test_formulate_disambiguates_short_entities():
    query = formulate_query("play Ear", ["Ear"])
    assert "Ear" in query.text
    assert "play Ear" in query.text


def test_formulate_rejects_empty_instruction():
    with pytest.raises(ValueError):
        formulate_query("   ", ["x"])


def test_search_caps_and_dedupes():
    hits = [hit(i) for i in range(13)] + [hit(1), hit(2)]  # 2 duplicate urls
    context = search(ListBackend(hits), SearchQuery("q", "q"), k=10)
    assert len(context.results) == 10
    urls = [r.url for r in context.results]
    assert len(urls) == len(set(urls))


def test_search_renumbers_after_dedupe():
    hits = [hit(1), hit(2), hit(1), hit(3)]
    context = search(ListBackend(hits), SearchQuery("q", "q"), k=3)
    assert [r.title for r in context.results] == ["Title 1", "Title 2", "Title 3"]
    assert [r.rank for r in context.results] == [1, 2, 3]


def test_search_zero_hits_is_not_an_error():
    context = search(ListBackend([]), SearchQuery("q", "q"))
    assert context.results == ()
    assert context.digest == ""


def test_summary_truncated_at_word_boundary():
    long_summary = "word " * 200
    hits = [{"title": "T", "summary": long_summary.strip(), "url": "https://u.example/x"}]
    context = search(ListBackend(hits), SearchQuery("q", "q"))
    summary = context.results[0].summary
    assert len(long_summary.strip()) > DEFAULT_SUMMARY_LIMIT >= len(summary)
    assert not summary.endswith(" ")
    assert summary.split(" ")[-1] == "word"


def test_digest_contains_each_title_once():
    hits = [hit(i) for i in range(5)]
    context = search(ListBackend(hits), SearchQuery("q", "q"))
    for result in context.results:
        assert context.digest.count(result.title) == 1


def test_fixture_backend_exact_key():
    fixture = FixtureSearchBackend({"Weather Tomorrow?": [hit(1)]})
    assert fixture.raw_search("weather tomorrow") == [hit(1)]


def test_fixture_backend_keyword_fallback():
    fixture = FixtureSearchBackend(
        {
            "where to watch squid game": [hit(1)],
            "nba score today": [hit(2)],
        }
    )
    hits = fixture.raw_search("Squid Game (Download the app to watch Squid Game.)")
    assert hits == [hit(1)]
    assert fixture.raw_search("totally unrelated zebra query") == []


def test_fixture_search_idempotent():
    fixture = FixtureSearchBackend({"some query": [hit(i) for i in range(4)]})
    query = SearchQuery("some query", "some query")
    first = search(fixture, query)
    second = search(fixture, query)
    assert first == second


def test_http_backend_parses_results():
    class StubResponse:
        def raise_for_status(self):
            pass

        def json(self):
            return {"results": [{"title": "T", "snippet": "S", "link": "https://x.example"}]}

    class StubSession:
        def get(self, url, params=None, timeout=None):
            assert params["q"] == "hello"
            return StubResponse()

    backend = HttpSearchBackend("https://search.example", session=StubSession())
    hits = backend.raw_search("hello")
    assert hits == [{"title": "T", "summary": "S", "url": "https://x.example"}]


def test_http_backend_network_failure():
    class FailingSession:
        def get(self, url, params=None, timeout=None):
            raise ConnectionError("boom")

    backend = HttpSearchBackend("https://search.example", session=FailingSession())
    with pytest.raises(BackendUnavailableError):
        backend.raw_search("hello")


def test_http_backend_missing_key_env(monkeypatch):
    monkeypatch.delenv("SEARCH_KEY_TEST", raising=False)
    backend = HttpSearchBackend("https://search.example", api_key_env="SEARCH_KEY_TEST")
    with pytest.raises(BackendUnavailableError):
        backend.raw_search("hello")


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        {"results": [None]},
        {"results": 5},
        {"results": [{"title": 7, "summary": ["a"], "url": 5}]},
    ],
    ids=["array", "null-hit", "int-results", "typed-hit"],
)
def test_http_backend_malformed_response(payload):
    class StubResponse:
        def raise_for_status(self):
            pass

        def json(self):
            return payload

    class StubSession:
        def get(self, url, params=None, timeout=None):
            return StubResponse()

    backend = HttpSearchBackend("https://search.example", session=StubSession())
    with pytest.raises(BackendUnavailableError, match="search response is malformed"):
        backend.raw_search("hello")
