"""Tests for the simulated web and search engines."""

import copy

import pytest

from repro.data.corpus import CorpusDocument, SyntheticCorpus, generate_corpus
from repro.services.search import SearchEngineService, WebService
from repro.simnet.errors import RemoteServiceError


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(size=40, seed=5)


@pytest.fixture
def web(transport, corpus):
    return WebService("web", transport, corpus)


@pytest.fixture
def engine(transport, corpus):
    return SearchEngineService("engine", transport, corpus, coverage=1.0)


class TestWebService:
    def test_fetch_known_url(self, web, corpus):
        doc = corpus.documents[0]
        response = web.invoke("fetch", {"url": doc.url})
        assert response.value["html"] == doc.html
        assert response.value["timestamp"] == doc.timestamp

    def test_fetch_unknown_url_404(self, web):
        with pytest.raises(RemoteServiceError) as excinfo:
            web.invoke("fetch", {"url": "http://missing.example/x"})
        assert excinfo.value.status == 404

    def test_fetcher_callable(self, web, corpus):
        fetch = web.fetcher()
        doc = corpus.documents[1]
        assert fetch(doc.url) == doc.html
        assert fetch("http://missing/") is None

    def test_unknown_operation(self, web):
        with pytest.raises(RemoteServiceError):
            web.invoke("crawl", {})


class TestSearchEngine:
    def test_full_coverage_indexes_everything(self, engine, corpus):
        assert engine.crawl_size == len(corpus)

    def test_search_returns_ranked_results(self, engine, corpus):
        doc = corpus.documents[0]
        response = engine.invoke("search", {"query": doc.title, "limit": 5})
        results = response.value["results"]
        assert results
        assert [r["rank"] for r in results] == list(range(1, len(results) + 1))
        scores = [r["score"] for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_result_fields(self, engine, corpus):
        doc = corpus.documents[0]
        response = engine.invoke("search", {"query": doc.title, "limit": 3})
        hit = response.value["results"][0]
        assert set(hit) >= {"rank", "url", "title", "snippet", "score", "doc_type"}
        assert hit["snippet"]

    def test_limit_respected(self, engine):
        response = engine.invoke("search", {"query": "thrives results", "limit": 2})
        assert len(response.value["results"]) <= 2

    def test_news_only_filter(self, engine):
        response = engine.invoke(
            "search", {"query": "thrives results announced", "limit": 50,
                       "news_only": True}
        )
        assert response.value["results"]
        assert all(hit["doc_type"] == "news" for hit in response.value["results"])

    def test_empty_query_rejected(self, engine):
        with pytest.raises(RemoteServiceError):
            engine.invoke("search", {"query": "  "})

    def test_no_results_for_gibberish(self, engine):
        response = engine.invoke("search", {"query": "zzzqqqxxx"})
        assert response.value["results"] == []

    def test_coverage_shrinks_crawl(self, transport, corpus):
        partial = SearchEngineService("partial", transport, corpus,
                                      coverage=0.5, seed=3)
        assert 0 < partial.crawl_size < len(corpus)

    def test_coverage_deterministic_per_seed(self, transport, corpus):
        first = SearchEngineService("e1", transport, corpus, coverage=0.5, seed=3)
        second = SearchEngineService("e2", transport, corpus, coverage=0.5, seed=3)
        assert first._crawled.keys() == second._crawled.keys()

    def test_engines_with_different_seeds_crawl_differently(self, transport, corpus):
        first = SearchEngineService("e1", transport, corpus, coverage=0.6, seed=1)
        second = SearchEngineService("e2", transport, corpus, coverage=0.6, seed=2)
        assert first._crawled.keys() != second._crawled.keys()

    def test_coverage_validated(self, transport, corpus):
        with pytest.raises(ValueError):
            SearchEngineService("bad", transport, corpus, coverage=0.0)

    def test_results_only_from_own_crawl(self, transport, corpus):
        partial = SearchEngineService("partial", transport, corpus,
                                      coverage=0.3, seed=3)
        crawled_urls = set(partial._crawled.values())
        response = partial.invoke("search", {"query": "thrives results announced",
                                             "limit": 50})
        assert all(hit["url"] in crawled_urls for hit in response.value["results"])


def _page(number, title, body):
    return CorpusDocument(
        doc_id=f"page-{number}", url=f"http://pages.test/{number}", title=title,
        html=f"<h1>{title}</h1><p>{body}</p>", text=title + "\n" + body,
        doc_type="news", domain="pages.test", timestamp=float(number))


def _search(engine, query):
    results = engine.invoke("search", {"query": query, "limit": 50}).value["results"]
    return [(hit["url"], hit["score"]) for hit in results]


class TestOneTermPassPerCorpus:
    """Engines over one corpus read one term table and must not feel each other."""

    QUERIES = ("thrives results announced", "terrible scandal", "under pressure")

    @pytest.fixture
    def engines(self, transport):
        corpus = generate_corpus(size=40, seed=5)
        return corpus, [
            SearchEngineService(f"engine-{seed}", transport, corpus,
                                coverage=coverage, k1=k1, b=b, seed=seed)
            for seed, coverage, k1, b in ((1, 1.0, 1.5, 0.75), (2, 0.9, 1.2, 0.6),
                                          (3, 0.9, 2.0, 0.8))]

    def test_engines_hold_the_corpus_counter_not_a_copy(self, engines):
        corpus, (first, second, third) = engines
        shared = first._crawled.keys() & second._crawled.keys() & third._crawled.keys()
        assert shared
        for doc_id in shared:
            counts = corpus.term_counts()[doc_id]
            assert all(engine._index._doc_terms[doc_id] is counts
                       for engine in (first, second, third))

    def test_editing_one_index_leaves_the_other_engines_unchanged(self, engines):
        corpus, (edited, *others) = engines
        table_before = copy.deepcopy(corpus.term_counts())
        states_before = [copy.deepcopy(vars(engine._index)) for engine in others]
        answers_before = [[_search(engine, query) for query in self.QUERIES]
                          for engine in others]
        edited_before = [_search(edited, query) for query in self.QUERIES]

        victim, dropped = list(edited._crawled)[:2]
        edited._index.add_document(victim, "zeppelin zeppelin thrives results announced")
        edited._index.remove_document(dropped)
        edited._index.add_document("page-new", "terrible scandal under pressure")
        edited._index.remove_document("page-new")

        assert [_search(edited, query) for query in self.QUERIES] != edited_before
        assert corpus.term_counts() == table_before
        assert [vars(engine._index) for engine in others] == states_before
        assert [[_search(engine, query) for query in self.QUERIES]
                for engine in others] == answers_before

    def test_engine_over_a_hand_made_corpus(self, transport):
        corpus = SyntheticCorpus([
            _page(1, "Quokka thrives", "The quokka population is growing."),
            _page(2, "Harbour report", "Shipping volumes were flat."),
        ])
        engine = SearchEngineService("hand-made", transport, corpus)
        assert engine.crawl_size == 2
        hits = engine.invoke("search", {"query": "quokkas"}).value["results"]
        assert [hit["url"] for hit in hits] == ["http://pages.test/1"]

    def test_quirk_title_is_indexed_twice_because_text_repeats_it(self, transport):
        """A page is indexed as ``title + "\\n" + text`` and a generated
        ``text`` already starts with the title, so every title term counts
        double.  Every ranking and benchmark digest is built on that; it
        is pinned here so a change to it is made on purpose, alone."""
        generated = generate_corpus(size=1, seed=5).documents[0]
        assert generated.text.startswith(generated.title + "\n")
        corpus = SyntheticCorpus([_page(1, "Quokka thrives", "Nothing else is said.")])
        engine = SearchEngineService("quirk", transport, corpus)
        assert engine._index._doc_terms["page-1"]["quokka"] == 2
        # The spell-check dictionary reads ``text`` alone: once.
        assert corpus.word_counts()["quokka"] == 1
