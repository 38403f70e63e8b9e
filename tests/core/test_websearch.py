"""Tests for the web-search → fetch → store → analyze pipeline."""

import pytest

from repro.core.websearch import DocumentArchive, WebSearchAnalyzer


@pytest.fixture
def analyzer(client):
    return WebSearchAnalyzer(client)


class TestDocumentArchive:
    def test_store_and_get_document(self):
        archive = DocumentArchive()
        archive.store_document("http://x/1", "<html>one</html>", fetched_at=5.0)
        document = archive.get_document("http://x/1")
        assert document["html"] == "<html>one</html>"
        assert document["fetched_at"] == 5.0
        assert archive.has_document("http://x/1")
        assert not archive.has_document("http://x/2")

    def test_document_urls(self):
        archive = DocumentArchive()
        archive.store_document("http://x/b", "b", 0.0)
        archive.store_document("http://x/a", "a", 0.0)
        assert set(archive.document_urls()) == {"http://x/a", "http://x/b"}

    def test_searches_record_query_and_time(self):
        """'store all of the documents from a particular Web search along
        with the query itself and the time the query was made'."""
        archive = DocumentArchive()
        archive.store_search("q1", "engine", 10.0, ["http://x/1"])
        archive.store_search("q1", "engine", 20.0, ["http://x/2"])
        archive.store_search("q2", "engine", 15.0, [])
        searches = archive.searches("q1")
        assert [record["timestamp"] for record in searches] == [10.0, 20.0]
        assert searches[0]["result_urls"] == ["http://x/1"]
        assert len(archive.searches()) == 3

    def test_a_repeat_search_at_the_same_instant_keeps_both_records(self):
        archive = DocumentArchive()
        archive.store_search("q1", "engine", 10.0, ["http://x/1"])
        archive.store_search("q1", "engine", 10.0, ["http://x/2"])
        archive.store_search("q1", "engine", 10.0, ["http://x/3"])
        assert [record["result_urls"] for record in archive.searches("q1")] == [
            ["http://x/1"], ["http://x/2"], ["http://x/3"]]

    def test_export_to_directory(self, tmp_path):
        archive = DocumentArchive()
        archive.store_document("http://x/a", "<html>a</html>", 0.0)
        count = archive.export_to_directory(tmp_path / "dump")
        assert count == 1
        files = list((tmp_path / "dump").glob("*.html"))
        assert len(files) == 1
        assert files[0].read_text() == "<html>a</html>"

    def test_export_keeps_urls_that_differ_only_in_separators(self, tmp_path, client):
        """``http://x/a_b`` and ``http://x/a/b`` once both became
        ``http_x_a_b.html``: the count said 2, one file survived."""
        archive = DocumentArchive()
        archive.store_document("http://x/a_b", "<p>IBM thrived with excellent results.</p>", 0.0)
        archive.store_document("http://x/a/b", "<p>Initech collapsed in a scandal.</p>", 0.0)
        assert archive.export_to_directory(tmp_path / "dump") == 2
        assert len(list((tmp_path / "dump").glob("*.html"))) == 2
        aggregator = WebSearchAnalyzer(client, archive=archive).analyze_directory(
            tmp_path / "dump", nlu_service="lexica-prime")
        assert aggregator.documents_analyzed == 2
        assert {"C_ibm", "C_initech"} <= {agg.entity_id for agg in aggregator.top_entities()}


class TestSearch:
    def test_search_archives_query(self, analyzer):
        result = analyzer.search("excellent results", engine="goggle", limit=5)
        assert result.value["results"]
        searches = analyzer.archive.searches("excellent results")
        assert len(searches) == 1
        assert searches[0]["engine"] == "goggle"

    def test_search_uses_best_engine_by_default(self, analyzer):
        result = analyzer.search("excellent results")
        assert result.service in ("goggle", "bung", "yahu")

    def test_multi_engine_union_covers_more(self, analyzer, world):
        query = "thrives announced results"
        single = analyzer.search(query, engine="yahu", limit=10).value["results"]
        merged = analyzer.multi_engine_search(query, limit=10)
        assert len(merged) >= len(single)
        assert len(merged) == len(set(merged))  # deduplicated

    def test_news_only_flows_through(self, analyzer, world):
        result = analyzer.search("thrives announced results", engine="goggle",
                                 limit=20, news_only=True)
        assert all(hit["doc_type"] == "news" for hit in result.value["results"])


class TestFetch:
    def test_fetch_stores_in_archive(self, analyzer, world):
        url = world.corpus.documents[0].url
        html = analyzer.fetch(url)
        assert html == world.corpus.documents[0].html
        assert analyzer.archive.has_document(url)

    def test_refetch_served_from_archive(self, analyzer, world, client):
        url = world.corpus.documents[0].url
        analyzer.fetch(url)
        web_calls_before = client.monitor.call_count("worldwide-web")
        analyzer.fetch(url)
        assert client.monitor.call_count("worldwide-web") == web_calls_before


class TestAnalyze:
    def test_analyze_url_prefers_service_side_fetch(self, analyzer, world):
        url = world.corpus.documents[0].url
        analysis = analyzer.analyze_url(url, "lexica-prime")
        assert analysis.get("retrieved_url") == url

    def test_analyze_url_falls_back_to_local_fetch(self, analyzer, world):
        """wordsmith-lite cannot fetch URLs; the SDK fetches and strips."""
        url = world.corpus.documents[0].url
        analysis = analyzer.analyze_url(url, "wordsmith-lite")
        assert "retrieved_url" not in analysis
        assert "entities" in analysis
        assert analyzer.archive.has_document(url)

    def test_analyze_search_results_aggregates(self, analyzer, world):
        aggregator = analyzer.analyze_search_results(
            "excellent results announced", limit=5, nlu_service="lexica-prime")
        assert aggregator.documents_analyzed == len(
            analyzer.archive.searches()[0]["result_urls"])
        assert aggregator.top_entities()

    def test_analyze_texts(self, analyzer):
        aggregator = analyzer.analyze_texts(
            ["IBM thrived with excellent results.",
             "Initech collapsed after a terrible scandal."],
            nlu_service="lexica-prime")
        assert aggregator.documents_analyzed == 2
        ids = {agg.entity_id for agg in aggregator.top_entities()}
        assert {"C_ibm", "C_initech"} <= ids

    def test_analyze_directory_offline(self, analyzer, world, tmp_path, client):
        # Archive a couple of pages, export, then re-analyze from disk.
        urls = [doc.url for doc in world.corpus.documents[:3]]
        for url in urls:
            analyzer.fetch(url)
        analyzer.archive.export_to_directory(tmp_path / "dump")
        aggregator = analyzer.analyze_directory(tmp_path / "dump",
                                                nlu_service="lexica-prime")
        assert aggregator.documents_analyzed == 3
