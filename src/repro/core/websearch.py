"""The Figure-3 pipeline: web search → fetch → store → NLU → aggregate.

"We provide the ability to perform Web searches, analyze all of the
documents returned by a Web search, and aggregate the results from all
analyzed documents."  Key behaviours reproduced:

* every document is analysed **on its own** ("the APIs generally only
  support analysis of a single document at a time"): one analysis per
  document, one monitor record per document, folded into the aggregate
  in hit order;
* the analyses of one page of hits travel **batched on the wire**: one
  :meth:`~repro.core.invoker.RichClient.invoke_many` for the page,
  which serves cache hits first and ships the rest through the
  service's batch endpoint (or one request each when it has none);
* services that can analyze URLs directly are used that way; the items
  a service refuses with status 400 (it cannot fetch) are re-sent in
  one more batch as the archived, HTML-stripped text;
* fetched documents are archived locally **along with the query itself
  and the time the query was made**, because web documents disappear
  and search results drift — every hit of a page is fetched and
  archived, in hit order, before any of them is analysed;
* whole directories of stored files can be re-analyzed without
  touching the network.

The fetches stay sequential on the caller's thread.  Under a virtual
clock a concurrent fetch fan-out would save simulated seconds, not CPU,
and there is no event-loop binding of this flow yet.
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path
from urllib.parse import quote

from repro.core.aggregation import DocumentSetAggregator
from repro.core.invoker import InvocationResult, RichClient
from repro.services.nlu import ALL_FEATURES
from repro.simnet.errors import RemoteServiceError
from repro.stores.kvstore import InMemoryKeyValueStore, KeyValueStore
from repro.textproc.html import strip_html


class DocumentArchive:
    """Local store of fetched documents and the searches that found them."""

    def __init__(self, store: KeyValueStore | None = None) -> None:
        self.store = store if store is not None else InMemoryKeyValueStore()

    @staticmethod
    def _doc_key(url: str) -> str:
        return f"doc::{url}"

    @staticmethod
    def _search_key(query: str, engine: str, timestamp: float) -> str:
        return f"search::{engine}::{query}::{timestamp:.6f}"

    def store_document(self, url: str, html: str, fetched_at: float) -> None:
        """Archive one fetched page under its URL."""
        self.store.put(self._doc_key(url), {
            "url": url, "html": html, "fetched_at": fetched_at,
        })

    def get_document(self, url: str) -> dict | None:
        """The archived record for a URL, or None."""
        value = self.store.get(self._doc_key(url), default=None)
        return value if isinstance(value, dict) else None

    def has_document(self, url: str) -> bool:
        """Whether a URL has been archived."""
        return self.get_document(url) is not None

    def document_urls(self) -> list[str]:
        """Every archived document URL."""
        return [key[len("doc::"):] for key in self.store.keys("doc::")]

    def store_search(self, query: str, engine: str, timestamp: float,
                     result_urls: list[str]) -> None:
        """Record a search with its query, engine, time and result URLs.

        A repeat of a search at the same instant (a cache hit takes no
        simulated time) gets its own record under a numbered key, not
        the earlier record's.
        """
        key = base = self._search_key(query, engine, timestamp)
        repeat = 0
        while key in self.store:
            repeat += 1
            key = f"{base}#{repeat:04d}"
        self.store.put(key, {
            "query": query,
            "engine": engine,
            "timestamp": timestamp,
            "result_urls": result_urls,
        })

    def searches(self, query: str | None = None) -> list[dict]:
        """All recorded searches, optionally filtered by query text."""
        found = []
        for key in self.store.keys("search::"):
            record = self.store.get(key)
            if isinstance(record, dict) and (query is None or record["query"] == query):
                found.append(record)
        found.sort(key=lambda record: record["timestamp"])
        return found

    def export_to_directory(self, directory: str | Path) -> int:
        """Write every archived document as an .html file; returns count.

        Each file is named by its whole URL, percent-encoded, so no two
        URLs share a file and a directory re-analysis
        (:meth:`WebSearchAnalyzer.analyze_directory`) can proceed
        offline, as §2.2 describes.  Returns the number of files
        written.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        count = 0
        for url in self.document_urls():
            document = self.get_document(url)
            (target / (quote(url, safe="") + ".html")).write_text(document["html"])
            count += 1
        return count


class WebSearchAnalyzer:
    """Search engines + the web + NLU services, composed via the RichClient."""

    def __init__(
        self,
        client: RichClient,
        web_service: str = "worldwide-web",
        archive: DocumentArchive | None = None,
    ) -> None:
        self.client = client
        self.web_service = web_service
        self.archive = archive if archive is not None else DocumentArchive()

    # -- search ------------------------------------------------------------

    def search(
        self,
        query: str,
        engine: str | None = None,
        limit: int = 10,
        news_only: bool = False,
    ) -> InvocationResult:
        """Run one search (on the best-ranked engine unless named) and
        archive the query, engine, time and result URLs."""
        engine = engine or self.client.best_service("search")
        result = self.client.invoke(
            engine, "search", {"query": query, "limit": limit, "news_only": news_only}
        )
        self.archive.store_search(
            query=query,
            engine=engine,
            timestamp=self.client.clock.now(),
            result_urls=[hit["url"] for hit in result.value["results"]],
        )
        return result

    def multi_engine_search(
        self,
        query: str,
        engines: list[str] | None = None,
        limit: int = 10,
        news_only: bool = False,
    ) -> list[str]:
        """Union of several engines' results, preserving best-rank order.

        Different engines crawl different slices of the web, so the
        union sees more than any single engine — the reason the SDK
        "allows different search engines to be used".
        """
        if engines is None:
            engines = [service.name for service in
                       self.client.registry.services_of_kind("search")]
        merged: list[str] = []
        seen: set[str] = set()
        per_engine = [
            self.search(query, engine, limit=limit, news_only=news_only).value["results"]
            for engine in engines
        ]
        for rank in range(max((len(results) for results in per_engine), default=0)):
            for results in per_engine:
                if rank < len(results):
                    url = results[rank]["url"]
                    if url not in seen:
                        seen.add(url)
                        merged.append(url)
        return merged

    # -- fetch and store ------------------------------------------------------

    def fetch(self, url: str, store: bool = True) -> str:
        """Fetch a page's HTML (archive-first, then the web service)."""
        archived = self.archive.get_document(url)
        if archived is not None:
            return archived["html"]
        result = self.client.invoke(self.web_service, "fetch", {"url": url})
        html = result.value["html"]
        if store:
            self.archive.store_document(url, html, fetched_at=self.client.clock.now())
        return html

    # -- analyze ------------------------------------------------------------------

    def analyze_url(
        self,
        url: str,
        nlu_service: str,
        features: tuple[str, ...] = ALL_FEATURES,
    ) -> dict:
        """Analyze one URL with one NLU service (one request per URL).

        Prefers the service's own ``analyze_url`` (paper: "if the
        natural language understanding service has the ability to
        analyze Web documents specified by a URL, the rich SDK can pass
        the URLs"); otherwise fetches the page and sends stripped text.
        """
        try:
            result = self.client.invoke(
                nlu_service, "analyze_url", {"url": url, "features": list(features)}
            )
            return result.value
        except RemoteServiceError as error:
            if error.status != 400:
                raise
        html = self.fetch(url)
        result = self.client.invoke(
            nlu_service, "analyze", {"text": strip_html(html), "features": list(features)}
        )
        return result.value

    def analyze_search_results(
        self,
        query: str,
        engine: str | None = None,
        nlu_service: str | None = None,
        limit: int = 10,
        news_only: bool = False,
        features: tuple[str, ...] = ALL_FEATURES,
    ) -> DocumentSetAggregator:
        """The full Figure-3 flow for one query.

        Searches, fetches and archives every hit in hit order, analyzes
        every document individually — the page's analyses batched into
        one :meth:`~repro.core.invoker.RichClient.invoke_many`, by URL,
        with the items the service refuses (status 400) re-sent as
        stripped text — and aggregates the results in hit order.

        Raises the first failure in hit order: a failed fetch before
        anything is analysed, otherwise the first document whose
        analysis failed.  Every hit has been archived by then.
        """
        nlu_service = nlu_service or self.client.best_service("nlu")
        search_result = self.search(query, engine, limit=limit, news_only=news_only)
        urls = [hit["url"] for hit in search_result.value["results"]]
        pages = [self.fetch(url) for url in urls]  # archive before analysis, per the paper
        return self._analyze_all(
            nlu_service, "analyze_url", [{"url": url} for url in urls], features,
            fallback_pages=pages)

    def analyze_texts(
        self,
        texts: list[str],
        nlu_service: str | None = None,
        features: tuple[str, ...] = ALL_FEATURES,
    ) -> DocumentSetAggregator:
        """Analyze a list of local text documents and aggregate.

        One analysis per text, batched on the wire; raises the first
        failure in input order.
        """
        nlu_service = nlu_service or self.client.best_service("nlu")
        return self._analyze_all(
            nlu_service, "analyze", [{"text": text} for text in texts], features)

    def analyze_directory(
        self,
        directory: str | Path,
        nlu_service: str | None = None,
        features: tuple[str, ...] = ALL_FEATURES,
        pattern: str = "*.html",
    ) -> DocumentSetAggregator:
        """Analyze every matching file in a directory and aggregate.

        HTML files are stripped to text first; the directory typically
        holds the archived results of an earlier web search (§2.2's
        "directory contains all HTML documents identified by responses
        to a search engine query made at a certain point in time").
        """
        texts = []
        for path in sorted(Path(directory).glob(pattern)):
            content = path.read_text()
            if path.suffix.lower() in (".html", ".htm"):
                content = strip_html(content)
            texts.append(content)
        return self.analyze_texts(texts, nlu_service, features)

    def _analyze_all(
        self,
        nlu_service: str,
        operation: str,
        documents: list[Mapping[str, object]],
        features: tuple[str, ...],
        fallback_pages: list[str] | None = None,
    ) -> DocumentSetAggregator:
        """One analysis per document, batched, folded in document order.

        ``documents`` are the payloads of ``operation`` without their
        features.  With ``fallback_pages`` (each document's HTML), the
        documents the service refuses with status 400 ahead of the first
        other failure are re-sent in one ``analyze`` batch as stripped
        text.  Raises the first failed document's error, in document
        order.
        """
        requested = list(features)
        outcomes = self.client.invoke_many(
            nlu_service, operation, [{**document, "features": requested}
                                     for document in documents])
        if fallback_pages is not None:
            refused = []
            for index, outcome in enumerate(outcomes):
                if isinstance(outcome, RemoteServiceError) and outcome.status == 400:
                    refused.append(index)
                elif isinstance(outcome, Exception):
                    break
            retried = self.client.invoke_many(
                nlu_service, "analyze",
                [{"text": strip_html(fallback_pages[index]), "features": requested}
                 for index in refused]) if refused else []
            for index, outcome in zip(refused, retried):
                outcomes[index] = outcome
        aggregator = DocumentSetAggregator()
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
            aggregator.add_analysis(outcome.value)
        return aggregator
