"""Simulated web search engines and the simulated web itself.

* :class:`WebService` serves the synthetic corpus as "the web": it
  fetches HTML documents by URL, which is what the Rich SDK does with
  the URLs a search returns (Figure 3).
* :class:`SearchEngineService` is a BM25 engine over a (per-engine,
  deterministic) subset of the corpus.  Engines differ in coverage,
  ranking parameters, latency and cost — like Google vs. Bing vs.
  Yahoo! — and support the paper's "restrict to news stories" option.
"""

from __future__ import annotations

import hashlib

from repro.data.corpus import SyntheticCorpus
from repro.services.base import ServiceRequest, SimulatedService
from repro.simnet.errors import RemoteServiceError
from repro.simnet.latency import LatencyDistribution
from repro.simnet.transport import Transport
from repro.textproc.tfidf import TfidfIndex


def _covered(seed: int, doc_id: str, coverage: float) -> bool:
    digest = hashlib.sha256(f"{seed}:{doc_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2**32 < coverage


class WebService(SimulatedService):
    """The simulated web: fetches a page's HTML by URL.

    Operation ``fetch`` — ``{"url": ...}`` → ``{"url", "html", "timestamp"}``.
    Unknown URLs yield a 404-style :class:`RemoteServiceError`.
    """

    def __init__(self, name: str, transport: Transport, corpus: SyntheticCorpus,
                 latency: LatencyDistribution | None = None, **service_kwargs) -> None:
        super().__init__(name, "web", transport, latency=latency, **service_kwargs)
        self.corpus = corpus

    def fetcher(self):
        """A plain ``url -> html | None`` callable for other services.

        NLU services constructed with this fetcher can implement
        ``analyze_url`` without a circular service dependency.
        """
        def fetch(url: str) -> str | None:
            document = self.corpus.by_url(url)
            return document.html if document is not None else None

        return fetch

    def _handle(self, request: ServiceRequest) -> object:
        if request.operation != "fetch":
            raise RemoteServiceError(self.name, f"unknown operation {request.operation!r}",
                                     status=400)
        url = str(request.payload.get("url", ""))
        document = self.corpus.by_url(url)
        if document is None:
            raise RemoteServiceError(self.name, f"no such page: {url!r}", status=404)
        return {"url": url, "html": document.html, "timestamp": document.timestamp}


class SearchEngineService(SimulatedService):
    """A BM25 search engine over its own crawl of the simulated web.

    Operation ``search`` — ``{"query": ..., "limit": 10, "news_only":
    false}`` → ranked results with url, title, snippet and score.

    ``coverage`` controls which fraction of the corpus this engine has
    crawled (deterministic per engine seed), so different engines
    genuinely return different result sets — the reason the Rich SDK
    lets applications aggregate over several engines.
    """

    def __init__(
        self,
        name: str,
        transport: Transport,
        corpus: SyntheticCorpus,
        coverage: float = 1.0,
        k1: float = 1.5,
        b: float = 0.75,
        seed: int = 0,
        latency: LatencyDistribution | None = None,
        **service_kwargs,
    ) -> None:
        if not 0.0 < coverage <= 1.0:
            raise ValueError(f"coverage must be in (0, 1], got {coverage}")
        super().__init__(name, "search", transport, latency=latency, **service_kwargs)
        self.corpus = corpus
        self.coverage = coverage
        self.k1 = k1
        self.b = b
        self.seed = seed
        self._index = TfidfIndex()
        self._crawled: dict[str, str] = {}  # doc_id -> url
        for doc_id, counts in corpus.term_counts().items():
            if _covered(seed, doc_id, coverage):
                self._index.add_counts(doc_id, counts)
                self._crawled[doc_id] = corpus.by_id(doc_id).url

    @property
    def crawl_size(self) -> int:
        """Number of pages in this engine's index."""
        return len(self._crawled)

    def latency_params(self, request: ServiceRequest) -> dict[str, float]:
        query = request.payload.get("query", "")
        return {"size": float(len(query)) if isinstance(query, str) else 0.0}

    def _snippet(self, doc_id: str, max_chars: int = 160) -> str:
        text = self.corpus.by_id(doc_id).text
        body = text.split("\n", 1)[-1]
        return body[:max_chars].rstrip() + ("..." if len(body) > max_chars else "")

    def _handle(self, request: ServiceRequest) -> object:
        if request.operation != "search":
            raise RemoteServiceError(self.name, f"unknown operation {request.operation!r}",
                                     status=400)
        payload = request.payload
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            raise RemoteServiceError(self.name, "search requires a non-empty 'query'",
                                     status=400)
        limit = int(payload.get("limit", 10))
        news_only = bool(payload.get("news_only", False))

        scored = self._index.bm25_scores(query, k1=self.k1, b=self.b)
        results = []
        for rank, (doc_id, score) in enumerate(scored):
            document = self.corpus.by_id(doc_id)
            if news_only and document.doc_type != "news":
                continue
            results.append(
                {
                    "rank": len(results) + 1,
                    "url": document.url,
                    "title": document.title,
                    "snippet": self._snippet(doc_id),
                    "score": round(score, 4),
                    "doc_type": document.doc_type,
                }
            )
            if len(results) >= limit:
                break
        return {
            "query": query,
            "engine": self.name,
            "news_only": news_only,
            "total_candidates": len(scored),
            "results": results,
        }
