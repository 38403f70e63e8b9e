"""Test-only oracle: the Figure-3 flow as a plain per-hit loop.

``reference_analyze_search_results`` is ``analyze_search_results`` as
it was before the page's analyses were batched, with the
``analyze_url`` it called, verbatim: for each hit in turn, fetch and
archive it, offer it to the NLU service by URL, and on a 400 send the
stripped archived text instead — one blocking ``invoke`` per request.
``test_websearch_differential.py`` runs it on a twin world beside the
batched flow.  Nothing under ``src/`` imports this module.
"""

from repro.core.aggregation import DocumentSetAggregator
from repro.services.nlu import ALL_FEATURES
from repro.simnet.errors import RemoteServiceError
from repro.textproc.html import strip_html


def reference_analyze_url(analyzer, url, nlu_service, features=ALL_FEATURES):
    try:
        result = analyzer.client.invoke(
            nlu_service, "analyze_url", {"url": url, "features": list(features)}
        )
        return result.value
    except RemoteServiceError as error:
        if error.status != 400:
            raise
    html = analyzer.fetch(url)
    result = analyzer.client.invoke(
        nlu_service, "analyze", {"text": strip_html(html), "features": list(features)}
    )
    return result.value


def reference_analyze_search_results(analyzer, query, engine=None, nlu_service=None,
                                     limit=10, news_only=False, features=ALL_FEATURES):
    nlu_service = nlu_service or analyzer.client.best_service("nlu")
    search_result = analyzer.search(query, engine, limit=limit, news_only=news_only)
    aggregator = DocumentSetAggregator()
    for hit in search_result.value["results"]:
        analyzer.fetch(hit["url"])  # archive before analysis, per the paper
        analysis = reference_analyze_url(analyzer, hit["url"], nlu_service, features)
        aggregator.add_analysis(analysis)
    return aggregator
