"""The batched Figure-3 flow against the per-hit loop it replaced.

``reference_websearch.py`` keeps the old flow verbatim: fetch, analyze
by URL, and on a 400 analyze the stripped text, one hit at a time.  The
batched flow fetches and archives every hit first, then analyzes the
page in one ``invoke_many`` (plus one more for the items refused by
URL).  On twin worlds the two must aggregate the same answers, archive
the same pages and searches, and leave the same per-service call counts
in the monitor.  Only simulated time differs (a batch waits for its
slowest item, not the sum), so archive timestamps are not compared.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RichClient, build_world
from repro.core.websearch import WebSearchAnalyzer
from repro.simnet.errors import RemoteServiceError
from tests.core.reference_websearch import reference_analyze_search_results

PROVIDERS = ("lexica-prime", "glotta", "wordsmith-lite")
ENGINES = ("goggle", "bung", "yahu")
WORDS = ["excellent", "results", "thrives", "announced", "growth", "scandal", "market",
         "stock", "patients", "software", "terrible", "IBM", "Initech", "US", "China",
         "New York", "quarterly", "launch", "zzyzx"]


def _twin():
    world = build_world(seed=42, corpus_size=40)
    return world, WebSearchAnalyzer(RichClient(world.registry))


@pytest.fixture
def twins():
    """(world, analyzer) for the per-hit loop, then for the batched flow."""
    pair = [_twin(), _twin()]
    yield pair
    for _, analyzer in pair:
        analyzer.client.close()


def _answers(aggregator):
    return {
        "documents": aggregator.documents_analyzed,
        "report": aggregator.entity_sentiment_report(),
        "keywords": aggregator.top_keywords(limit=1000),
        "concepts": aggregator.concept_profile(),
        "mean_sentiment": aggregator.mean_document_sentiment(),
    }


def _archive(analyzer):
    archive = analyzer.archive
    return {
        "documents": [(url, archive.get_document(url)["html"])
                      for url in archive.document_urls()],
        "searches": [(record["query"], record["engine"], record["result_urls"])
                     for record in archive.searches()],
    }


def _calls(world, analyzer):
    monitor = analyzer.client.monitor
    return {service.name: (monitor.call_count(service.name),
                           monitor.hit_count(service.name))
            for service in world.registry}


_step = st.tuples(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
    st.integers(1, 10),
    st.sampled_from(PROVIDERS),
    st.sampled_from(ENGINES),
    st.booleans(),
)


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=3))
def test_batched_flow_matches_the_per_hit_loop(steps):
    (old_world, old), (new_world, new) = _twin(), _twin()
    try:
        for query, limit, provider, engine, news_only in steps:
            expected = reference_analyze_search_results(
                old, query, engine=engine, nlu_service=provider, limit=limit,
                news_only=news_only)
            actual = new.analyze_search_results(
                query, engine=engine, nlu_service=provider, limit=limit, news_only=news_only)
            assert _answers(actual) == _answers(expected)
            assert _archive(new) == _archive(old)
            assert _calls(new_world, new) == _calls(old_world, old)
    finally:
        old.client.close()
        new.client.close()


def test_a_page_rides_on_fewer_round_trips(twins):
    (old_world, old), (new_world, new) = twins
    for provider in PROVIDERS:
        reference_analyze_search_results(old, "excellent results announced",
                                         engine="goggle", nlu_service=provider, limit=8)
        new.analyze_search_results("excellent results announced", engine="goggle",
                                   nlu_service=provider, limit=8)
    assert _calls(new_world, new) == _calls(old_world, old)
    assert new_world.transport.stats.calls < old_world.transport.stats.calls
    assert new_world.clock.now() < old_world.clock.now()


def _fail_nth(service, operation, failing, status):
    """Make the ``failing`` (0-based) requests of ``operation`` fail."""
    seen = []
    handle = service._handle

    def failing_handle(request):
        if request.operation == operation:
            seen.append(request.payload)
            if len(seen) - 1 in failing:
                raise RemoteServiceError(
                    service.name, f"request {len(seen) - 1} {dict(request.payload)!r}",
                    status=status)
        return handle(request)

    service._handle = failing_handle


def _raised(run):
    with pytest.raises(RemoteServiceError) as caught:
        run()
    return type(caught.value), str(caught.value), caught.value.status


def test_a_failed_fetch_mid_page_raises_the_same_error_and_archive(twins):
    (old_world, old), (new_world, new) = twins
    for world in (old_world, new_world):
        _fail_nth(world.service("worldwide-web"), "fetch", {2}, status=404)
    query = dict(engine="goggle", nlu_service="lexica-prime", limit=6)
    error = _raised(lambda: new.analyze_search_results("excellent results announced", **query))
    assert error[2] == 404
    assert _raised(lambda: reference_analyze_search_results(
        old, "excellent results announced", **query)) == error
    assert _archive(new) == _archive(old)
    assert len(new.archive.document_urls()) == 2
    # The batched flow fails before it analyzes anything.
    assert new.client.monitor.call_count("lexica-prime") == 0


@pytest.mark.parametrize("provider", ["lexica-prime", "wordsmith-lite"])
def test_an_analysis_failure_raises_in_hit_order(twins, provider):
    (old_world, old), (new_world, new) = twins
    for world in (old_world, new_world):
        _fail_nth(world.service(provider), "analyze_url", {2, 4}, status=500)
    query = dict(engine="goggle", nlu_service=provider, limit=6)
    error = _raised(lambda: new.analyze_search_results("excellent results announced", **query))
    assert error[2] == 500 and "request 2 " in error[1]
    assert _raised(lambda: reference_analyze_search_results(
        old, "excellent results announced", **query)) == error
    # Every hit was archived before the page was analyzed; the per-hit
    # loop stopped archiving at the failed hit.
    hits = new.archive.searches()[0]["result_urls"]
    assert len(hits) == 6
    assert sorted(new.archive.document_urls()) == sorted(hits)
    assert sorted(old.archive.document_urls()) == sorted(hits[:3])
    # Refused items after the first failure are not re-sent as text, so
    # the NLU service saw what the per-hit loop sent it, plus the later
    # pages' URL requests that rode in the same batch.
    sent = new.client.monitor.call_count(provider)
    assert sent == old.client.monitor.call_count(provider) + 3
