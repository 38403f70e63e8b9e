"""Tests for the RichClient facade."""

import asyncio
import threading
import time

import pytest

from repro import build_world
from repro.core.invoker import RichClient
from repro.core.quota import BudgetExceededError
from repro.core.ranking import Weights
from repro.core.retry import AllServicesFailedError, FailoverInvoker, RetryPolicy
from repro.services.base import ScriptedFailures
from repro.simnet.errors import RemoteServiceError, ServiceTimeoutError
from repro.util.clock import RealClock
from repro.util.errors import SerializationError

TEXT = "IBM announced excellent results while Initech struggled badly."


class TestInvoke:
    def test_returns_invocation_result(self, client):
        result = client.invoke("lexica-prime", "analyze", {"text": TEXT})
        assert result.service == "lexica-prime"
        assert result.latency > 0
        assert result.cost > 0
        assert not result.cached
        assert any(e["id"] == "C_ibm" for e in result.value["entities"])

    def test_monitor_records_success(self, client):
        client.invoke("lexica-prime", "analyze", {"text": TEXT})
        assert client.monitor.call_count("lexica-prime") == 1
        assert client.monitor.availability("lexica-prime") == 1.0

    def test_monitor_records_failure(self, world, client):
        world.service("glotta").failures = ScriptedFailures({0})
        with pytest.raises(RemoteServiceError):
            client.invoke("glotta", "analyze", {"text": TEXT}, use_cache=False)
        assert client.monitor.availability("glotta") == 0.0
        assert client.monitor.failure_count("glotta") == 1

    def test_latency_params_recorded(self, client):
        client.invoke("lexica-prime", "analyze", {"text": TEXT})
        observations = client.monitor.latency_observations("lexica-prime", "size")
        assert observations[0][0] == float(len(TEXT))

    def test_quality_rater_feeds_monitor(self, client):
        client.invoke("lexica-prime", "analyze", {"text": TEXT},
                      quality_rater=lambda value: len(value["entities"]) / 10)
        assert client.monitor.mean_quality("lexica-prime") == pytest.approx(0.2)

    def test_timeout_propagates(self, client):
        with pytest.raises(ServiceTimeoutError):
            client.invoke("lexica-prime", "analyze", {"text": TEXT},
                          timeout=1e-6, use_cache=False)

    def test_unknown_service(self, client):
        from repro.util.errors import NotFoundError

        with pytest.raises(NotFoundError):
            client.invoke("ghost", "op", {})


def cyclic_payload():
    payload = {"text": TEXT, "loop": []}
    payload["loop"].append(payload)
    return payload


def too_deep_payload():
    nested = []
    for _ in range(5_000):
        nested = [nested]
    return {"text": TEXT, "deep": nested}


ENTRY_POINTS = {
    "invoke": lambda client, payload, use_cache: client.invoke(
        "lexica-prime", "analyze", payload, use_cache=use_cache),
    "ainvoke": lambda client, payload, use_cache: asyncio.run(
        client.aio.ainvoke("lexica-prime", "analyze", payload,
                           use_cache=use_cache)),
    "invoke_many": lambda client, payload, use_cache: client.invoke_many(
        "lexica-prime", "analyze", [payload], use_cache=use_cache),
}


class TestUnserializablePayload:
    """A payload that cannot cross the wire raises SerializationError from
    every entry point, whether the cache key or the wire refuses it."""

    @pytest.mark.parametrize("use_cache", [True, False], ids=["cache", "no-cache"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("make", [
        cyclic_payload, too_deep_payload, lambda: {"text": TEXT, "tags": {1, 2}},
    ], ids=["cycle", "deep", "set"])
    def test_one_error_type(self, client, make, entry, use_cache):
        with pytest.raises(SerializationError):
            ENTRY_POINTS[entry](client, make(), use_cache)
        assert not any(record.success
                       for record in client.monitor.records("lexica-prime"))


class TestCachingBehaviour:
    def test_second_call_served_from_cache(self, client):
        first = client.invoke("lexica-prime", "analyze", {"text": TEXT})
        second = client.invoke("lexica-prime", "analyze", {"text": TEXT})
        assert not first.cached
        assert second.cached
        assert second.latency == 0.0
        assert second.cost == 0.0
        assert second.value == first.value

    def test_cache_hits_do_not_consume_quota(self, client):
        client.quota.set_budget("lexica-prime", max_calls=1)
        client.invoke("lexica-prime", "analyze", {"text": TEXT})
        # Same request again: served locally, no budget violation.
        result = client.invoke("lexica-prime", "analyze", {"text": TEXT})
        assert result.cached

    def test_cache_bypass(self, client):
        client.invoke("lexica-prime", "analyze", {"text": TEXT})
        result = client.invoke("lexica-prime", "analyze", {"text": TEXT},
                               use_cache=False)
        assert not result.cached

    def test_mutations_never_cached(self, client):
        first = client.invoke("store-standard", "put", {"key": "k", "value": 1})
        second = client.invoke("store-standard", "put", {"key": "k", "value": 1})
        assert not first.cached and not second.cached

    def test_mutation_invalidates_service_reads(self, client):
        client.invoke("store-standard", "put", {"key": "k", "value": 1})
        read_one = client.invoke("store-standard", "get", {"key": "k"})
        assert read_one.value["value"] == 1
        client.invoke("store-standard", "put", {"key": "k", "value": 2})
        read_two = client.invoke("store-standard", "get", {"key": "k"})
        assert not read_two.cached
        assert read_two.value["value"] == 2

    def test_cache_hit_not_recorded_as_service_call(self, client):
        client.invoke("lexica-prime", "analyze", {"text": TEXT})
        client.invoke("lexica-prime", "analyze", {"text": TEXT})
        assert client.monitor.call_count("lexica-prime") == 1



def spy_on_record(monitor, monkeypatch):
    """The records ``monitor.record`` is handed from here on."""
    seen, record = [], monitor.record

    def spy(entry):
        seen.append(entry)
        record(entry)

    monkeypatch.setattr(monitor, "record", spy)
    return seen


class TestHitsAreCounted:
    """A hit or a stale serve never reached the service: the monitor
    counts it and ``record`` is not called for it."""

    @pytest.mark.parametrize("driver", ["blocking", "loop"])
    def test_a_cache_hit_is_a_count(self, client, monkeypatch, driver):
        seen = spy_on_record(client.monitor, monkeypatch)
        for _ in range(3):
            if driver == "blocking":
                result = client.invoke("lexica-prime", "analyze", {"text": TEXT})
            else:
                result = asyncio.run(client.aio.ainvoke(
                    "lexica-prime", "analyze", {"text": TEXT}))
        assert result.cached
        assert [record.success for record in seen] == [True]
        assert client.monitor.hit_count("lexica-prime") == 2
        counter = client.obs.metrics.counter("sdk_invocations_total")
        assert counter.value(service="lexica-prime", outcome="cached") == 2
        assert counter.value(service="lexica-prime", outcome="success") == 1

    def test_a_stale_serve_is_a_count(self, world, monkeypatch):
        from repro.core.caching import ServiceCache
        from repro.simnet.connectivity import ManualConnectivity

        cache = ServiceCache(capacity=8, ttl=10.0, clock=world.clock,
                             stale_grace=100.0)
        client = RichClient(world.registry, cache=cache)
        seen = spy_on_record(client.monitor, monkeypatch)
        client.invoke("lexica-prime", "analyze", {"text": TEXT})
        world.clock.advance(20.0)
        connectivity = ManualConnectivity()
        world.transport.connectivity = connectivity
        connectivity.go_offline()
        stale = client.invoke("lexica-prime", "analyze", {"text": TEXT})
        connectivity.go_online()
        client.close()
        assert stale.degraded and stale.cached
        # The remote success, then the failed attempt the stale value
        # answered for; nothing for the stale serve itself.
        assert [record.success for record in seen] == [True, False]
        assert client.monitor.hit_count("lexica-prime") == 1

class TestBudget:
    def test_budget_blocks_remote_calls(self, client):
        client.quota.set_budget("glotta", max_calls=1)
        client.invoke("glotta", "analyze", {"text": TEXT}, use_cache=False)
        with pytest.raises(BudgetExceededError):
            client.invoke("glotta", "analyze", {"text": "other text"},
                          use_cache=False)


class TestAsync:
    def test_invoke_async_returns_future(self, client):
        future = client.invoke_async("lexica-prime", "analyze", {"text": TEXT})
        result = future.get(timeout=10)
        assert result.service == "lexica-prime"

    def test_callback_fires(self, client):
        import threading

        done = threading.Event()
        future = client.invoke_async("lexica-prime", "analyze", {"text": TEXT})
        future.add_listener(lambda _completed: done.set())
        assert done.wait(timeout=10)

    def test_eight_async_calls_cost_their_maximum(self):
        """Concurrent ``invoke_async`` calls overlap on the client's one
        loop, in every repetition: the clock moves by the slowest call."""
        for _ in range(25):
            world = build_world(seed=17, corpus_size=40)
            client = RichClient(world.registry)
            start = client.clock.now()
            futures = [client.invoke_async("lexica-prime", "analyze",
                                           {"text": document.text})
                       for document in world.corpus.documents[:8]]
            latencies = [future.get(timeout=10).latency for future in futures]
            elapsed = client.clock.now() - start
            client.close()
            assert elapsed == pytest.approx(max(latencies), abs=1e-12)
            assert elapsed == pytest.approx(0.2794, abs=1e-4)
            assert sum(latencies) > 4 * elapsed

    def test_a_burst_adds_one_thread_and_close_joins_it(self, world):
        before = threading.active_count()
        client = RichClient(world.registry)
        assert threading.active_count() == before  # construction starts none
        futures = [client.invoke_async("glotta", "analyze",
                                       {"text": f"{TEXT} {index}"})
                   for index in range(40)]
        assert threading.active_count() == before + 1
        assert all(future.get(timeout=10).service == "glotta"
                   for future in futures)
        client.close()
        assert threading.active_count() == before

    def test_close_lets_unwatched_calls_finish(self, world, client):
        future = client.invoke_async("store-bulk", "put",
                                     {"key": "report", "value": "x"})
        client.close()
        assert future.get(timeout=0).value["stored"] == "report"

    def test_a_listener_may_invoke_but_not_wait_on_its_own_loop(self, client):
        seen = {}

        def listener(_completed):
            seen["invoke"] = client.invoke("glotta", "analyze", {"text": TEXT})
            for name, call in (
                    ("invoke_all", lambda: client.invoke_all(
                        [("glotta", "analyze", {"text": TEXT})])),
                    ("get", lambda: client.invoke_async(
                        "glotta", "analyze", {"text": "other"}).get(timeout=30))):
                try:
                    call()
                except RuntimeError as error:
                    seen[name] = error

        future = client.invoke_async("lexica-prime", "analyze", {"text": TEXT})
        future.add_listener(listener)
        wall = time.perf_counter()
        future.get(timeout=10)
        assert time.perf_counter() - wall < 5  # failed fast, did not hang
        assert seen["invoke"].service == "glotta"
        assert isinstance(seen["invoke_all"], RuntimeError)
        assert isinstance(seen["get"], RuntimeError)
        assert future.listener_errors == []

    def test_real_clock_calls_overlap_on_a_plain_loop(self):
        world = build_world(seed=42, corpus_size=10, clock=RealClock())
        client = RichClient(world.registry)
        fired = threading.Event()
        wall = time.perf_counter()
        futures = [client.invoke_async("store-standard", "put",
                                       {"key": f"k{index}", "value": "x"})
                   for index in range(4)]
        futures[-1].add_listener(lambda _completed: fired.set())
        latencies = [future.get(timeout=10).latency for future in futures]
        elapsed = time.perf_counter() - wall
        client.close()
        assert fired.is_set()
        assert elapsed < 0.9 * sum(latencies)

    def test_invoke_all_preserves_order_and_captures_errors(self, world, client):
        world.service("glotta").failures = ScriptedFailures({0})
        results = client.invoke_all([
            ("lexica-prime", "analyze", {"text": TEXT}),
            ("glotta", "analyze", {"text": TEXT}),
        ], use_cache=False)
        assert results[0].service == "lexica-prime"
        assert isinstance(results[1], RemoteServiceError)


class TestFailover:
    def test_failover_to_healthy_service(self, world, client):
        ranked = [name for name, _ in client.rank_services("nlu")]
        world.service(ranked[0]).failures = ScriptedFailures(set(range(10)))
        result = client.invoke_with_failover("nlu", "analyze", {"text": TEXT},
                                             use_cache=False)
        assert result.service != ranked[0]
        assert any(log.error for log in result.attempts)

    def test_all_down_raises(self, world, client):
        for service in world.services_of_kind("nlu"):
            service.failures = ScriptedFailures(set(range(100)))
        with pytest.raises(AllServicesFailedError):
            client.invoke_with_failover("nlu", "analyze", {"text": TEXT},
                                        use_cache=False)

    def test_unknown_kind_rejected(self, client):
        with pytest.raises(ValueError):
            client.invoke_with_failover("teleportation", "op", {})

    def test_failover_respects_per_service_policy(self, world, client):
        for service in world.services_of_kind("nlu"):
            service.failures = ScriptedFailures(set(range(100)))
        client.failover = FailoverInvoker(
            default_policy=RetryPolicy(max_attempts=1), clock=client.clock)
        with pytest.raises(AllServicesFailedError) as excinfo:
            client.invoke_with_failover("nlu", "analyze", {"text": TEXT},
                                        use_cache=False)
        assert len(excinfo.value.attempts) == 3  # one per provider


class TestRedundantInvocation:
    def test_all_providers_answer(self, client):
        results = client.invoke_redundant(
            ["lexica-prime", "glotta", "wordsmith-lite"], "analyze",
            {"text": TEXT}, use_cache=False)
        assert set(results) == {"lexica-prime", "glotta", "wordsmith-lite"}
        assert all(not isinstance(value, Exception) for value in results.values())

    def test_failures_captured_per_service(self, world, client):
        world.service("glotta").failures = ScriptedFailures({0})
        results = client.invoke_redundant(
            ["lexica-prime", "glotta"], "analyze", {"text": TEXT},
            parallel=False, use_cache=False)
        assert isinstance(results["glotta"], RemoteServiceError)
        assert not isinstance(results["lexica-prime"], Exception)

    def test_sequential_mode(self, client):
        results = client.invoke_redundant(
            ["lexica-prime", "glotta"], "analyze", {"text": TEXT},
            parallel=False, use_cache=False)
        assert len(results) == 2


class TestRankingIntegration:
    def test_rank_services_uses_collected_history(self, client):
        for provider in ("lexica-prime", "glotta", "wordsmith-lite"):
            for _ in range(3):
                client.invoke(provider, "analyze", {"text": TEXT}, use_cache=False)
        ranked = client.rank_services(
            "nlu", weights=Weights(response_time=1, cost=0, quality=0))
        assert ranked[0][0] == "wordsmith-lite"  # fastest provider
        assert client.best_service(
            "nlu", weights=Weights(response_time=1, cost=0, quality=0)
        ) == "wordsmith-lite"

    def test_service_summaries(self, client):
        client.invoke("lexica-prime", "analyze", {"text": TEXT})
        summaries = client.service_summaries()
        assert any(summary["service"] == "lexica-prime" for summary in summaries)
