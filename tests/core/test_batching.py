"""Tests for single-flight request coalescing and micro-batching."""

import threading

import pytest

from repro import RichClient, build_world
from repro.core.batching import Flight, MicroBatcher, RequestCoalescer
from repro.services.base import ScriptedFailures
from repro.simnet.errors import RemoteServiceError
from repro.util.clock import RealClock

TIME_SCALE = 0.02
TEXT = "IBM announced excellent results while Initech struggled badly."


# ---------------------------------------------------------------------------
# Flight / RequestCoalescer unit behaviour
# ---------------------------------------------------------------------------

class TestFlight:
    def test_complete_reaches_every_waiter(self):
        flight = Flight("k")
        seen = []
        waiters = [threading.Thread(target=lambda: seen.append(flight.result(5)))
                   for _ in range(2)]
        for waiter in waiters:
            waiter.start()
        assert flight.complete("value") is True
        for waiter in waiters:
            waiter.join(5)
        assert seen == ["value", "value"]
        assert flight.result() == "value"

    def test_fail_shares_the_error(self):
        flight = Flight("k")
        flight.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            flight.result()

    def test_settling_twice_is_a_noop(self):
        flight = Flight("k")
        assert flight.complete("first") is True
        assert flight.complete("second") is False
        assert flight.fail(RuntimeError("late")) is False
        assert flight.result() == "first"


class TestRequestCoalescer:
    def test_leader_then_joiners(self):
        coalescer = RequestCoalescer()
        leader, flight = coalescer.lead_or_join("k")
        assert leader is True
        joined, same = coalescer.lead_or_join("k")
        assert joined is False
        assert same is flight
        assert coalescer.stats.flights == 1
        assert coalescer.stats.coalesced == 1
        assert len(coalescer) == 1

    def test_settle_removes_the_table_entry(self):
        coalescer = RequestCoalescer()
        _, flight = coalescer.lead_or_join("k")
        coalescer.complete(flight, "value")
        assert len(coalescer) == 0
        # A later identical request starts a fresh flight (no staleness).
        leader, fresh = coalescer.lead_or_join("k")
        assert leader is True
        assert fresh is not flight

    def test_cancelled_flight_leaves_the_table(self):
        # "Cancelled" has one meaning on both drivers: the leader died
        # with a non-Exception and failed its flight on the way out.
        coalescer = RequestCoalescer()
        _, flight = coalescer.lead_or_join("k")
        coalescer.lead_or_join("k")
        coalescer.fail(flight, KeyboardInterrupt())
        assert len(coalescer) == 0
        assert coalescer.stats.cancelled == 1
        with pytest.raises(KeyboardInterrupt):
            flight.result()
        _, failed = coalescer.lead_or_join("k")
        coalescer.fail(failed, RuntimeError("upstream died"))
        assert coalescer.stats.cancelled == 1  # an ordinary failure is not

    def test_count_folded_feeds_the_hit_stat(self):
        coalescer = RequestCoalescer()
        coalescer.count_folded(3)
        coalescer.count_folded(0)
        assert coalescer.stats.coalesced == 3


# ---------------------------------------------------------------------------
# Coalescing through RichClient.invoke (threaded, scaled real clock)
# ---------------------------------------------------------------------------

class TestInvokeCoalescing:
    @pytest.fixture
    def rt_world(self):
        return build_world(seed=59, corpus_size=20,
                           clock=RealClock(time_scale=TIME_SCALE))

    @pytest.fixture
    def rt_client(self, rt_world):
        client = RichClient(rt_world.registry)
        yield client
        client.close()

    def test_concurrent_identical_requests_share_one_upstream_call(
            self, rt_world, rt_client):
        callers = 6
        barrier = threading.Barrier(callers)
        results, errors = [], []

        def call():
            barrier.wait()
            try:
                results.append(
                    rt_client.invoke("lexica-prime", "analyze", {"text": TEXT}))
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        threads = [threading.Thread(target=call) for _ in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(results) == callers
        # Exactly one call crossed the wire; everyone else shared the
        # flight (or hit the cache it populated).
        assert rt_world.service("lexica-prime").stats.calls == 1
        shared = sum(1 for r in results if r.coalesced or r.cached)
        assert shared == callers - 1
        for result in results:
            if result.coalesced:
                assert result.cost == 0.0
        assert (rt_client.coalescer.stats.coalesced
                + rt_client.cache.stats.hits) == callers - 1

    def test_coalesce_false_forces_independent_calls(self, rt_world, rt_client):
        rt_client.invoke("glotta", "analyze", {"text": TEXT},
                         use_cache=False, coalesce=False)
        rt_client.invoke("glotta", "analyze", {"text": TEXT},
                         use_cache=False, coalesce=False)
        assert rt_world.service("glotta").stats.calls == 2
        assert rt_client.coalescer.stats.flights == 0


# ---------------------------------------------------------------------------
# invoke_batched / invoke_many (deterministic, manual clock)
# ---------------------------------------------------------------------------

class TestInvokeBatched:
    def test_one_wire_call_many_results(self, world, client):
        texts = [document.text for document in world.corpus.documents[:3]]
        outcomes = client.invoke_batched(
            "glotta", "analyze", [{"text": text} for text in texts])
        assert len(outcomes) == 3
        assert world.transport.stats.batch_calls == 1
        assert world.transport.stats.batched_items == 3
        for outcome in outcomes:
            assert outcome.batched
            assert outcome.service == "glotta"
            assert "entities" in outcome.value
        # Every item shares the batch's round trip.
        assert len({outcome.latency for outcome in outcomes}) == 1
        assert client.monitor.call_count("glotta") == 3

    def test_populates_the_cache_per_item(self, world, client):
        client.invoke_batched("glotta", "analyze", [{"text": TEXT}])
        repeat = client.invoke("glotta", "analyze", {"text": TEXT})
        assert repeat.cached
        assert world.service("glotta").stats.calls == 1

    def test_poisoned_item_is_isolated(self, world, client):
        world.service("glotta").failures = ScriptedFailures({1})
        texts = [document.text for document in world.corpus.documents[:3]]
        outcomes = client.invoke_batched(
            "glotta", "analyze", [{"text": text} for text in texts],
            use_cache=False)
        assert isinstance(outcomes[1], RemoteServiceError)
        assert outcomes[1].status == 500
        assert not isinstance(outcomes[0], Exception)
        assert not isinstance(outcomes[2], Exception)
        assert world.transport.stats.batch_calls == 1

    def test_empty_batch_is_free(self, world, client):
        assert client.invoke_batched("glotta", "analyze", []) == []
        assert world.transport.stats.calls == 0

    def test_unflagged_service_rejected(self, client):
        with pytest.raises(ValueError, match="batch"):
            client.invoke_batched("tickerfeed", "quote", [{"symbol": "IBM"}])

    def test_oversize_batch_rejected(self, world, client):
        limit = world.service("glotta").batch_max_size
        payloads = [{"text": f"item {index}"} for index in range(limit + 1)]
        with pytest.raises(ValueError, match="exceeds"):
            client.invoke_batched("glotta", "analyze", payloads)


class TestInvokeMany:
    def test_duplicates_fold_into_one_upstream_item(self, world, client):
        texts = [document.text for document in world.corpus.documents[:3]]
        payloads = [{"text": texts[index % 3]} for index in range(10)]
        results = client.invoke_many("glotta", "analyze", payloads)
        assert len(results) == 10
        assert world.service("glotta").stats.calls == 3
        assert world.transport.stats.batch_calls == 1
        assert client.coalescer.stats.coalesced == 7
        folded = [r for r in results if r.coalesced]
        assert len(folded) == 7
        assert all(r.cost == 0.0 for r in folded)
        # Order preserved: every result answers its own payload.
        for payload, result in zip(payloads, results):
            twin = results[texts.index(payload["text"])]
            assert result.value == twin.value

    def test_second_burst_served_from_cache(self, world, client):
        payloads = [{"text": document.text}
                    for document in world.corpus.documents[:4]]
        client.invoke_many("glotta", "analyze", payloads)
        repeat = client.invoke_many("glotta", "analyze", payloads)
        assert all(result.cached for result in repeat)
        assert world.service("glotta").stats.calls == 4

    def test_chunks_respect_the_declared_batch_limit(self, world, client):
        limit = world.service("glotta").batch_max_size
        payloads = [{"text": f"Initech memo number {index}"}
                    for index in range(limit + 3)]
        results = client.invoke_many("glotta", "analyze", payloads,
                                     use_cache=False)
        assert len(results) == limit + 3
        assert world.transport.stats.batch_calls == 2

    def test_falls_back_to_sequential_without_batch_support(
            self, world, client):
        payloads = [{"query": "IBM"}, {"query": "IBM"}, {"query": "Initech"}]
        results = client.invoke_many("goggle", "search", payloads,
                                     use_cache=False)
        assert world.transport.stats.batch_calls == 0
        assert world.service("goggle").stats.calls == 2  # one fold
        assert results[1].coalesced
        assert not isinstance(results[2], Exception)

    def test_failures_returned_in_place(self, world, client):
        world.service("goggle").failures = ScriptedFailures({0})
        results = client.invoke_many(
            "goggle", "search", [{"query": "IBM"}, {"query": "Initech"}],
            use_cache=False)
        assert isinstance(results[0], RemoteServiceError)
        assert not isinstance(results[1], Exception)


# ---------------------------------------------------------------------------
# MicroBatcher windows
# ---------------------------------------------------------------------------

class TestMicroBatcher:
    def test_full_window_flushes_on_submit(self, world, client):
        batcher = client.batcher(max_batch_size=3)
        texts = [document.text for document in world.corpus.documents[:3]]
        futures = [batcher.submit("glotta", "analyze", {"text": text})
                   for text in texts]
        assert all(future.is_done() for future in futures)
        assert world.transport.stats.batch_calls == 1
        assert batcher.stats.size_flushes == 1
        assert batcher.pending() == 0
        assert futures[0].get().batched

    def test_expired_window_flushes_with_the_next_submit(self, world, client):
        batcher = client.batcher(max_batch_size=8, max_wait=0.05)
        batcher.submit("glotta", "analyze",
                       {"text": world.corpus.documents[0].text})
        world.clock.advance(0.06)
        batcher.submit("glotta", "analyze",
                       {"text": world.corpus.documents[1].text})
        assert world.transport.stats.batch_calls == 1
        assert world.transport.stats.batched_items == 2
        assert batcher.stats.deadline_flushes == 1

    def test_flush_due_is_clock_driven(self, world, client):
        batcher = client.batcher(max_batch_size=8, max_wait=0.05)
        future = batcher.submit("glotta", "analyze", {"text": TEXT})
        assert batcher.flush_due() == 0  # window still young
        world.clock.advance(0.05)
        assert batcher.flush_due() == 1
        assert future.is_done()
        assert batcher.stats.deadline_flushes == 1

    def test_empty_flush_window_is_a_counted_noop(self, world, client):
        batcher = client.batcher(max_batch_size=4)
        assert batcher.flush_all() == 0
        assert batcher.stats.empty_flushes == 1
        assert world.transport.stats.calls == 0

    def test_poisoned_item_fails_only_its_own_future(self, world, client):
        world.service("glotta").failures = ScriptedFailures({1})
        batcher = client.batcher(max_batch_size=3)
        texts = [document.text for document in world.corpus.documents[:3]]
        futures = [batcher.submit("glotta", "analyze", {"text": text},
                                  use_cache=False)
                   for text in texts]
        assert isinstance(futures[1].exception(), RemoteServiceError)
        assert futures[0].exception() is None
        assert futures[2].exception() is None

    def test_cache_hit_bypasses_the_window(self, world, client):
        client.invoke("glotta", "analyze", {"text": TEXT})
        batcher = client.batcher(max_batch_size=4)
        future = batcher.submit("glotta", "analyze", {"text": TEXT})
        assert future.is_done()
        assert future.get().cached
        assert batcher.pending() == 0

    def test_unflagged_service_rejected(self, client):
        batcher = client.batcher()
        with pytest.raises(ValueError, match="batch"):
            batcher.submit("tickerfeed", "quote", {"symbol": "IBM"})

    def test_batcher_caps_below_the_catalog_limit(self, world, client):
        batcher = client.batcher(max_batch_size=2)
        assert batcher._limit_for("glotta") == 2
        uncapped = client.batcher()
        assert uncapped._limit_for("glotta") == world.service(
            "glotta").batch_max_size

    def test_validation(self, client):
        with pytest.raises(ValueError):
            MicroBatcher(client, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(client, max_wait=-0.1)


# ---------------------------------------------------------------------------
# Metrics wiring
# ---------------------------------------------------------------------------

class TestBatchingMetrics:
    def test_coalesce_and_batch_counters_exposed(self, world, client):
        payloads = [{"text": world.corpus.documents[index % 2].text}
                    for index in range(6)]
        client.invoke_many("glotta", "analyze", payloads)
        snapshot = client.obs.metrics.snapshot()
        assert snapshot["coalesce_hits_total"]["values"][0]["value"] == 4
        assert snapshot["batch_flushes_total"]["values"][0]["value"] == 1
        assert snapshot["batch_items_total"]["values"][0]["value"] == 2
        assert snapshot["batch_size"]["values"][0]["count"] == 1
