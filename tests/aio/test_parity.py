"""Sync/async parity: both cores must be observably identical.

Each test builds two worlds from the same seed — one served by the
thread-pool core (``client.invoke*``), one by the event-loop core
(``await client.aio.ainvoke*``) — and asserts results, error types,
monitor records and stats match field-for-field.  Both run the same
coroutine bodies (:mod:`repro.core.aio.invoker`); what these tests pin
is the two *drivers* — the blocking binding under ``run_sync`` and the
loop-native binding under asyncio.
"""

import asyncio

import pytest

from repro import RichClient, build_world
from repro.core.aio import LoopRunner
from repro.core.quota import BudgetExceededError
from repro.services.base import ScriptedFailures
from repro.simnet.errors import RemoteServiceError, ServiceTimeoutError
from repro.util.deadline import Deadline, DeadlineExceededError

TEXT = "IBM announced excellent results while Initech struggled badly."
OTHER = "Globex thrives while Vandelay Industries imports nothing."


@pytest.fixture
def pair():
    """Two identical worlds: (sync world, sync client, async world, async client)."""
    sync_world = build_world(seed=42, corpus_size=30)
    async_world = build_world(seed=42, corpus_size=30)
    sync_client = RichClient(sync_world.registry)
    async_client = RichClient(async_world.registry)
    yield sync_world, sync_client, async_world, async_client
    sync_client.close()
    async_client.close()


def arun(coro):
    return asyncio.run(coro)


class TestResultParity:
    def test_invoke_results_are_byte_identical(self, pair):
        _, sync_client, _, async_client = pair
        sync_result = sync_client.invoke("lexica-prime", "analyze",
                                         {"text": TEXT})
        async_result = arun(async_client.aio.ainvoke(
            "lexica-prime", "analyze", {"text": TEXT}))
        assert async_result.value == sync_result.value
        assert async_result.latency == sync_result.latency
        assert async_result.cost == sync_result.cost
        assert async_result.service == sync_result.service

    def test_cache_hits_match(self, pair):
        _, sync_client, _, async_client = pair
        sync_client.invoke("lexica-prime", "analyze", {"text": TEXT})
        async_first = arun(async_client.aio.ainvoke(
            "lexica-prime", "analyze", {"text": TEXT}))
        sync_hit = sync_client.invoke("lexica-prime", "analyze", {"text": TEXT})
        async_hit = arun(async_client.aio.ainvoke(
            "lexica-prime", "analyze", {"text": TEXT}))
        assert not async_first.cached
        assert sync_hit.cached and async_hit.cached
        assert async_hit.latency == sync_hit.latency == 0.0
        assert async_hit.value == sync_hit.value

    def test_monitor_records_match(self, pair):
        _, sync_client, _, async_client = pair
        for text in (TEXT, OTHER):
            sync_client.invoke("lexica-prime", "analyze", {"text": text},
                               use_cache=False)
            arun(async_client.aio.ainvoke(
                "lexica-prime", "analyze", {"text": text}, use_cache=False))
        assert (async_client.monitor.call_count("lexica-prime")
                == sync_client.monitor.call_count("lexica-prime") == 2)
        assert (async_client.monitor.latencies("lexica-prime")
                == sync_client.monitor.latencies("lexica-prime"))
        assert (async_client.monitor.availability("lexica-prime")
                == sync_client.monitor.availability("lexica-prime") == 1.0)


class TestErrorParity:
    def test_remote_failures_raise_the_same_type(self, pair):
        sync_world, sync_client, async_world, async_client = pair
        sync_world.service("glotta").failures = ScriptedFailures({0})
        async_world.service("glotta").failures = ScriptedFailures({0})
        with pytest.raises(RemoteServiceError) as sync_error:
            sync_client.invoke("glotta", "analyze", {"text": TEXT},
                               use_cache=False)
        with pytest.raises(RemoteServiceError) as async_error:
            arun(async_client.aio.ainvoke("glotta", "analyze", {"text": TEXT},
                                          use_cache=False))
        assert str(async_error.value) == str(sync_error.value)
        assert (async_client.monitor.failure_count("glotta")
                == sync_client.monitor.failure_count("glotta") == 1)

    def test_timeouts_raise_the_same_type(self, pair):
        _, sync_client, _, async_client = pair
        with pytest.raises(ServiceTimeoutError):
            sync_client.invoke("lexica-prime", "analyze", {"text": TEXT},
                               timeout=1e-6, use_cache=False)
        with pytest.raises(ServiceTimeoutError):
            arun(async_client.aio.ainvoke(
                "lexica-prime", "analyze", {"text": TEXT},
                timeout=1e-6, use_cache=False))

    def test_budget_exhaustion_raises_the_same_type(self, pair):
        _, sync_client, _, async_client = pair
        sync_client.quota.set_budget("lexica-prime", max_calls=1)
        async_client.quota.set_budget("lexica-prime", max_calls=1)
        sync_client.invoke("lexica-prime", "analyze", {"text": TEXT},
                           use_cache=False)
        arun(async_client.aio.ainvoke("lexica-prime", "analyze",
                                      {"text": TEXT}, use_cache=False))
        with pytest.raises(BudgetExceededError):
            sync_client.invoke("lexica-prime", "analyze", {"text": OTHER},
                               use_cache=False)
        with pytest.raises(BudgetExceededError):
            arun(async_client.aio.ainvoke("lexica-prime", "analyze",
                                          {"text": OTHER}, use_cache=False))

    def test_spent_deadlines_raise_the_same_type(self, pair):
        sync_world, sync_client, async_world, async_client = pair
        sync_deadline = Deadline.after(sync_world.clock, 0.0)
        async_deadline = Deadline.after(async_world.clock, 0.0)
        sync_world.clock.advance(0.1)
        async_world.clock.advance(0.1)
        with pytest.raises(DeadlineExceededError):
            sync_client.invoke("lexica-prime", "analyze", {"text": TEXT},
                               use_cache=False, deadline=sync_deadline)
        with pytest.raises(DeadlineExceededError):
            arun(async_client.aio.ainvoke(
                "lexica-prime", "analyze", {"text": TEXT},
                use_cache=False, deadline=async_deadline))


class TestCompositeParity:
    def test_failover_walks_the_same_ranking(self, pair):
        sync_world, sync_client, async_world, async_client = pair
        sync_world.service("glotta").failures = ScriptedFailures({0, 1, 2, 3})
        async_world.service("glotta").failures = ScriptedFailures({0, 1, 2, 3})
        sync_result = sync_client.invoke_with_failover(
            "nlu", "analyze", {"text": TEXT}, use_cache=False)
        async_result = arun(async_client.aio.ainvoke_with_failover(
            "nlu", "analyze", {"text": TEXT}, use_cache=False))
        assert async_result.service == sync_result.service
        assert async_result.value == sync_result.value
        assert len(async_result.attempts) == len(sync_result.attempts)
        assert [(a.service, a.error is None) for a in async_result.attempts] \
            == [(a.service, a.error is None) for a in sync_result.attempts]

    def test_invoke_batched_outcomes_match(self, pair):
        _, sync_client, _, async_client = pair
        payloads = [{"text": TEXT}, {"text": OTHER}]
        sync_outcomes = sync_client.invoke_batched("glotta", "analyze",
                                                   payloads)
        async_outcomes = arun(async_client.aio.ainvoke_batched(
            "glotta", "analyze", payloads))
        assert len(async_outcomes) == len(sync_outcomes) == 2
        for sync_out, async_out in zip(sync_outcomes, async_outcomes):
            assert async_out.value == sync_out.value
            assert async_out.latency == sync_out.latency
            assert async_out.batched and sync_out.batched

    def test_invoke_many_dedup_and_results_match(self, pair):
        _, sync_client, _, async_client = pair
        payloads = [{"text": TEXT}, {"text": OTHER}, {"text": TEXT}]
        sync_results = sync_client.invoke_many("glotta", "analyze", payloads)
        async_results = arun(async_client.aio.ainvoke_many(
            "glotta", "analyze", payloads))
        assert len(async_results) == len(sync_results) == 3
        for sync_out, async_out in zip(sync_results, async_results):
            assert async_out.value == sync_out.value
        assert async_results[2].coalesced and sync_results[2].coalesced
        assert (async_client.aio.coalescer.stats.coalesced
                == sync_client.coalescer.stats.coalesced == 1)

    def test_invoke_all_fans_out_identically(self, pair):
        _, sync_client, _, async_client = pair
        calls = [("lexica-prime", "analyze", {"text": TEXT}),
                 ("glotta", "analyze", {"text": OTHER})]
        sync_results = sync_client.invoke_all(calls, use_cache=False)
        async_results = arun(async_client.aio.ainvoke_all(
            calls, use_cache=False))
        assert [r.value for r in async_results] \
            == [r.value for r in sync_results]
        assert [r.service for r in async_results] \
            == [r.service for r in sync_results]


class TestFacadeParity:
    """Blocking callers served by the loop: ``LoopRunner`` + ``client.aio``.

    The runner's own tests use bare coroutines; these pin the
    composition the docs recommend for loop-served blocking calls —
    the client's coroutines crossing the runner with results, error
    types and futures unchanged.
    """

    @pytest.fixture
    def runner(self):
        runner = LoopRunner()
        yield runner
        runner.shutdown()

    def test_invoke_through_the_shim_matches_the_thread_core(self, pair, runner):
        _, thread_client, _, loop_client = pair
        thread_result = thread_client.invoke("lexica-prime", "analyze",
                                             {"text": TEXT})
        loop_result = runner.run(loop_client.aio.ainvoke(
            "lexica-prime", "analyze", {"text": TEXT}))
        assert loop_result.value == thread_result.value
        assert loop_result.latency == thread_result.latency
        assert loop_result.cost == thread_result.cost
        assert runner.run(loop_client.aio.ainvoke(
            "lexica-prime", "analyze", {"text": TEXT})).cached

    def test_invoke_async_through_the_shim_returns_a_listenable(self, pair, runner):
        _, _, _, client = pair
        future = runner.submit_listenable(client.aio.ainvoke(
            "lexica-prime", "analyze", {"text": TEXT}))
        result = future.get(timeout=10)
        assert result.service == "lexica-prime"
        assert result.value["entities"]

    def test_error_types_cross_the_shim_unchanged(self, pair, runner):
        _, _, world, client = pair
        world.service("glotta").failures = ScriptedFailures({0})
        with pytest.raises(RemoteServiceError):
            runner.run(client.aio.ainvoke(
                "glotta", "analyze", {"text": TEXT}, use_cache=False))
        with pytest.raises(ServiceTimeoutError):
            runner.run(client.aio.ainvoke(
                "lexica-prime", "analyze", {"text": TEXT},
                timeout=1e-6, use_cache=False))

    def test_invoke_batched_through_the_shim(self, pair, runner):
        _, _, _, client = pair
        outcomes = runner.run(client.aio.ainvoke_batched(
            "glotta", "analyze", [{"text": TEXT}, {"text": OTHER}]))
        assert len(outcomes) == 2
        assert all(outcome.batched for outcome in outcomes)
