"""Fan-out on the world's loop: concurrency saves simulated seconds.

A :class:`~repro.util.clock.ManualClock` world runs its loop-served
calls on a :class:`~repro.util.clock.VirtualLoop`, so waits that
overlap cost their maximum, not their sum — through
``client.aio.ainvoke_all`` and through the blocking ``invoke_all``,
which runs that same body on a loop of its own.
"""

import asyncio
import sys
import threading
import time

import pytest

from repro import RichClient, build_world
from repro.core.admission import AdmissionController, AdmissionLimit
from repro.util.clock import run

TEXT = "IBM announced excellent results while Initech struggled badly."


def fetches(world, count=6):
    return [("worldwide-web", "fetch", {"url": document.url})
            for document in world.corpus.documents[:count]]


@pytest.fixture
def world():
    return build_world(seed=7, corpus_size=40)


class TestGatheredFetchesCostTheirMaximum:
    def test_one_after_another_they_cost_the_sum(self, world):
        client = RichClient(world.registry)
        results = [client.invoke(*call) for call in fetches(world)]
        assert world.clock.now() == pytest.approx(
            sum(result.latency for result in results))
        assert world.clock.now() == pytest.approx(0.3514, abs=1e-4)

    def test_through_ainvoke_all_on_the_virtual_loop(self, world):
        client = RichClient(world.registry)
        results = run(client.aio.ainvoke_all(fetches(world)), world.clock)
        assert world.clock.now() == max(result.latency for result in results)
        assert world.clock.now() == pytest.approx(0.0621, abs=1e-4)

    def test_through_the_blocking_invoke_all(self, world):
        client = RichClient(world.registry)
        results = client.invoke_all(fetches(world))
        assert world.clock.now() == max(result.latency for result in results)
        assert world.clock.now() == pytest.approx(0.0621, abs=1e-4)

    def test_parallel_invoke_redundant_costs_the_slowest_provider(self, world):
        client = RichClient(world.registry)
        providers = ["glotta", "lexica-prime", "wordsmith-lite"]
        outcomes = client.invoke_redundant(providers, "analyze",
                                           {"text": TEXT}, use_cache=False)
        assert list(outcomes) == providers
        assert world.clock.now() == max(
            result.latency for result in outcomes.values())

    def test_a_blocking_fan_out_inside_a_running_loop_raises(self, world):
        client = RichClient(world.registry)

        async def misuse():
            with pytest.raises(RuntimeError, match="running event loop"):
                client.invoke_all(fetches(world, 2))

        asyncio.run(misuse())
        assert world.clock.now() == 0.0


class TestTwoThreadsFanningOutOnOneClient:
    def test_both_get_their_results_through_one_shared_flight(self, world):
        # Each thread's invoke_all runs its own loop; they share the
        # client's async coalescer and bulkheads.  The wire call of the
        # shared request is held open until the other thread has joined
        # its flight, so the follower really waits on a flight led from
        # another loop (and both take permits from one bulkhead).
        client = RichClient(world.registry, admission=AdmissionController(
            world.clock, default_limit=AdmissionLimit(max_concurrent=4)))
        service = world.service("lexica-prime")
        original = service.ainvoke

        def until_joined():
            give_up = time.monotonic() + 5
            while (client.aio.coalescer.stats.coalesced < 1
                   and time.monotonic() < give_up):
                time.sleep(0.001)

        async def held_open(operation, payload, timeout=None):
            await asyncio.get_running_loop().run_in_executor(
                None, until_joined)
            return await original(operation, payload, timeout=timeout)

        service.ainvoke = held_open
        request = ("lexica-prime", "analyze", {"text": TEXT})
        barrier = threading.Barrier(2)
        outcomes, errors = [], []

        def fan_out():
            barrier.wait()
            try:
                outcomes.append(client.invoke_all([request]))
            except Exception as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        threads = [threading.Thread(target=fan_out) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        results = [result for (result,) in outcomes]
        assert len(results) == 2
        assert not any(isinstance(result, Exception) for result in results)
        assert results[0].value == results[1].value
        assert sorted(result.coalesced for result in results) == [False, True]
        assert service.stats.calls == 1
        assert client.aio.coalescer.stats.coalesced == 1
        bulkhead = client.aio.admission.bulkhead_for("lexica-prime")
        assert bulkhead.inflight == 0
        assert bulkhead.stats.admitted == 1

    def test_many_threads_fanning_out_leak_no_flight_or_permit(self, world):
        # More threads than cores, switching often, each fanning out the
        # same fresh cacheable requests round after round on one client,
        # so their flights race across loops: every leg gets an answer,
        # and no flight or permit is left behind.
        client = RichClient(world.registry, admission=AdmissionController(
            world.clock, default_limit=AdmissionLimit(max_concurrent=8)))
        calls = [("lexica-prime", "analyze", {"text": f"{TEXT} {index}"})
                 for index in range(3)]
        outcomes, errors = [], []

        def fan_out():
            try:
                for round_ in range(5):
                    outcomes.extend(client.invoke_all(
                        [(service, operation, {"text": f"{round_} {payload['text']}"})
                         for service, operation, payload in calls]))
            except Exception as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=fan_out) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(outcomes) == 4 * 5 * len(calls)
        assert not any(isinstance(outcome, Exception) for outcome in outcomes)
        assert len(client.aio.coalescer) == 0
        assert client.aio.admission.bulkhead_for("lexica-prime").inflight == 0
