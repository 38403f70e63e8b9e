"""Tests for single-flight coalescing awaited on an event loop: the one
``Flight`` type, waited on with ``aresult``."""

import asyncio

import pytest

from repro.core.batching import Flight, RequestCoalescer


class TestAsyncFlight:
    def test_complete_settles_once(self):
        async def scenario():
            flight = Flight("k")
            assert flight.complete("first")
            assert not flight.complete("second")
            assert not flight.fail(ValueError("late"))
            return await flight.aresult()

        assert asyncio.run(scenario()) == "first"

    def test_timeout_bounds_the_wait_without_killing_the_flight(self):
        async def scenario():
            flight = Flight("k")
            with pytest.raises(asyncio.TimeoutError):
                await flight.aresult(timeout=0.01)
            flight.complete("still alive")
            return await flight.aresult()

        assert asyncio.run(scenario()) == "still alive"


class TestAsyncCoalescer:
    def test_leader_then_followers_share_one_outcome(self):
        async def scenario():
            coalescer = RequestCoalescer()
            leader, flight = coalescer.lead_or_join("k")
            assert leader
            follower, joined = coalescer.lead_or_join("k")
            assert not follower
            assert joined is flight

            async def follow():
                return await joined.aresult()

            waiters = [asyncio.ensure_future(follow()) for _ in range(3)]
            await asyncio.sleep(0)
            coalescer.complete(flight, {"answer": 42})
            results = await asyncio.gather(*waiters)
            assert results == [{"answer": 42}] * 3
            assert coalescer.stats.flights == 1
            assert coalescer.stats.coalesced == 1
            assert len(coalescer) == 0

        asyncio.run(scenario())

    def test_settlement_clears_the_table_for_fresh_flights(self):
        async def scenario():
            coalescer = RequestCoalescer()
            _, first = coalescer.lead_or_join("k")
            coalescer.complete(first, 1)
            leader, second = coalescer.lead_or_join("k")
            assert leader
            assert second is not first

        asyncio.run(scenario())

    def test_failed_leader_shares_the_error(self):
        async def scenario():
            coalescer = RequestCoalescer()
            _, flight = coalescer.lead_or_join("k")

            follower = asyncio.ensure_future(flight.aresult())
            await asyncio.sleep(0)
            coalescer.fail(flight, RuntimeError("upstream died"))
            with pytest.raises(RuntimeError, match="upstream died"):
                await follower

        asyncio.run(scenario())

    def test_cancelled_leader_counts_as_cancelled_flight(self):
        async def scenario():
            coalescer = RequestCoalescer()
            _, flight = coalescer.lead_or_join("k")
            coalescer.fail(flight, asyncio.CancelledError())
            assert coalescer.stats.cancelled == 1
            assert len(coalescer) == 0
            flight.future.exception()  # retrieve, silencing the loop

        asyncio.run(scenario())

    def test_cancelled_follower_detaches_without_killing_the_flight(self):
        async def scenario():
            coalescer = RequestCoalescer()
            _, flight = coalescer.lead_or_join("k")

            follower = asyncio.ensure_future(flight.aresult())
            survivor = asyncio.ensure_future(flight.aresult())
            await asyncio.sleep(0)
            follower.cancel()
            await asyncio.gather(follower, return_exceptions=True)
            coalescer.complete(flight, "shared")
            assert await survivor == "shared"

        asyncio.run(scenario())
