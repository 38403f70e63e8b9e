"""Tests for the hedger over a separately built ``AsyncInvoker``, driven
from inside a running event loop — the world's virtual loop
(``tests/core/test_hedging.py`` covers the hedger over ``client.aio``
and from blocking callers)."""

import asyncio

import pytest

from repro import RichClient, build_world
from repro.core.aio.invoker import AsyncInvoker
from repro.core.hedging import HedgedInvoker
from repro.core.ranking import Weights
from repro.util.clock import run

TEXT = "Globex thrives while Initech struggles."


@pytest.fixture
def rt_client():
    world = build_world(seed=59, corpus_size=20)
    client = RichClient(world.registry)
    yield client
    client.close()


class TestDeadlines:
    def test_default_deadline_without_history(self, rt_client):
        hedger = HedgedInvoker(AsyncInvoker(rt_client), default_deadline=0.42)
        assert hedger.deadline_for("lexica-prime") == 0.42

    def test_percentile_validated(self, rt_client):
        with pytest.raises(ValueError):
            HedgedInvoker(AsyncInvoker(rt_client), deadline_percentile=1.0)


class TestHedgedInvocation:
    def test_fast_primary_never_hedges(self, rt_client):
        async def scenario():
            hedger = HedgedInvoker(
                AsyncInvoker(rt_client),
                weights=Weights(response_time=1, cost=0, quality=0))
            hedger.deadline_for = lambda service: 10.0
            return hedger, await hedger.ainvoke(
                "nlu", "analyze", {"text": TEXT}, use_cache=False)

        hedger, result = run(scenario(), rt_client.clock)
        assert result.value["sentiment"]
        assert hedger.stats.hedges_fired == 0
        assert hedger.stats.primary_wins == 1

    def test_slow_primary_fires_a_hedge_and_cancels_the_loser(self, rt_client):
        async def scenario():
            invoker = AsyncInvoker(rt_client)
            hedger = HedgedInvoker(invoker)
            hedger.deadline_for = lambda service: 0.0
            original = invoker.ainvoke
            cancelled = set()

            async def instrumented(service, operation, payload=None, **kwargs):
                try:
                    if service == "lexica-prime":
                        await asyncio.sleep(0.5)
                    return await original(service, operation, payload, **kwargs)
                except asyncio.CancelledError:
                    cancelled.add(service)
                    raise

            invoker.ainvoke = instrumented
            result = await hedger.ainvoke(
                "nlu", "analyze", {"text": TEXT}, use_cache=False,
                candidates=["lexica-prime", "glotta"])
            # The hedger awaits the loser's cleanup before it returns.
            return hedger, result, set(cancelled)

        hedger, result, cancelled = run(scenario(), rt_client.clock)
        assert result.service == "glotta"
        assert hedger.stats.hedges_fired == 1
        assert hedger.stats.hedge_wins == 1
        assert cancelled == {"lexica-prime"}
