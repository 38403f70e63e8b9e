"""Tests for hedged requests (tail-latency mitigation) as cancellable tasks.

The worlds run on a virtual clock and the hedger on its virtual loop, so
every race below is decided in simulated seconds, deterministically.
"""

import asyncio

import pytest

from repro import RichClient, build_world
from repro.core.admission import AdmissionController, AdmissionLimit
from repro.core.hedging import HedgedInvoker
from repro.core.ranking import Weights
from repro.services.base import ScriptedFailures
from repro.simnet.latency import ConstantLatency
from repro.util.clock import run

TEXT = "Globex thrives while Initech struggles."
LATENCY_ONLY = Weights(response_time=1, cost=0, quality=0)


@pytest.fixture
def rt_world():
    return build_world(seed=59, corpus_size=20)


@pytest.fixture
def rt_client(rt_world):
    client = RichClient(rt_world.registry)
    yield client
    client.close()


def warm(client, world, calls=8):
    text = world.corpus.documents[0].text
    for provider in ("lexica-prime", "glotta", "wordsmith-lite"):
        for _ in range(calls):
            client.invoke(provider, "analyze", {"text": text}, use_cache=False)


def delayed(invoker, slow, cancelled):
    """Patch ``invoker.ainvoke``: calls to a service in ``slow`` first
    sleep 0.5 seconds; a cancelled call adds its service to
    ``cancelled``."""
    original = invoker.ainvoke

    async def instrumented(service, operation, payload=None, **kwargs):
        try:
            if service in slow:
                await asyncio.sleep(0.5)
            return await original(service, operation, payload, **kwargs)
        except asyncio.CancelledError:
            cancelled.add(service)
            raise

    invoker.ainvoke = instrumented


class TestDeadlines:
    def test_default_deadline_without_history(self, rt_client):
        hedger = HedgedInvoker(rt_client.aio, default_deadline=0.42)
        assert hedger.deadline_for("lexica-prime") == 0.42

    def test_deadline_from_percentile(self, rt_world, rt_client):
        warm(rt_client, rt_world)
        hedger = HedgedInvoker(rt_client.aio, deadline_percentile=0.95)
        deadline = hedger.deadline_for("lexica-prime")
        latencies = rt_client.monitor.latencies("lexica-prime")
        assert min(latencies) <= deadline <= max(latencies) + 1e-9

    def test_percentile_validated(self, rt_client):
        with pytest.raises(ValueError):
            HedgedInvoker(rt_client.aio, deadline_percentile=1.0)


class TestHedgedInvocation:
    def test_fast_primary_never_hedges(self, rt_client):
        hedger = HedgedInvoker(rt_client.aio, weights=LATENCY_ONLY)
        # Deadline is far above any latency: the primary always wins.
        hedger.deadline_for = lambda service: 10.0  # type: ignore[assignment]
        result = run(hedger.ainvoke(
            "nlu", "analyze", {"text": TEXT}, use_cache=False),
            rt_client.clock)
        assert result.value["sentiment"]
        assert hedger.stats.hedges_fired == 0
        assert hedger.stats.primary_wins == 1

    def test_slow_primary_fires_hedge(self, rt_client):
        hedger = HedgedInvoker(rt_client.aio)
        hedger.deadline_for = lambda service: 0.0  # type: ignore[assignment]
        cancelled = set()
        delayed(rt_client.aio, {"lexica-prime"}, cancelled)
        result = run(hedger.ainvoke(
            "nlu", "analyze", {"text": TEXT}, use_cache=False,
            candidates=["lexica-prime", "glotta"]), rt_client.clock)
        assert result.service == "glotta"
        assert hedger.stats.hedges_fired == 1
        assert hedger.stats.hedge_wins == 1
        assert cancelled == {"lexica-prime"}

    def test_hedge_survives_primary_failure(self, rt_world, rt_client):
        warm(rt_client, rt_world)
        ranked = [name for name, _ in rt_client.rank_services(
            "nlu", weights=LATENCY_ONLY)]
        rt_world.service(ranked[0]).failures = ScriptedFailures(set(range(50)))
        hedger = HedgedInvoker(rt_client.aio, weights=LATENCY_ONLY)
        # The primary's failure alone must fire the hedge.
        hedger.deadline_for = lambda service: 10.0  # type: ignore[assignment]
        result = run(hedger.ainvoke(
            "nlu", "analyze", {"text": "Globex gains again."}, use_cache=False),
            rt_client.clock)
        assert result.service == ranked[1]
        assert hedger.stats.hedges_fired == 1

    def test_unknown_kind_rejected(self, rt_client):
        with pytest.raises(ValueError, match="no services of kind"):
            run(HedgedInvoker(rt_client.aio).ainvoke(
                "teleport", "op", {}), rt_client.clock)

    def test_empty_candidates_rejected(self, rt_client):
        with pytest.raises(ValueError, match="empty candidates"):
            run(HedgedInvoker(rt_client.aio).ainvoke(
                "nlu", "analyze", {"text": TEXT}, candidates=[]),
                rt_client.clock)

    def test_stats_accumulate(self, rt_client):
        hedger = HedgedInvoker(rt_client.aio)
        hedger.deadline_for = lambda service: 10.0  # type: ignore[assignment]

        async def scenario():
            for index in range(3):
                await hedger.ainvoke("nlu", "analyze",
                                     {"text": f"Globex report {index}."},
                                     use_cache=False)

        run(scenario(), rt_client.clock)
        assert hedger.stats.requests == 3
        assert len(hedger.stats.latencies) == 3
        assert hedger.stats.hedge_rate == 0.0

    def test_single_candidate_cannot_hedge(self, rt_client):
        hedger = HedgedInvoker(rt_client.aio)
        hedger.deadline_for = lambda service: 0.0  # type: ignore[assignment]
        result = run(hedger.ainvoke(
            "nlu", "analyze", {"text": TEXT}, use_cache=False,
            candidates=["glotta"]), rt_client.clock)
        assert result.service == "glotta"
        assert hedger.stats.hedges_fired == 0

    def test_cancelling_the_caller_cancels_both_legs(self, rt_client):
        hedger = HedgedInvoker(rt_client.aio)
        hedger.deadline_for = lambda service: 0.0  # type: ignore[assignment]
        cancelled = set()
        delayed(rt_client.aio, {"lexica-prime", "glotta"}, cancelled)

        async def scenario():
            call = asyncio.ensure_future(hedger.ainvoke(
                "nlu", "analyze", {"text": TEXT}, use_cache=False,
                candidates=["lexica-prime", "glotta"]))
            await asyncio.sleep(0.1)
            call.cancel()
            with pytest.raises(asyncio.CancelledError):
                await call

        run(scenario(), rt_client.clock)
        assert cancelled == {"lexica-prime", "glotta"}


class TestBlockingCallers:
    def test_the_cancelled_loser_holds_no_permit_and_leaves_no_record(self):
        # A primary that takes 10 s, behind a bulkhead, hedged at once:
        # the backup wins, and the primary's leg is cancelled before the
        # blocking call returns.
        world = build_world(seed=59, corpus_size=20)
        world.service("lexica-prime").latency = ConstantLatency(10.0)
        client = RichClient(world.registry, admission=AdmissionController(
            world.clock, default_limit=AdmissionLimit(max_concurrent=1)))
        hedger = HedgedInvoker(client.aio, default_deadline=0.0)
        try:
            result = run(hedger.ainvoke(
                "nlu", "analyze", {"text": TEXT}, use_cache=False,
                candidates=["lexica-prime", "glotta"]), world.clock)
            assert result.service == "glotta"
            # The race ended with the backup, long before the primary's
            # 10 s were up.
            assert world.clock.now() < 10.0
            bulkhead = client.aio.admission.bulkhead_for("lexica-prime")
            assert bulkhead.inflight == 0
            assert client.monitor.records("lexica-prime") == []
            assert client.monitor.call_count("lexica-prime") == 0
            assert client.monitor.call_count("glotta") == 1
        finally:
            client.close()

    def test_a_hedged_call_is_deterministic(self):
        def race():
            world = build_world(seed=59, corpus_size=20)
            world.service("lexica-prime").latency = ConstantLatency(0.4)
            client = RichClient(world.registry)
            hedger = HedgedInvoker(client.aio, default_deadline=0.1)
            result = run(hedger.ainvoke(
                "nlu", "analyze", {"text": TEXT}, use_cache=False,
                candidates=["lexica-prime", "glotta"]), world.clock)
            return result.service, result.latency, hedger.stats.latencies

        first = race()
        assert first == race()
        service, latency, (elapsed,) = first
        # The backup fired at the 0.1 s deadline and answered first.
        assert service == "glotta"
        assert elapsed == pytest.approx(0.1 + latency)
