"""Tests for hedged requests (tail-latency mitigation)."""

import threading

import pytest

from repro import RichClient, build_world
from repro.core.hedging import HedgedInvoker
from repro.core.ranking import Weights
from repro.services.base import NeverFails
from repro.util.clock import RealClock

TIME_SCALE = 0.02


@pytest.fixture
def rt_world():
    return build_world(seed=59, corpus_size=20,
                       clock=RealClock(time_scale=TIME_SCALE))


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


class _Gate(NeverFails):
    """A failure model that never fails; it runs ``action`` on the leg's
    thread at the point where the service would have decided."""

    def __init__(self, action):
        self.action = action

    def should_fail(self, call_index, now, rng):
        self.action()
        return False


class TestDeadlines:
    def test_default_deadline_without_history(self, rt_client):
        invoker = HedgedInvoker(rt_client, default_deadline=0.42)
        assert invoker.deadline_for("lexica-prime") == 0.42

    def test_deadline_from_percentile(self, rt_world, rt_client):
        warm(rt_client, rt_world)
        invoker = HedgedInvoker(rt_client, deadline_percentile=0.95)
        deadline = invoker.deadline_for("lexica-prime")
        latencies = rt_client.monitor.latencies("lexica-prime")
        assert min(latencies) <= deadline <= max(latencies) + 1e-9

    def test_percentile_validated(self, rt_client):
        with pytest.raises(ValueError):
            HedgedInvoker(rt_client, deadline_percentile=1.0)


class TestHedgedInvocation:
    def test_fast_primary_never_hedges(self, rt_world, rt_client):
        warm(rt_client, rt_world)
        invoker = HedgedInvoker(
            rt_client, default_deadline=10.0,
            weights=Weights(response_time=1, cost=0, quality=0))
        # Deadline is far above any latency: the primary always wins.
        invoker.deadline_for = lambda service: 10.0  # type: ignore[assignment]
        result = invoker.invoke("nlu", "analyze",
                                {"text": "Globex thrives."}, use_cache=False)
        assert result.value["sentiment"]
        assert invoker.stats.hedges_fired == 0
        assert invoker.stats.primary_wins == 1

    def test_slow_primary_fires_hedge(self, rt_world, rt_client):
        warm(rt_client, rt_world)
        weights = Weights(response_time=1, cost=0, quality=0)
        primary, backup = [name for name, _ in rt_client.rank_services(
            "nlu", weights=weights)][:2]
        # "Slow" must not depend on the scheduler: the primary's leg is
        # held inside the service until the backup's leg reaches its own,
        # which only a fired hedge can make happen.
        hedged = threading.Event()
        rt_world.service(primary).failures = _Gate(lambda: hedged.wait(10.0))
        rt_world.service(backup).failures = _Gate(hedged.set)
        invoker = HedgedInvoker(rt_client, weights=weights)
        invoker.deadline_for = lambda service: 0.0001  # type: ignore[assignment]
        result = invoker.invoke("nlu", "analyze",
                                {"text": "Globex thrives today."},
                                use_cache=False)
        assert result.value["entities"] is not None
        assert invoker.stats.hedges_fired == 1
        assert invoker.stats.hedge_wins + invoker.stats.primary_wins == 1

    def test_hedge_survives_primary_failure(self, rt_world, rt_client):
        from repro.services.base import ScriptedFailures

        warm(rt_client, rt_world)
        weights = Weights(response_time=1, cost=0, quality=0)
        ranked = [name for name, _ in rt_client.rank_services("nlu",
                                                              weights=weights)]
        rt_world.service(ranked[0]).failures = ScriptedFailures(set(range(50)))
        invoker = HedgedInvoker(rt_client, weights=weights)
        invoker.deadline_for = lambda service: 0.0001  # type: ignore[assignment]
        result = invoker.invoke("nlu", "analyze",
                                {"text": "Globex gains again."},
                                use_cache=False)
        assert result.service != ranked[0]

    def test_unknown_kind_rejected(self, rt_client):
        with pytest.raises(ValueError):
            HedgedInvoker(rt_client).invoke("teleport", "op", {})

    def test_stats_accumulate(self, rt_world, rt_client):
        warm(rt_client, rt_world, calls=4)
        invoker = HedgedInvoker(rt_client, default_deadline=10.0)
        invoker.deadline_for = lambda service: 10.0  # type: ignore[assignment]
        for index in range(3):
            invoker.invoke("nlu", "analyze",
                           {"text": f"Globex report {index}."}, use_cache=False)
        assert invoker.stats.requests == 3
        assert len(invoker.stats.latencies) == 3
        assert invoker.stats.hedge_rate == 0.0
