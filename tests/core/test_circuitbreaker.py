"""Tests for circuit breakers."""

import pytest

from repro.core.circuitbreaker import (
    LEGAL_TRANSITIONS,
    CircuitBreaker,
    CircuitBreakerRegistry,
    CircuitOpenError,
    CircuitState,
)
from repro.simnet.errors import RemoteServiceError
from repro.util.clock import ManualClock


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def breaker(clock):
    return CircuitBreaker(clock, "svc", failure_threshold=3, cooldown=10.0)


def boom():
    raise RemoteServiceError("svc", "down")


class TestStateMachine:
    def test_starts_closed(self, breaker):
        assert breaker.state is CircuitState.CLOSED
        assert breaker.allow()

    def test_opens_after_threshold(self, breaker):
        for _ in range(3):
            with pytest.raises(RemoteServiceError):
                breaker.call(boom)
        assert breaker.state is CircuitState.OPEN
        assert breaker.stats.opens == 1

    def test_open_circuit_rejects_fast(self, breaker, clock):
        for _ in range(3):
            with pytest.raises(RemoteServiceError):
                breaker.call(boom)
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.call(lambda: "never runs")
        assert excinfo.value.retry_at == pytest.approx(10.0)
        assert clock.now() == 0.0  # no time spent on the rejected call

    def test_success_resets_failure_count(self, breaker):
        for _ in range(2):
            with pytest.raises(RemoteServiceError):
                breaker.call(boom)
        breaker.call(lambda: "fine")
        for _ in range(2):
            with pytest.raises(RemoteServiceError):
                breaker.call(boom)
        assert breaker.state is CircuitState.CLOSED  # never hit 3 in a row

    def test_half_open_after_cooldown(self, breaker, clock):
        for _ in range(3):
            with pytest.raises(RemoteServiceError):
                breaker.call(boom)
        clock.advance(10.0)
        assert breaker.state is CircuitState.HALF_OPEN

    def test_successful_probe_closes(self, breaker, clock):
        for _ in range(3):
            with pytest.raises(RemoteServiceError):
                breaker.call(boom)
        clock.advance(10.0)
        assert breaker.call(lambda: "recovered") == "recovered"
        assert breaker.state is CircuitState.CLOSED
        assert breaker.stats.closes == 1

    def test_failed_probe_reopens(self, breaker, clock):
        for _ in range(3):
            with pytest.raises(RemoteServiceError):
                breaker.call(boom)
        clock.advance(10.0)
        with pytest.raises(RemoteServiceError):
            breaker.call(boom)  # the single half-open probe fails
        assert breaker.state is CircuitState.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "still rejected")

    def test_validation(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker(clock, failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(clock, cooldown=0.0)


class TestHalfOpenProbeCap:
    def test_only_the_first_half_open_caller_probes(self, breaker, clock):
        for _ in range(3):
            with pytest.raises(RemoteServiceError):
                breaker.call(boom)
        clock.advance(10.0)
        assert breaker.state is CircuitState.HALF_OPEN
        assert breaker.allow()          # this caller becomes the probe
        assert not breaker.allow()      # a second concurrent probe: rejected
        assert not breaker.allow()
        assert breaker.stats.probe_rejections == 2

    def test_probe_slot_frees_after_the_outcome(self, breaker, clock):
        for _ in range(3):
            with pytest.raises(RemoteServiceError):
                breaker.call(boom)
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()        # probe failed -> OPEN again
        assert breaker.state is CircuitState.OPEN
        clock.advance(10.0)
        assert breaker.allow()          # next cooldown: a fresh probe slot
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED
        assert breaker.allow()          # closed circuit has no probe cap
        assert breaker.allow()


class TestTransitionLog:
    def test_full_walk_is_recorded_with_timestamps(self, breaker, clock):
        for _ in range(3):
            with pytest.raises(RemoteServiceError):
                breaker.call(boom)
        clock.advance(10.0)
        with pytest.raises(RemoteServiceError):
            breaker.call(boom)          # probe fails: back to OPEN
        clock.advance(10.0)
        breaker.call(lambda: "ok")      # probe succeeds: CLOSED
        edges = [(t.source, t.target) for t in breaker.transitions]
        assert edges == [
            (CircuitState.CLOSED, CircuitState.OPEN),
            (CircuitState.OPEN, CircuitState.HALF_OPEN),
            (CircuitState.HALF_OPEN, CircuitState.OPEN),
            (CircuitState.OPEN, CircuitState.HALF_OPEN),
            (CircuitState.HALF_OPEN, CircuitState.CLOSED),
        ]
        assert [t.at for t in breaker.transitions] == [
            0.0, 10.0, 10.0, 20.0, 20.0]

    def test_every_recorded_transition_is_legal(self, breaker, clock):
        for _ in range(3):
            with pytest.raises(RemoteServiceError):
                breaker.call(boom)
        clock.advance(10.0)
        breaker.call(lambda: "ok")
        assert all((t.source, t.target) in LEGAL_TRANSITIONS
                   for t in breaker.transitions)

    def test_repeated_successes_do_not_spam_the_log(self, breaker):
        for _ in range(5):
            breaker.call(lambda: "fine")
        assert breaker.transitions == []  # CLOSED -> CLOSED is not a change

    def test_transition_metrics_mirrored(self, clock):
        from repro.obs.metrics import MetricsRegistry

        registry = CircuitBreakerRegistry(clock, failure_threshold=1,
                                          cooldown=5.0)
        metrics = MetricsRegistry()
        registry.bind_metrics(metrics)
        with pytest.raises(RemoteServiceError):
            registry.call("svc", boom)
        with pytest.raises(CircuitOpenError):
            registry.call("svc", lambda: 1)
        snapshot = metrics.snapshot()
        transitions = snapshot["circuit_transitions_total"]["values"]
        assert sum(value["value"] for value in transitions) == 1
        rejected = snapshot["circuit_rejected_total"]["values"]
        assert rejected[0]["value"] == 1


class TestRegistry:
    def test_breakers_are_per_service(self, clock):
        registry = CircuitBreakerRegistry(clock, failure_threshold=1,
                                          cooldown=5.0)
        with pytest.raises(RemoteServiceError):
            registry.call("a", boom)
        with pytest.raises(CircuitOpenError):
            registry.call("a", lambda: 1)
        assert registry.call("b", lambda: 2) == 2  # 'b' unaffected
        assert registry.breaker("a").state is CircuitState.OPEN
        assert registry.breaker("b").state is CircuitState.CLOSED

    def test_overrides(self, clock):
        registry = CircuitBreakerRegistry(
            clock, failure_threshold=5, cooldown=5.0,
            overrides={"fragile": (1, 60.0)})
        assert registry.breaker("fragile").failure_threshold == 1
        assert registry.breaker("fragile").cooldown == 60.0
        assert registry.breaker("normal").failure_threshold == 5


class TestWithRealServices:
    def test_breaker_saves_simulated_time_during_outage(self, world):
        """During a sustained outage the breaker answers instantly
        instead of paying a network round trip per attempt."""
        from repro import RichClient
        from repro.services.base import ScriptedFailures

        client = RichClient(world.registry)
        world.service("glotta").failures = ScriptedFailures(set(range(1000)))
        registry = CircuitBreakerRegistry(world.clock, failure_threshold=3,
                                          cooldown=60.0)

        def attempt():
            return client.invoke("glotta", "analyze",
                                 {"text": "is anyone there"}, use_cache=False)

        failures = rejections = 0
        time_before_open = None
        for _ in range(20):
            try:
                registry.call("glotta", attempt)
            except CircuitOpenError:
                rejections += 1
            except RemoteServiceError:
                failures += 1
                time_before_open = world.clock.now()
        assert failures == 3           # only the threshold-worth hit the wire
        assert rejections == 17
        assert world.clock.now() == time_before_open  # rejections were free
        client.close()
