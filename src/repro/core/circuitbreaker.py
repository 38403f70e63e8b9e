"""Circuit breakers: stop hammering a service that keeps failing.

Retry (§2.1) handles *transient* failures; a circuit breaker handles
*sustained* ones.  After ``failure_threshold`` consecutive failures the
circuit **opens**: calls fail immediately (no network, no waiting)
until ``cooldown`` simulated seconds pass.  Then the circuit goes
**half-open**: exactly one probe call is allowed through — concurrent
callers during the probe fast-fail as if the circuit were still open —
success closes the circuit, failure re-opens it for another cooldown.
This protects both the client (no latency wasted on a dead service) and
the service (no retry storm, and no probe *stampede*, while it
recovers).

State transitions run on the simulation clock, so tests can script
hour-long outages instantly.  Every transition is recorded in a
chronological log (``breaker.transitions``) and, when metrics are
bound, on the ``circuit_transitions_total`` counter — which is what the
chaos harness's state-machine conformance invariant checks against the
legal transition set.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from enum import Enum
from typing import TypeVar

from repro.obs import NULL_METRICS, names
from repro.util.clock import Clock
from repro.util.errors import ReproError

T = TypeVar("T")


class CircuitState(Enum):
    """The classic three breaker states."""
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: The legal state machine: every observed transition must be one of
#: these (the chaos conformance invariant checks the transition log
#: against this set).
LEGAL_TRANSITIONS = frozenset({
    (CircuitState.CLOSED, CircuitState.OPEN),        # failure run trips
    (CircuitState.OPEN, CircuitState.HALF_OPEN),     # cooldown elapsed
    (CircuitState.HALF_OPEN, CircuitState.OPEN),     # probe failed
    (CircuitState.HALF_OPEN, CircuitState.CLOSED),   # probe succeeded
})


class CircuitOpenError(ReproError):
    """The circuit is open: the call was rejected without being sent."""

    def __init__(self, service: str, retry_at: float) -> None:
        super().__init__(
            f"circuit for {service!r} is open; next probe allowed at "
            f"t={retry_at:.3f}s")
        self.service = service
        self.retry_at = retry_at


@dataclass
class BreakerStats:
    """Counters for one breaker.

    ``probe_rejections`` counts half-open callers turned away because
    another probe was already in flight (they are also included in
    ``calls_rejected``).
    """

    calls_allowed: int = 0
    calls_rejected: int = 0
    opens: int = 0
    closes: int = 0
    probe_rejections: int = 0


@dataclass(frozen=True)
class Transition:
    """One recorded state change: when, from what, to what."""

    at: float
    source: CircuitState
    target: CircuitState


class CircuitBreaker:
    """One service's circuit."""

    def __init__(self, clock: Clock, service: str = "<service>",
                 failure_threshold: int = 5, cooldown: float = 30.0) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got "
                             f"{failure_threshold}")
        if cooldown <= 0:
            raise ValueError(f"cooldown must be positive, got {cooldown}")
        self.clock = clock
        self.service = service
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.stats = BreakerStats()
        self.transitions: list[Transition] = []
        self._state = CircuitState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        # At most one half-open probe may be in flight at a time.
        self._probe_inflight = False
        self.bind_metrics(NULL_METRICS)

    def bind_metrics(self, registry) -> None:
        """Mirror transitions/rejections into a MetricsRegistry.

        Registers ``circuit_transitions_total`` (labelled by service
        and from/to state) and ``circuit_rejected_total`` — the two
        series an operator alerts on to see circuits flapping.
        """
        self._metric_transitions = registry.counter(
            names.CIRCUIT_TRANSITIONS_TOTAL,
            "Circuit-breaker state transitions, by service and edge.")
        self._metric_rejected = registry.counter(
            names.CIRCUIT_REJECTED_TOTAL,
            "Calls rejected by an open (or probing) circuit, by service.")

    def _transition(self, target: CircuitState) -> None:
        source = self._state
        if source is target:
            return
        self._state = target
        self.transitions.append(
            Transition(self.clock.now(), source, target))
        self._metric_transitions.inc(
            service=self.service,
            source=source.value, target=target.value)

    @property
    def state(self) -> CircuitState:
        """Current state; an expired cooldown lazily moves OPEN to HALF_OPEN."""
        if (self._state is CircuitState.OPEN
                and self.clock.now() - self._opened_at >= self.cooldown):
            self._transition(CircuitState.HALF_OPEN)
            self._probe_inflight = False
        return self._state

    # -- bookkeeping hooks --------------------------------------------------

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        In HALF_OPEN, only the first caller becomes the probe; further
        callers are rejected exactly as if the circuit were open (a
        probe stampede would defeat the point of probing).
        """
        state = self.state
        if state is CircuitState.OPEN:
            self.stats.calls_rejected += 1
            self._metric_rejected.inc(service=self.service)
            return False
        if state is CircuitState.HALF_OPEN:
            if self._probe_inflight:
                self.stats.calls_rejected += 1
                self.stats.probe_rejections += 1
                self._metric_rejected.inc(service=self.service)
                return False
            self._probe_inflight = True
        self.stats.calls_allowed += 1
        return True

    def record_success(self) -> None:
        """Note a success: closes the circuit and resets the failure run."""
        if self._state in (CircuitState.HALF_OPEN, CircuitState.OPEN):
            self.stats.closes += 1
        self._transition(CircuitState.CLOSED)
        self._consecutive_failures = 0
        self._probe_inflight = False

    def record_failure(self) -> None:
        """Note a failure: trips on a failed probe or a full failure run."""
        self._consecutive_failures += 1
        self._probe_inflight = False
        if self._state is CircuitState.HALF_OPEN:
            self._trip()  # the probe failed: straight back to open
        elif (self._state is CircuitState.CLOSED
              and self._consecutive_failures >= self.failure_threshold):
            self._trip()

    def _trip(self) -> None:
        self._transition(CircuitState.OPEN)
        self._opened_at = self.clock.now()
        self.stats.opens += 1

    # -- call wrapper ----------------------------------------------------------

    def call(self, function: Callable[[], T]) -> T:
        """Run ``function`` under the circuit's protection."""
        if not self.allow():
            raise CircuitOpenError(self.service, self._opened_at + self.cooldown)
        try:
            result = function()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result


class CircuitBreakerRegistry:
    """Per-service breakers sharing one configuration."""

    def __init__(self, clock: Clock, failure_threshold: int = 5,
                 cooldown: float = 30.0,
                 overrides: Mapping[str, tuple[int, float]] | None = None) -> None:
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.overrides = dict(overrides or {})
        self._breakers: dict[str, CircuitBreaker] = {}
        self._metrics = NULL_METRICS

    def bind_metrics(self, registry) -> None:
        """Mirror every breaker's transitions into ``registry``."""
        self._metrics = registry
        for breaker in self._breakers.values():
            breaker.bind_metrics(registry)

    def breaker(self, service: str) -> CircuitBreaker:
        """This service's breaker, created on first use (with overrides)."""
        if service not in self._breakers:
            threshold, cooldown = self.overrides.get(
                service, (self.failure_threshold, self.cooldown))
            breaker = CircuitBreaker(self.clock, service, threshold, cooldown)
            breaker.bind_metrics(self._metrics)
            self._breakers[service] = breaker
        return self._breakers[service]

    def call(self, service: str, function: Callable[[], T]) -> T:
        """Run ``function`` through this service's breaker."""
        return self.breaker(service).call(function)

    def all_breakers(self) -> list[CircuitBreaker]:
        """Every breaker created so far (for invariant checks)."""
        return list(self._breakers.values())
