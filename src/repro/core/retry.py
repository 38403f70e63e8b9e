"""Failure handling: retries and ranked failover (§2.1).

"If a service is unresponsive, the rich SDK has the ability to retry a
service multiple times.  The number of retries can be specified by the
user. ... It would generally be preferable to start with higher ranked
services and continue with lower ranked services until a responsive
service is found.  The number of times to retry each service before
moving on to the next one ... may be different for different services."

The retry loop and the failover walk are written once, as coroutines;
``ainvoke*`` await them on an event loop, ``invoke*`` drive the same
coroutines on the caller's thread (:func:`~repro.core.futures.run_sync`).
"""

from __future__ import annotations

from collections.abc import Awaitable, Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TypeVar

from repro.core.futures import resolved, run_sync
from repro.obs import NULL_INSTRUMENT, NULL_OBS, NULL_TRACER, names
from repro.simnet.errors import NetworkError
from repro.util.clock import Clock, acharge
from repro.util.errors import ReproError

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry one service.

    ``max_attempts`` counts the first try (``max_attempts=3`` means up
    to two retries).  ``backoff`` seconds are waited before the first
    retry, multiplied by ``backoff_multiplier`` each further retry.
    Only ``retryable`` exception types are retried; anything else (e.g.
    a 400-style validation error) propagates immediately.
    """

    max_attempts: int = 3
    backoff: float = 0.0
    backoff_multiplier: float = 2.0
    retryable: tuple[type[BaseException], ...] = field(default=(NetworkError,))

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be non-negative, got {self.backoff}")

    def delay_before_attempt(self, attempt_index: int) -> float:
        """Seconds to wait before attempt ``attempt_index`` (0-based)."""
        if attempt_index == 0 or self.backoff == 0.0:
            return 0.0
        return self.backoff * self.backoff_multiplier ** (attempt_index - 1)

    def is_retryable(self, error: BaseException) -> bool:
        """Whether this error class is worth another attempt."""
        return isinstance(error, self.retryable)


@dataclass
class AttemptLog:
    """What happened on one attempt (for diagnostics and benchmarks)."""

    service: str
    attempt: int
    error: str | None


class RetriesExhaustedError(ReproError):
    """A single service kept failing through its retry budget.

    ``deadline`` (a :class:`repro.util.deadline.Deadline`, when the
    caller passed one) records the end-to-end budget the retry loop was
    running under; ``deadline_truncated`` marks the case where the loop
    stopped *early* because the remaining budget could not cover the
    next backoff — the attempts counted are then fewer than the
    policy's ``max_attempts``.
    """

    def __init__(self, service: str, attempts: int, last_error: BaseException,
                 deadline=None, deadline_truncated: bool = False) -> None:
        suffix = ""
        if deadline_truncated:
            suffix = " (stopped early: deadline budget below next backoff)"
        super().__init__(
            f"service {service!r} failed {attempts} attempt(s); "
            f"last error: {last_error}{suffix}"
        )
        self.service = service
        self.attempts = attempts
        self.last_error = last_error
        self.deadline = deadline
        self.deadline_truncated = deadline_truncated


class AllServicesFailedError(ReproError):
    """Every candidate service failed through its retry budget."""

    def __init__(self, attempts: list[AttemptLog]) -> None:
        services = sorted({log.service for log in attempts})
        super().__init__(
            f"all {len(services)} candidate service(s) failed after "
            f"{len(attempts)} total attempt(s): {services}"
        )
        self.attempts = attempts


async def _retry(invoke_once, charge, policy, clock, service, log, tracer,
                 backoff_counter, deadline):
    """The retry loop behind :func:`invoke_with_retry` (documented
    there) and :meth:`FailoverInvoker.ainvoke`.

    ``invoke_once()`` and ``charge(clock, seconds)`` are its two wait
    points and return awaitables — really pending ones on an event
    loop, already-:func:`~repro.core.futures.resolved` ones under the
    blocking driver, which therefore never suspends.
    """
    last_error: BaseException | None = None
    for attempt in range(policy.max_attempts):
        delay = policy.delay_before_attempt(attempt)
        if deadline is not None and last_error is not None:
            remaining = deadline.remaining()
            if remaining <= 0.0 or remaining < delay:
                raise RetriesExhaustedError(
                    service, attempt, last_error, deadline=deadline,
                    deadline_truncated=True) from last_error
        if delay and clock is not None:
            tracer.add_event(
                "retry.backoff",
                {"service": service, "attempt": attempt, "seconds": delay})
            backoff_counter.inc(delay, service=service)
            await charge(clock, delay)
        try:
            with tracer.span(names.SPAN_FAILOVER_ATTEMPT,
                             {"service": service, "attempt": attempt}):
                result = await invoke_once()
        except BaseException as error:  # noqa: BLE001 — classified below
            if not policy.is_retryable(error):
                raise
            last_error = error
            if log is not None:
                log.append(AttemptLog(service, attempt, repr(error)))
            continue
        if log is not None:
            log.append(AttemptLog(service, attempt, None))
        return result
    assert last_error is not None
    raise RetriesExhaustedError(service, policy.max_attempts, last_error,
                                deadline=deadline) from last_error


def _charge_now(clock: Clock, seconds: float):
    """The blocking backoff: slept on the caller's thread, then resolved."""
    return resolved(clock.charge(seconds))


def invoke_with_retry(
    invoke_once: Callable[[], T],
    policy: RetryPolicy,
    clock: Clock | None = None,
    service: str = "<service>",
    log: list[AttemptLog] | None = None,
    tracer=NULL_TRACER,
    backoff_counter=NULL_INSTRUMENT,
    deadline=None,
) -> T:
    """Call ``invoke_once`` under a retry policy.

    Backoff waits are charged to ``clock`` (simulated time).  Raises
    :class:`RetriesExhaustedError` once the budget is spent.

    A ``deadline`` (:class:`repro.util.deadline.Deadline`) makes the
    loop budget-aware: when the remaining budget cannot cover the next
    backoff (or is already spent), the loop **stops instead of
    sleeping** — overshooting the caller's budget just to fail later is
    never useful.  The resulting :class:`RetriesExhaustedError` carries
    the deadline and ``deadline_truncated=True``.

    With a ``tracer``, every attempt runs inside its own child span and
    each backoff wait is recorded as a ``retry.backoff`` event (with its
    duration in seconds) on the enclosing span, which is what lets the
    attribution analyzer bill sleep time separately from wire time.
    ``backoff_counter`` (a metrics counter) accumulates the same waits
    fleet-wide.
    """
    return run_sync(_retry(
        lambda: resolved(invoke_once()), _charge_now, policy, clock, service,
        log, tracer, backoff_counter, deadline))


class FailoverInvoker:
    """Tries ranked candidates in order, each under its own retry policy."""

    def __init__(
        self,
        default_policy: RetryPolicy | None = None,
        per_service: Mapping[str, RetryPolicy] | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.default_policy = default_policy if default_policy is not None else RetryPolicy()
        self.per_service = dict(per_service or {})
        self.clock = clock
        self.tracer = NULL_TRACER
        self.bind_obs(NULL_OBS)

    def bind_obs(self, obs) -> None:
        """Attach observability: attempt spans, backoff events/counters.

        First binder wins, as on the transport: a disabled bundle
        claims nothing."""
        if self.tracer is not NULL_TRACER:
            return
        self.tracer = obs.tracer
        self._metric_backoff = obs.metrics.counter(
            names.RETRY_BACKOFF_SECONDS_TOTAL,
            "Simulated seconds slept in retry backoff, by service.")
        self._metric_exhausted = obs.metrics.counter(
            names.FAILOVER_EXHAUSTED_TOTAL,
            "Candidates whose retry budget was exhausted during failover.")

    def policy_for(self, service: str) -> RetryPolicy:
        """This service's retry policy (or the default)."""
        return self.per_service.get(service, self.default_policy)

    def invoke(
        self,
        ordered_services: Sequence[str],
        invoke_once: Callable[[str], T],
        deadline=None,
    ) -> tuple[str, T, list[AttemptLog]]:
        """Invoke the first responsive service.

        ``ordered_services`` should come pre-ranked (best first) from
        :class:`repro.core.ranking.ServiceRanker`.  Returns the serving
        service's name, its result and the full attempt log; raises
        :class:`AllServicesFailedError` when every candidate is down.

        With a ``deadline``, each candidate's retry loop is
        budget-aware (see :func:`invoke_with_retry`) and the failover
        walk itself stops moving down the ranking once the budget is
        spent — failing over to a service there is no time left to call
        only adds load.
        """
        return run_sync(self._walk(
            ordered_services, lambda service: resolved(invoke_once(service)),
            _charge_now, deadline))

    async def ainvoke(
        self,
        ordered_services: Sequence[str],
        invoke_once: Callable[[str], Awaitable[T]],
        deadline=None,
    ) -> tuple[str, T, list[AttemptLog]]:
        """:meth:`invoke` on an event loop.  Cancellation aborts the walk
        wherever it stands — no further candidate is contacted."""
        return await self._walk(ordered_services, invoke_once, acharge,
                                deadline)

    async def _walk(self, ordered_services, invoke_once, charge, deadline):
        """The walk itself; wait points as in :func:`_retry`."""
        if not ordered_services:
            raise ValueError("no candidate services to invoke")
        attempts: list[AttemptLog] = []
        last_exhausted: RetriesExhaustedError | None = None
        for service in ordered_services:
            if (deadline is not None and deadline.expired()
                    and attempts):
                break
            try:
                result = await _retry(
                    lambda service=service: invoke_once(service),
                    charge,
                    self.policy_for(service),
                    self.clock,
                    service,
                    attempts,
                    self.tracer,
                    self._metric_backoff,
                    deadline,
                )
            except RetriesExhaustedError as error:
                # The per-attempt errors are already in `attempts`; count
                # the exhaustion so fleet dashboards see failover churn.
                last_exhausted = error
                self._metric_exhausted.inc(service=service)
                continue
            return service, result, attempts
        raise AllServicesFailedError(attempts) from last_exhausted
