"""Hedged requests: racing a backup call against a slow primary.

Another way to "mitigate the latency" of remote services when several
provide similar functionality (§2): send the request to the best-ranked
service, and if no reply arrives within a deadline (typically that
service's observed p95), fire the same request at the runner-up and
take whichever answers first.  Hedging trades a small amount of extra
load (only the slowest ~5% of requests fire a backup) for a large
reduction in tail latency — the classic tail-at-scale technique, built
here from the SDK's own monitoring, ranking and async machinery.

Requires a real (scaled) clock: hedging is inherently about racing
wall-clock timers against in-flight calls.
"""

from __future__ import annotations

import queue
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.futures import resolved, run_sync
from repro.core.invoker import InvocationResult, RichClient
from repro.core.ranking import Weights
from repro.obs import names
from repro.util.deadline import Deadline


@dataclass
class HedgeStats:
    """How often the hedge fired and who won."""

    requests: int = 0
    hedges_fired: int = 0
    hedge_wins: int = 0
    primary_wins: int = 0
    latencies: list[float] = field(default_factory=list)

    @property
    def hedge_rate(self) -> float:
        """Fraction of hedged requests whose backup actually fired."""
        return self.hedges_fired / self.requests if self.requests else 0.0


class HedgedInvoker:
    """Race a backup call against a slow primary.

    The primary leg goes through the normal :meth:`RichClient.invoke`
    path (cache, coalescing, admission); the backup leg is fired with
    ``coalesce=False`` so it never joins an in-flight identical call —
    a hedge that waits behind the request it is hedging would be
    useless.  Mirrors its fire/win counters to the client's metrics
    registry when observability is enabled.

    The hedging *policy* — candidate ranking, the hedge delay, the
    fire-or-ride-out decision, winner selection, stats — is the
    coroutine :meth:`_hedged`, written once.  A driver supplies how a
    leg is started, how the next finished leg is waited for and how a
    loser is dropped: pool threads reporting into a ``queue.Queue``
    here (a thread cannot be cancelled, so a losing leg runs to
    completion unobserved), cancellable tasks in
    :class:`repro.core.aio.AsyncHedgedInvoker`.
    """

    def __init__(
        self,
        client: RichClient,
        deadline_percentile: float = 0.95,
        default_deadline: float = 0.5,
        weights: Weights = Weights(),
    ) -> None:
        if not 0.0 < deadline_percentile < 1.0:
            raise ValueError(
                f"deadline_percentile must be in (0, 1), got {deadline_percentile}")
        self.client = client
        self.deadline_percentile = deadline_percentile
        self.default_deadline = default_deadline
        self.weights = weights
        self.stats = HedgeStats()
        obs = client.obs
        if obs.enabled:
            self._metric_requests = obs.metrics.counter(
                names.HEDGE_REQUESTS_TOTAL, "Requests that went through the hedged invoker.")
            self._metric_fired = obs.metrics.counter(
                names.HEDGES_FIRED_TOTAL, "Requests whose backup call was actually sent.")
            self._metric_wins = obs.metrics.counter(
                names.HEDGE_WINS_TOTAL, "Requests won by the backup call.")
        else:
            self._metric_requests = self._metric_fired = self._metric_wins = None

    def deadline_for(self, service: str) -> float:
        """The hedge deadline: the service's observed latency percentile."""
        latencies = self.client.monitor.latencies(service)
        if len(latencies) < 5:
            return self.default_deadline
        from repro.analytics.stats import percentile

        return percentile(latencies, self.deadline_percentile)

    def invoke(
        self,
        kind: str,
        operation: str,
        payload: Mapping[str, object] | None = None,
        use_cache: bool = True,
        candidates: list[str] | None = None,
        deadline: Deadline | None = None,
    ) -> InvocationResult:
        """Invoke with hedging across the top two ranked services.

        The primary request goes to the best-ranked service; if it has
        not completed within the primary's deadline, the same request
        is issued to the second-ranked service and the first completed
        result wins.  With fewer than two candidates this degrades to a
        plain invocation.  ``candidates`` (already ordered, best first)
        overrides the live ranking — the ranking is adaptive, so pin it
        when an experiment needs a fixed primary.

        An end-to-end ``deadline`` is carried into both legs, the hedge
        wait is clamped to the remaining budget, and **no backup is
        launched past expiry** — a hedge that cannot beat the deadline
        is pure extra load.
        """
        return run_sync(self._hedged(kind, operation, payload, use_cache,
                                     candidates, deadline))

    # -- the hedging policy (one, for both drivers) --------------------------

    def _rank(self, kind: str, candidates: list[str] | None) -> list[str]:
        """Candidate services, best first (live ranking unless pinned)."""
        if candidates is not None:
            if not candidates:
                raise ValueError("empty candidates override")
            return list(candidates)
        candidates = [service.name for service in
                      self.client.registry.services_of_kind(kind)]
        if not candidates:
            raise ValueError(f"no services of kind {kind!r}")
        return [name for name, _ in self.client.ranker.rank(
            candidates, weights=self.weights)]

    async def _hedged(
        self,
        kind: str,
        operation: str,
        payload: Mapping[str, object] | None,
        use_cache: bool,
        candidates: list[str] | None,
        deadline: Deadline | None,
    ) -> InvocationResult:
        clock = self.client.clock
        with self.client.obs.tracer.span(
                names.SPAN_SDK_HEDGED_INVOKE, {"kind": kind, "operation": operation}):
            ranked = self._rank(kind, candidates)
            self.stats.requests += 1
            if self._metric_requests is not None:
                self._metric_requests.inc()
            start = clock.now()
            if len(ranked) == 1:
                role, result = "primary", await self._call(
                    ranked[0], operation, payload, use_cache=use_cache,
                    deadline=deadline)
            else:
                role, result = await self._race(
                    ranked[0], ranked[1], operation, payload, use_cache,
                    deadline)
            if role == "primary":
                self.stats.primary_wins += 1
            else:
                self.stats.hedge_wins += 1
                if self._metric_wins is not None:
                    self._metric_wins.inc()
            self.stats.latencies.append(clock.now() - start)
            return result

    async def _race(self, primary: str, backup: str, operation: str,
                    payload: Mapping[str, object] | None, use_cache: bool,
                    deadline: Deadline | None):
        """Primary leg, maybe a backup leg; returns ``(role, result)``.

        The first *successful* leg wins; when every leg fails, the
        first-completed leg's error is raised.  However this returns —
        a winner, an error, the caller's own cancellation — legs still
        running are dropped before it does.
        """
        clock = self.client.clock
        legs = self._legs_type()
        try:
            self._start_leg(legs, "primary", primary, operation, payload,
                            use_cache=use_cache, deadline=deadline)
            hedge_after = self.deadline_for(primary)
            if deadline is not None:
                # Never wait past the caller's budget before deciding.
                hedge_after = min(hedge_after, deadline.remaining())
            wait_start = clock.now()
            outcomes = await self._wait_next(
                legs, hedge_after * getattr(clock, "time_scale", 1.0))
            self.client.obs.tracer.add_event(
                "hedge.wait", {"service": primary,
                               "seconds": clock.now() - wait_start,
                               "deadline": hedge_after})
            # Hedge when the primary is slow — or when it already failed
            # (an error is the slowest possible answer).  But a backup
            # launched past the deadline cannot produce a usable answer:
            # ride out the primary leg instead.
            expected = 1
            if _first_success(outcomes) is None and not (
                    deadline is not None and deadline.expired()):
                self.stats.hedges_fired += 1
                if self._metric_fired is not None:
                    self._metric_fired.inc()
                # The backup must be an independent upstream probe: if it
                # coalesced onto an already-slow in-flight identical call
                # it would just wait behind the same laggard it is meant
                # to outrun.
                self._start_leg(legs, "backup", backup, operation, payload,
                                use_cache=use_cache, coalesce=False,
                                deadline=deadline)
                expected = 2
            while True:
                winner = _first_success(outcomes)
                if winner is not None:
                    return winner
                if len(outcomes) >= expected:
                    raise outcomes[0][1]  # every leg failed
                outcomes += await self._wait_next(legs, None)
        finally:
            await self._drop_losers(legs)

    # Blocking binding: legs on the client's thread pool, reporting into
    # a queue of (role, result-or-error) in completion order.

    _legs_type = queue.Queue

    def _call(self, service: str, operation: str, payload, **options):
        return resolved(self.client.invoke(service, operation, payload,
                                           **options))

    def _start_leg(self, legs, role: str, service: str, operation: str,
                   payload, **options) -> None:
        def report(future) -> None:
            error = future.exception()
            legs.put((role, error if error is not None else future.get()))

        self.client.invoke_async(service, operation, payload,
                                 **options).add_listener(report)

    def _wait_next(self, legs, timeout: float | None):
        """Legs that finished within ``timeout`` wall seconds (None: wait)."""
        try:
            return resolved([legs.get(timeout=timeout)])
        except queue.Empty:
            return resolved([])

    def _drop_losers(self, legs):
        return resolved(None)


def _first_success(outcomes: list) -> tuple | None:
    """The earliest ``(role, result)`` whose leg did not fail."""
    for role, outcome in outcomes:
        if not isinstance(outcome, BaseException):
            return role, outcome
    return None
