"""Hedged requests: racing a backup call against a slow primary.

Another way to "mitigate the latency" of remote services when several
provide similar functionality (§2): send the request to the best-ranked
service, and if no reply arrives within a deadline (typically that
service's observed p95), fire the same request at the runner-up and
take whichever answers first.  Hedging trades a small amount of extra
load (only the slowest ~5% of requests fire a backup) for a large
reduction in tail latency — the classic tail-at-scale technique, built
here from the SDK's own monitoring, ranking and async machinery.

The legs are event-loop tasks, so the **losing leg is cancelled** the
moment a leg wins: it releases its bulkhead permit and refunds its
reservations (see :meth:`~repro.core.aio.invoker.AsyncInvoker._upstream`)
instead of paying for a second full call.

Hedging races a timer against in-flight calls, so it runs where waiting
passes the world's time: a virtual clock's
:class:`~repro.util.clock.VirtualLoop` (deterministically) or any loop
under a real clock.  Blocking callers use
``repro.util.clock.run(hedger.ainvoke(...), client.clock)``.
"""

from __future__ import annotations

import asyncio
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.analytics.stats import percentile
from repro.core.aio.invoker import AsyncInvoker
from repro.core.invoker import InvocationResult
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
    """Race a cancellable backup task against a slow primary.

    The primary leg goes through :meth:`AsyncInvoker.ainvoke` (cache,
    coalescing, admission); the backup leg is fired with
    ``coalesce=False`` so it never joins an in-flight identical call —
    a hedge that waits behind the request it is hedging would be
    useless.  Cancelling the caller's task cancels both in-flight legs.
    Mirrors its fire/win counters to the client's metrics registry.
    """

    def __init__(
        self,
        invoker: AsyncInvoker,
        deadline_percentile: float = 0.95,
        default_deadline: float = 0.5,
        weights: Weights = Weights(),
    ) -> None:
        if not 0.0 < deadline_percentile < 1.0:
            raise ValueError(
                f"deadline_percentile must be in (0, 1), got {deadline_percentile}")
        self.invoker = invoker
        self.client = invoker.client
        self.deadline_percentile = deadline_percentile
        self.default_deadline = default_deadline
        self.weights = weights
        self.stats = HedgeStats()
        metrics = self.client.obs.metrics
        self._metric_requests = metrics.counter(
            names.HEDGE_REQUESTS_TOTAL, "Requests that went through the hedged invoker.")
        self._metric_fired = metrics.counter(
            names.HEDGES_FIRED_TOTAL, "Requests whose backup call was actually sent.")
        self._metric_wins = metrics.counter(
            names.HEDGE_WINS_TOTAL, "Requests won by the backup call.")

    def deadline_for(self, service: str) -> float:
        """The hedge deadline: the service's observed latency percentile."""
        latencies = self.client.monitor.latencies(service)
        if len(latencies) < 5:
            return self.default_deadline
        return percentile(latencies, self.deadline_percentile)

    async def ainvoke(self, kind: str, operation: str,
                      payload: Mapping[str, object] | None = None,
                      use_cache: bool = True,
                      candidates: list[str] | None = None,
                      deadline: Deadline | None = None) -> InvocationResult:
        """Invoke with hedging across the top two ranked services.

        The primary request goes to the best-ranked service; if it has
        not completed within the primary's deadline (or already
        failed), the same request is issued to the second-ranked
        service, the first successful result wins and **the loser is
        cancelled**.  With fewer than two candidates this degrades to a
        plain invocation.  ``candidates`` (already ordered, best first)
        overrides the live ranking — the ranking is adaptive, so pin it
        when an experiment needs a fixed primary.  Cancelling this
        coroutine cancels both legs.

        An end-to-end ``deadline`` is carried into both legs, the hedge
        wait is clamped to the remaining budget, and **no backup is
        launched past expiry** — a hedge that cannot beat the deadline
        is pure extra load.
        """
        return await self._hedged(kind, operation, payload, use_cache,
                                  candidates, deadline)

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

    async def _hedged(self, kind: str, operation: str,
                      payload: Mapping[str, object] | None, use_cache: bool,
                      candidates: list[str] | None,
                      deadline: Deadline | None) -> InvocationResult:
        clock = self.client.clock
        with self.client.obs.tracer.span(
                names.SPAN_SDK_HEDGED_INVOKE, {"kind": kind, "operation": operation}):
            ranked = self._rank(kind, candidates)
            self.stats.requests += 1
            self._metric_requests.inc()
            start = clock.now()
            if len(ranked) == 1:
                role, result = "primary", await self.invoker.ainvoke(
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
        running are cancelled, and their cleanup (permit release,
        refunds) has run before it does.
        """
        clock = self.client.clock
        legs: dict[asyncio.Task, str] = {}  # running leg -> its role
        outcomes: list[tuple[str, object]] = []  # (role, result-or-error)

        def start(role: str, service: str, **options) -> None:
            legs[asyncio.ensure_future(self.invoker.ainvoke(
                service, operation, payload, use_cache=use_cache,
                deadline=deadline, **options))] = role

        async def collect(timeout: float | None) -> None:
            # Legs done within ``timeout`` seconds, oldest first.
            done, _ = await asyncio.wait(legs, timeout=timeout,
                                         return_when=asyncio.FIRST_COMPLETED)
            for task in [task for task in legs if task in done]:
                error = (asyncio.CancelledError() if task.cancelled()
                         else task.exception())
                outcomes.append((legs.pop(task),
                                 error if error is not None else task.result()))

        try:
            start("primary", primary)
            hedge_after = self.deadline_for(primary)
            if deadline is not None:
                # Never wait past the caller's budget before deciding.
                hedge_after = min(hedge_after, deadline.remaining())
            wait_start = clock.now()
            await collect(hedge_after)
            self.client.obs.tracer.add_event(
                "hedge.wait", {"service": primary,
                               "seconds": clock.now() - wait_start,
                               "deadline": hedge_after})
            # Hedge when the primary is slow — or when it already failed
            # (an error is the slowest possible answer).  But a backup
            # launched past the deadline cannot produce a usable answer:
            # ride out the primary leg instead.
            if _first_success(outcomes) is None and not (
                    deadline is not None and deadline.expired()):
                self.stats.hedges_fired += 1
                self._metric_fired.inc()
                # The backup must be an independent upstream probe: if it
                # coalesced onto an already-slow in-flight identical call
                # it would just wait behind the same laggard it is meant
                # to outrun.
                start("backup", backup, coalesce=False)
            while (winner := _first_success(outcomes)) is None:
                if not legs:
                    raise outcomes[0][1]  # every leg failed
                await collect(None)
            return winner
        finally:
            for task in legs:
                task.cancel()
            if legs:
                await asyncio.gather(*legs, return_exceptions=True)


def _first_success(outcomes: list) -> tuple | None:
    """The earliest ``(role, result)`` whose leg did not fail."""
    for role, outcome in outcomes:
        if not isinstance(outcome, BaseException):
            return role, outcome
    return None
