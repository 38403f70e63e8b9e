"""Hedged requests as cancellable tasks.

The event-loop binding of :class:`~repro.core.hedging.HedgedInvoker`
— ranking, hedge delay, fire decision, winner selection and stats are
that class's one policy coroutine — with the one upgrade threads could
not provide: when a leg wins the race, the **losing leg is cancelled**
instead of running to completion in the background.  A cancelled leg
releases its bulkhead permit and refunds its reservations (see
:meth:`~repro.core.aio.invoker.AsyncInvoker._upstream`), so
hedging no longer pays for two full calls when one answer suffices.

Like the sync hedger, this requires a scaled real clock — hedging
races timers against in-flight calls, which a virtual clock cannot
express.
"""

from __future__ import annotations

import asyncio
from collections.abc import Mapping

from repro.core.aio.invoker import AsyncInvoker
from repro.core.hedging import HedgedInvoker
from repro.core.invoker import InvocationResult
from repro.core.ranking import Weights
from repro.util.deadline import Deadline


class AsyncHedgedInvoker(HedgedInvoker):
    """Race a cancellable backup task against a slow primary.

    The primary leg goes through :meth:`AsyncInvoker.ainvoke` (cache,
    coalescing, admission); the backup leg uses ``coalesce=False`` so
    it never joins the flight it is hedging.  Cancelling the caller's
    task cancels both in-flight legs.  (The inherited blocking
    ``invoke`` cannot drive loop-native legs and raises.)
    """

    def __init__(
        self,
        invoker: AsyncInvoker,
        deadline_percentile: float = 0.95,
        default_deadline: float = 0.5,
        weights: Weights = Weights(),
    ) -> None:
        """Build the hedger over ``invoker`` (same knobs as the sync one)."""
        super().__init__(invoker.client, deadline_percentile,
                         default_deadline, weights)
        self.invoker = invoker

    async def ainvoke(
        self,
        kind: str,
        operation: str,
        payload: Mapping[str, object] | None = None,
        use_cache: bool = True,
        candidates: list[str] | None = None,
        deadline: Deadline | None = None,
    ) -> InvocationResult:
        """Invoke with hedging across the top two ranked services.

        :meth:`~repro.core.hedging.HedgedInvoker.invoke`, awaited: the
        backup fires when the primary is slower than its observed
        percentile (or already failed), never past the caller's
        ``deadline``; the first successful leg wins and **the loser is
        cancelled**.  Cancelling this coroutine cancels both legs.
        """
        return await self._hedged(kind, operation, payload, use_cache,
                                  candidates, deadline)

    # Loop binding: legs are tasks, kept as {task: role} while running.

    _legs_type = dict

    def _call(self, service: str, operation: str, payload, **options):
        return self.invoker.ainvoke(service, operation, payload, **options)

    def _start_leg(self, legs, role: str, service: str, operation: str,
                   payload, **options) -> None:
        legs[asyncio.ensure_future(
            self._call(service, operation, payload, **options))] = role

    async def _wait_next(self, legs, timeout: float | None) -> list:
        """Legs that finished within ``timeout`` wall seconds, oldest leg
        first; a cancelled leg counts as failed with its cancellation."""
        done, _ = await asyncio.wait(legs, timeout=timeout,
                                     return_when=asyncio.FIRST_COMPLETED)
        finished = []
        for task in [task for task in legs if task in done]:
            error = (asyncio.CancelledError() if task.cancelled()
                     else task.exception())
            finished.append((legs.pop(task),
                             error if error is not None else task.result()))
        return finished

    async def _drop_losers(self, legs) -> None:
        """Cancel the legs still running and wait for their cleanup
        (permit release, refunds) to have run."""
        for task in legs:
            task.cancel()
        if legs:
            await asyncio.gather(*legs, return_exceptions=True)
