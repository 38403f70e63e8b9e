"""Micro-batching on asyncio futures — bounded windows, no threads.

The event-loop binding of :class:`~repro.core.batching.MicroBatcher`:
window open, tightest-deadline tracking, flush-at-size /
flush-at-deadline, per-rider fan-out and flush accounting are that
class's coroutines; here their one wait point is
:meth:`~repro.core.aio.invoker.AsyncInvoker.ainvoke_batched`, awaited,
and riders get ``asyncio.Future``\\ s.
"""

from __future__ import annotations

import asyncio

from repro.core.batching import MicroBatcher
from repro.util.deadline import Deadline


class AsyncMicroBatcher(MicroBatcher):
    """Bounded-window batcher over an :class:`AsyncInvoker`.

    Cancelling a rider's future before the flush detaches that rider
    only (its payload still ships with the window — the wire call is
    shared); a whole-batch failure fails every still-attached rider's
    future.
    """

    def __init__(self, invoker, max_batch_size: int | None = None,
                 max_wait: float = 0.05) -> None:
        """Build the batcher (same knobs as the sync one)."""
        super().__init__(invoker.client, max_batch_size=max_batch_size,
                         max_wait=max_wait)
        self.invoker = invoker

    async def submit(self, service_name: str, operation: str,
                     payload: dict | None = None,
                     use_cache: bool = True,
                     deadline: Deadline | None = None) -> asyncio.Future:
        """Queue one request; returns the future for its own result.

        Cache hits resolve immediately without entering a window.  A
        full (or expired) window flushes — awaited — before this
        coroutine returns; the returned future may therefore already
        be settled.  Cancellation during the flush cancels the whole
        batch call (every rider fails with the cancellation).
        """
        return await self._submit(service_name, operation, payload,
                                  use_cache, deadline)

    async def flush_due(self) -> int:
        """Flush every window older than ``max_wait``; returns items sent."""
        return await self._flush(due_only=True)

    async def flush_all(self) -> int:
        """Flush every open window regardless of age; returns items sent."""
        return await self._flush(due_only=False)

    # Loop binding: asyncio-future riders, awaited batched invoke.

    def _new_future(self):
        return asyncio.get_running_loop().create_future()

    def _is_open(self, future) -> bool:
        return not future.done()

    def _invoke_batched(self, *args, **kwargs):
        return self.invoker.ainvoke_batched(*args, **kwargs)
