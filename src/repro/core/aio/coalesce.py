"""Single-flight request coalescing on asyncio futures.

The event-loop binding of
:class:`~repro.core.batching.RequestCoalescer`: the flight table, its
stats and its metric names are that class's own code, and only the
flight type differs.  The leader task performs the real work; follower
tasks await the shared flight **behind a shield**, so cancelling one
follower detaches only that follower — the flight (and the leader's
upstream call) survives for everyone else.  Cancelling the *leader*
fails the flight with its cancellation, waking followers with the same
error rather than stranding them.
"""

from __future__ import annotations

import asyncio

from repro.core.batching import Flight, RequestCoalescer


class AsyncFlight(Flight):
    """One in-flight upstream call shared by any number of awaiters.

    :class:`~repro.core.batching.Flight` over an ``asyncio.Future`` of
    the running loop: the leader settles it exactly once with
    ``complete`` or ``fail``; followers ``await`` :meth:`result`.
    """

    def _new_future(self):
        return asyncio.get_running_loop().create_future()

    def _settled(self) -> bool:
        return self.future.done()

    async def result(self, timeout: float | None = None):
        """Await the shared outcome (shielded).

        Cancelling the awaiting task detaches only this awaiter; a
        ``timeout`` (wall seconds) bounds the wait with
        ``asyncio.TimeoutError`` without disturbing the flight.
        """
        if timeout is None:
            return await asyncio.shield(self.future)
        return await asyncio.wait_for(asyncio.shield(self.future), timeout)


class AsyncCoalescer(RequestCoalescer):
    """Single-flight table of :class:`AsyncFlight`\\ s (loop-local state).

    Same contract as :class:`~repro.core.batching.RequestCoalescer`:
    ``lead_or_join`` (call it from the loop) installs or joins a
    flight, the leader must settle via ``complete`` / ``fail``, and the
    table entry is removed on settlement so later identical requests
    start fresh.
    """

    _flight_class = AsyncFlight
