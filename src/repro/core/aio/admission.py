"""Admission control as awaitables: the bulkhead, parked on the loop.

The event-loop *binding* of :mod:`repro.core.admission`.  Every
decision — fast path, shed reasons and honest ``retry_after``, the
bounded queue window (charged whole under a virtual clock), FIFO or
DRR-fair hand-over of freed permits, stats and metric names — is
:class:`~repro.core.admission.Bulkhead`'s own code; what this module
adds is how a queued caller *parks*: on an asyncio future instead of a
thread event, so thousands of waiters share one loop.

Permit state is per driver: ``client.admission`` and
``client.aio.admission`` bound their own in-flight calls.
"""

from __future__ import annotations

import asyncio

from repro.core.admission import AdmissionController, Bulkhead


class AsyncBulkhead(Bulkhead):
    """One service's concurrency limit plus bounded wait queue (async).

    Every successful :meth:`acquire` must be paired with
    :meth:`release`.  Cancellation-safe: a waiter cancelled mid-queue
    withdraws cleanly — its queue slot (and DRR ticket) is given up,
    and a permit it was handed just before the cancellation landed is
    passed on to the next waiter, never swallowed.  A cancelled
    *admitted* caller is the caller's responsibility to release, which
    :class:`~repro.core.aio.invoker.AsyncInvoker` does in a
    ``finally``.
    """

    async def acquire(self, deadline=None, tenant: str | None = None) -> float:
        """Take a permit, awaiting briefly if the bulkhead is full.

        Returns the (simulated) seconds spent waiting; reasons and
        ``retry_after`` of :class:`~repro.core.admission.AdmissionRejectedError`
        are those of :meth:`Bulkhead.acquire`.  Cancellation while
        queued leaves no permit held, so there is nothing to release.
        """
        ticket = self._arrive(deadline, tenant)
        return 0.0 if ticket is None else await self._wait(ticket)

    def admit(self, tenant: str | None = None):
        """Not on the loop binding: the inherited form would not await."""
        raise TypeError(
            "AsyncBulkhead has no admit(): pair `await acquire()` with release()")

    # The park primitive, loop binding: a task waits on a future.

    def _new_wake(self):
        return asyncio.get_running_loop().create_future()

    def _wake(self, ticket) -> None:
        ticket.wake.set_result(None)

    async def _park(self, ticket, seconds: float) -> None:
        # asyncio.wait, not wait_for: it neither cancels the wake-up
        # future on a lapse nor — the 3.11 wait_for race — swallows a
        # cancellation that lands together with the wake-up.
        await asyncio.wait({ticket.wake}, timeout=seconds)


class AsyncAdmissionController(AdmissionController):
    """Per-service async bulkheads sharing one clock and default sizing.

    :class:`~repro.core.admission.AdmissionController` building
    :class:`AsyncBulkhead`\\ s; :meth:`from_sync` clones a sync
    controller's limits so a :class:`~repro.core.aio.invoker.AsyncInvoker`
    applies the same admission policy its parent client does.  Permits
    are **not** shared with the sync controller — each core bounds its
    own in-flight calls — but both report into the same metric names.
    """

    _bulkhead_class = AsyncBulkhead

    @classmethod
    def from_sync(cls, controller: AdmissionController) -> "AsyncAdmissionController":
        """Clone a sync controller's policy (limits, fairness, clock)."""
        return cls(
            clock=controller.clock,
            default_limit=controller.default_limit,
            # Reaching into the sync controller's limit table is the
            # point: the async core must enforce the *same* policy.
            limits=dict(controller._limits),
            fair=controller.fair,
            weight_of=controller.weight_of,
        )
