"""Weighted-fair scheduling: deficit round robin over tenant sub-queues.

A FIFO wait queue lets one aggressive tenant starve everyone else: its
backlog sits in front of every other tenant's requests.
:class:`DrrScheduler` is the classic fix — one FIFO sub-queue per
tenant, drained by **deficit round robin**: the scheduler cycles over
tenants with queued work, crediting each visit with ``quantum x
weight`` deficit and serving requests while the deficit lasts.  A
tenant with a 10x backlog still drains at its weighted share, because
the round only gives it ``weight`` credits per cycle regardless of
queue depth.

A full queue needs a second decision: who loses a slot.  Refusing the
newcomer would let a backlogged tenant keep every slot, so DRR would
only reorder *its* requests; :meth:`DrrScheduler.push_out` instead
takes the newest item of the sub-queue longest for its weight —
Longest Queue Drop (Suter et al., INFOCOM 1998).

The structure is deliberately free of clocks and threads — its one
caller, the bulkhead's wait queue, holds its own lock and drives it
deterministically, so its behaviour is unit-testable as pure
data-structure manipulation.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Generic, TypeVar

T = TypeVar("T")

#: Sub-queue key used when a request carries no tenant identity.
DEFAULT_TENANT = "_default"


class DrrScheduler(Generic[T]):
    """Deficit-round-robin queue of items keyed by tenant.

    ``weight_of`` maps a tenant id to its fair-share weight (default:
    everyone weighs 1.0, i.e. plain per-tenant round robin).  Each
    queued item costs one unit; a tenant reaching the head of the ring
    is credited ``quantum * weight`` and serves items while its deficit
    covers them.  A tenant whose queue empties leaves the ring and
    forfeits its residual deficit — fairness cannot be banked while
    idle.
    """

    def __init__(self, weight_of: Callable[[str], float] | None = None,
                 quantum: float = 1.0) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self._weight_of = weight_of
        self.quantum = quantum
        self._queues: dict[str, deque[T]] = {}
        self._deficit: dict[str, float] = {}
        self._ring: deque[str] = deque()
        # Ring membership guard: a tenant whose queue was drained by
        # remove() keeps its (stale) ring slot until pop_next skips it;
        # re-pushing meanwhile must not enqueue a duplicate slot.
        self._in_ring: set[str] = set()

    def weight(self, tenant: str) -> float:
        """The tenant's fair-share weight (>= a tiny positive floor)."""
        if self._weight_of is None:
            return 1.0
        return max(1e-9, float(self._weight_of(tenant)))

    def push(self, tenant: str | None, item: T) -> None:
        """Append ``item`` to the tenant's sub-queue (FIFO within tenant)."""
        key = tenant if tenant is not None else DEFAULT_TENANT
        queue = self._queues.get(key)
        if queue is None:
            queue = deque()
            self._queues[key] = queue
        if key not in self._in_ring:
            self._ring.append(key)
            self._in_ring.add(key)
            self._deficit.setdefault(key, 0.0)
        queue.append(item)

    def pop_next(self) -> T | None:
        """The next item under DRR order, or None when empty.

        The head tenant serves only from deficit it has already been
        credited; an unaffordable head is credited ``quantum * weight``
        and rotated to the back of the ring.  Crediting happens at
        rotation time — never while serving — so a tenant's turn ends
        when its credit runs out and each full cycle hands every queued
        tenant ``quantum * weight`` servings: that is the weighted
        share.  (Crediting the head in place would let it re-earn
        deficit after every serve and never yield the ring.)

        Guaranteed to terminate: every full rotation credits each
        queued tenant a positive deficit, so some tenant eventually
        affords its head-of-line item.
        """
        while self._ring:
            key = self._ring[0]
            queue = self._queues.get(key)
            if not queue:
                # Stale ring entry (queue drained via remove()).
                self._ring.popleft()
                self._in_ring.discard(key)
                self._deficit.pop(key, None)
                self._queues.pop(key, None)
                continue
            if self._deficit[key] >= 1.0:
                self._deficit[key] -= 1.0
                item = queue.popleft()
                if not queue:
                    self._ring.popleft()
                    self._in_ring.discard(key)
                    self._deficit.pop(key, None)
                    del self._queues[key]
                return item
            self._deficit[key] += self.quantum * self.weight(key)
            self._ring.rotate(-1)
        return None

    def remove(self, tenant: str | None, item: T) -> bool:
        """Withdraw one queued item (a waiter timing out); True if found."""
        key = tenant if tenant is not None else DEFAULT_TENANT
        queue = self._queues.get(key)
        if queue is None:
            return False
        try:
            queue.remove(item)
        except ValueError:
            return False
        # Empty queues are lazily dropped from the ring in pop_next.
        return True

    def push_out(self, tenant: str | None) -> T | None:
        """Make room for one more item of ``tenant`` in a full queue.

        The sub-queue longest for its weight (``depth / weight``; ties go
        to the one first in ring order) gives up its newest item — but
        only if ``tenant``'s own sub-queue, holding the new item, would
        still be shorter for its weight.  Returns the pushed-out item,
        or None when the newcomer is the one to refuse.  With a single
        sub-queue (every item under one key) nothing is ever pushed out.
        """
        longest, length = None, 0.0
        for key in self._ring:
            queue = self._queues.get(key)
            if queue and len(queue) / self.weight(key) > length:
                longest, length = queue, len(queue) / self.weight(key)
        key = tenant if tenant is not None else DEFAULT_TENANT
        own = len(self._queues.get(key, ()))
        if longest is None or (own + 1) / self.weight(key) >= length:
            return None
        return longest.pop()

    def depth(self, tenant: str | None = None) -> int:
        """Queued items for one tenant, or in total."""
        if tenant is not None:
            queue = self._queues.get(tenant)
            return len(queue) if queue is not None else 0
        return sum(len(queue) for queue in self._queues.values())

    def tenants(self) -> list[str]:
        """Tenants with queued work, in current ring order."""
        return [key for key in self._ring if self._queues.get(key)]

    def __len__(self) -> int:
        return self.depth()

    def __bool__(self) -> bool:
        return any(self._queues.values())
