"""Client-side quota and budget tracking.

Services enforce quotas server-side (:class:`repro.services.base.Quota`);
this tracker is the *client's* bookkeeping: how many invocations and how
much money the application has spent per service, and how much remains
of an optional self-imposed budget.  Together with caching it implements
§2.2's point that "for some services, the client may have a limited
quota of service invocations in a time period ... there is thus an
incentive to limit the number of service invocations."
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.util.errors import ReproError


class BudgetExceededError(ReproError):
    """The client refused a call that would exceed its own budget."""

    def __init__(self, service: str, kind: str, limit: float) -> None:
        super().__init__(f"budget for {service!r} exhausted ({kind} limit {limit})")
        self.service = service
        self.kind = kind
        self.limit = limit


@dataclass
class ServiceBudget:
    """Self-imposed per-service limits (None = unlimited)."""

    max_calls: int | None = None
    max_cost: float | None = None


@dataclass
class _Spend:
    calls: int = 0
    cost: float = 0.0


@dataclass
class QuotaReservation:
    """Call slots plus estimated cost charged atomically up front.

    Handed out by :meth:`ClientQuotaTracker.reserve`; the caller must
    either :meth:`~ClientQuotaTracker.settle` it (the round trip
    completed: true-up to the billed cost, refund the slots of items
    that were not served) or :meth:`~ClientQuotaTracker.cancel` it (the
    round trip failed: refund every slot and the estimate).  ``calls``
    is 1 for a single invocation and the number of payloads for a batch.
    """

    service: str
    estimated_cost: float = 0.0
    calls: int = 1
    open: bool = True


@dataclass
class ClientQuotaTracker:
    """Tracks spend and enforces optional self-imposed budgets.

    Thread-safe.  The historical :meth:`check` / :meth:`record` pair is
    kept for sequential callers, but it is **racy under concurrency**:
    a burst of threads can all pass ``check`` before any of them
    ``record``s, overshooting ``max_calls`` and ``max_cost``.  The
    invoker therefore uses the atomic :meth:`reserve` /
    :meth:`settle` / :meth:`cancel` path for single calls and batches
    alike, which charges the call slots (one per payload) and the
    estimated cost in the same critical section as the check.
    """

    budgets: dict[str, ServiceBudget] = field(default_factory=dict)
    _spend: dict[str, _Spend] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def set_budget(self, service: str, max_calls: int | None = None,
                   max_cost: float | None = None) -> None:
        """Set (or replace) this service's self-imposed budget."""
        with self._lock:
            self.budgets[service] = ServiceBudget(max_calls=max_calls,
                                                  max_cost=max_cost)

    def _check_locked(self, service: str, upcoming_cost: float,
                      calls: int = 1) -> None:
        budget = self.budgets.get(service)
        if budget is None:
            return
        spend = self._spend.get(service, _Spend())
        if budget.max_calls is not None and spend.calls + calls > budget.max_calls:
            raise BudgetExceededError(service, "calls", budget.max_calls)
        if budget.max_cost is not None and spend.cost + upcoming_cost > budget.max_cost:
            raise BudgetExceededError(service, "cost", budget.max_cost)

    def check(self, service: str, upcoming_cost: float = 0.0) -> None:
        """Raise :class:`BudgetExceededError` if one more call would overspend.

        Check-only: nothing is charged, so two threads that both pass
        can still jointly overspend.  Concurrent callers should use
        :meth:`reserve` instead.
        """
        with self._lock:
            self._check_locked(service, upcoming_cost)

    def has_cost_limit(self, service: str) -> bool:
        """Whether this service has a ``max_cost`` budget configured.

        The invoker uses this to skip computing a cost estimate on the
        hot path when no ledger would ever look at it.
        """
        with self._lock:
            budget = self.budgets.get(service)
            return budget is not None and budget.max_cost is not None

    def reserve(self, service: str, estimated_cost: float = 0.0,
                calls: int = 1) -> QuotaReservation:
        """Atomically check the budget **and** charge ``calls`` calls.

        The call slots (one per payload of a batch, all or none) and
        ``estimated_cost`` (the batch's summed estimate) are charged in
        the same critical section as the check, so a concurrent burst
        cannot overshoot ``max_calls`` (each admitted call holds its
        slot) or ``max_cost`` beyond estimate error.  Pair with
        :meth:`settle` once the round trip returned (adjusts to the
        actual billed cost) or :meth:`cancel` when it failed (refunds
        slots and estimate).
        """
        with self._lock:
            self._check_locked(service, estimated_cost, calls)
            spend = self._spend.setdefault(service, _Spend())
            spend.calls += calls
            spend.cost += estimated_cost
        return QuotaReservation(service, estimated_cost, calls)

    def settle(self, reservation: QuotaReservation, actual_cost: float,
               served: int | None = None) -> None:
        """True a reservation up to the cost the service actually billed.

        ``served`` is how many of the reserved calls the service
        answered (default: all of them); the slots of a batch's failed
        items are refunded, as a failed single call's slot is.
        """
        with self._lock:
            if not reservation.open:
                raise ValueError("reservation already settled or cancelled")
            reservation.open = False
            spend = self._spend.setdefault(reservation.service, _Spend())
            if served is not None:
                spend.calls -= reservation.calls - served
            spend.cost += actual_cost - reservation.estimated_cost

    def cancel(self, reservation: QuotaReservation) -> None:
        """Refund a reservation whose call never completed."""
        with self._lock:
            if not reservation.open:
                raise ValueError("reservation already settled or cancelled")
            reservation.open = False
            spend = self._spend.setdefault(reservation.service, _Spend())
            spend.calls -= reservation.calls
            spend.cost -= reservation.estimated_cost

    def record(self, service: str, cost: float) -> None:
        """Charge one completed call's cost against the ledger."""
        with self._lock:
            spend = self._spend.setdefault(service, _Spend())
            spend.calls += 1
            spend.cost += cost

    def calls(self, service: str) -> int:
        """Calls recorded for this service."""
        with self._lock:
            return self._spend.get(service, _Spend()).calls

    def cost(self, service: str) -> float:
        """Spend recorded for this service."""
        with self._lock:
            return self._spend.get(service, _Spend()).cost

    def total_cost(self) -> float:
        """Spend recorded across every service."""
        with self._lock:
            return sum(spend.cost for spend in self._spend.values())

    def remaining_calls(self, service: str) -> int | None:
        """Calls left under the budget (None = unlimited)."""
        with self._lock:
            budget = self.budgets.get(service)
            if budget is None or budget.max_calls is None:
                return None
            spend = self._spend.get(service, _Spend())
            return max(0, budget.max_calls - spend.calls)
