"""Stateful test of the client's budget ledger (ROADMAP item 4a).

Drives :class:`~repro.core.quota.ClientQuotaTracker`'s atomic path —
``reserve(calls=n)`` / ``settle(served=k)`` / ``cancel`` — under
arbitrary interleavings of single calls and batches across two
services, against a model that is nothing but sums: what was served
and billed, plus what is still reserved.  Costs are multiples of 1/64,
so every sum is exact and the refuse / admit decision can be predicted
to the bit.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.quota import BudgetExceededError, ClientQuotaTracker

SERVICES = st.sampled_from(["nlu", "vision"])
COSTS = st.integers(0, 64).map(lambda n: n / 64)
HEADROOM = st.none() | st.integers(0, 6)


class QuotaMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tracker = ClientQuotaTracker()
        self.limits = {}      # service -> (max_calls, max_cost)
        self.open = []        # reservations not yet settled or cancelled
        self.closed = []
        self.served = {"nlu": 0, "vision": 0}
        self.billed = {"nlu": 0.0, "vision": 0.0}

    def expected_calls(self, service):
        return self.served[service] + sum(
            r.calls for r in self.open if r.service == service)

    def expected_cost(self, service):
        return self.billed[service] + sum(
            r.estimated_cost for r in self.open if r.service == service)

    def ledger(self):
        return {service: (self.tracker.calls(service), self.tracker.cost(service))
                for service in self.served}

    @rule(service=SERVICES, calls=HEADROOM, cost=HEADROOM)
    def set_budget(self, service, calls, cost):
        """A budget at or above what is already spent (None = unlimited)."""
        max_calls = None if calls is None else self.expected_calls(service) + calls
        max_cost = None if cost is None else self.expected_cost(service) + cost / 8
        self.tracker.set_budget(service, max_calls=max_calls, max_cost=max_cost)
        self.limits[service] = (max_calls, max_cost)

    @rule(service=SERVICES, calls=st.integers(1, 5), estimate=COSTS)
    def reserve(self, service, calls, estimate):
        max_calls, max_cost = self.limits.get(service, (None, None))
        refusal = None
        if max_calls is not None and self.expected_calls(service) + calls > max_calls:
            refusal = "calls"
        elif max_cost is not None and self.expected_cost(service) + estimate > max_cost:
            refusal = "cost"
        before = self.ledger()
        if refusal is None:
            self.open.append(self.tracker.reserve(service, estimate, calls=calls))
            return
        with pytest.raises(BudgetExceededError) as refused:
            self.tracker.reserve(service, estimate, calls=calls)
        assert refused.value.kind == refusal
        assert self.ledger() == before  # a refused batch charges nothing

    @precondition(lambda self: self.open)
    @rule(index=st.integers(0, 99), actual=COSTS, share=st.none() | st.integers(0, 5))
    def settle(self, index, actual, share):
        reservation = self.open.pop(index % len(self.open))
        served = None if share is None else min(share, reservation.calls)
        self.tracker.settle(reservation, actual, served=served)
        self.served[reservation.service] += (
            reservation.calls if served is None else served)
        self.billed[reservation.service] += actual
        self.closed.append(reservation)

    @precondition(lambda self: self.open)
    @rule(index=st.integers(0, 99))
    def cancel(self, index):
        reservation = self.open.pop(index % len(self.open))
        self.tracker.cancel(reservation)
        self.closed.append(reservation)

    @precondition(lambda self: self.closed)
    @rule(index=st.integers(0, 99), settle=st.booleans())
    def close_twice(self, index, settle):
        reservation = self.closed[index % len(self.closed)]
        before = self.ledger()
        with pytest.raises(ValueError, match="already settled or cancelled"):
            if settle:
                self.tracker.settle(reservation, 1.0, served=0)
            else:
                self.tracker.cancel(reservation)
        assert self.ledger() == before

    @invariant()
    def ledger_is_served_plus_reserved(self):
        for service in self.served:
            calls = self.tracker.calls(service)
            assert calls == self.expected_calls(service)
            assert self.tracker.cost(service) == pytest.approx(
                self.expected_cost(service), abs=1e-9)
            max_calls, _ = self.limits.get(service, (None, None))
            if max_calls is not None:
                assert calls <= max_calls
                assert self.tracker.remaining_calls(service) == max_calls - calls
        assert self.tracker.total_cost() == pytest.approx(
            sum(map(self.expected_cost, self.served)), abs=1e-9)

    def teardown(self):
        """Cancelling whatever is still open leaves exactly what was served."""
        for reservation in self.open:
            self.tracker.cancel(reservation)
        self.open = []
        self.ledger_is_served_plus_reserved()


TestQuotaLedger = QuotaMachine.TestCase
TestQuotaLedger.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None)
