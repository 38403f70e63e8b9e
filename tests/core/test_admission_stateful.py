"""Stateful test of the bulkhead's admission policy (ROADMAP item 4a).

Drives :class:`~repro.core.admission.Bulkhead`'s *decision* methods
alone — ``_arrive`` / ``release`` / ``_resume`` / ``_withdraw`` — under
arbitrary interleavings, in both queue disciplines.  No thread, no
event loop and no sleep is involved: a queued caller is just a ticket
the machine holds until it decides that caller wakes, lapses or is
cancelled, which is exactly what either driver's park does for real.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.admission import (
    REASON_DEADLINE,
    REASON_QUEUE_FULL,
    REASON_QUEUE_TIMEOUT,
    AdmissionLimit,
    AdmissionRejectedError,
    Bulkhead,
)
from repro.util.clock import ManualClock
from repro.util.deadline import Deadline

QUEUE_TIMEOUT = 1.0
#: Caller budgets: none, already spent, tighter than the queue window, roomy.
BUDGETS = st.sampled_from([None, 0.0, 0.25, 5.0])
TENANTS = st.sampled_from([None, "hog", "mouse", "owl"])


class BulkheadMachine(RuleBasedStateMachine):
    @initialize(fair=st.booleans(), max_concurrent=st.integers(1, 3),
                max_queue=st.integers(0, 4))
    def build(self, fair, max_concurrent, max_queue):
        self.clock = ManualClock()
        self.limit = AdmissionLimit(max_concurrent=max_concurrent,
                                    max_queue=max_queue,
                                    queue_timeout=QUEUE_TIMEOUT)
        self.bulkhead = Bulkhead(self.clock, "svc", self.limit, fair=fair)
        self.fair = fair
        self.running = 0      # callers holding a permit they must release
        self.parked = []      # tickets whose caller has not come back yet
        self.tickets = []     # every ticket ever issued
        self.returned = 0     # permits given back (release or pass-on)
        self.withdrawn = 0    # cancelled while still queued (never granted)
        self.shed_on_arrival = {REASON_DEADLINE: 0, REASON_QUEUE_FULL: 0}
        self.shed_after_queue = {REASON_DEADLINE: 0, REASON_QUEUE_TIMEOUT: 0}

    def pick(self, index):
        return self.parked[index % len(self.parked)]

    def granted(self):
        return [ticket for ticket in self.parked if ticket.admitted]

    # -- rules ---------------------------------------------------------------

    @rule(tenant=TENANTS, budget=BUDGETS)
    def arrive(self, tenant, budget):
        deadline = (Deadline.after(self.clock, budget)
                    if budget is not None else None)
        full = self.bulkhead.inflight == self.limit.max_concurrent
        queue_full = self.bulkhead.queue_depth >= self.limit.max_queue
        try:
            ticket = self.bulkhead._arrive(deadline, tenant)
        except AdmissionRejectedError as shed:
            assert full, "shed although a permit was free"
            assert shed.retry_after == QUEUE_TIMEOUT
            if budget == 0.0:
                assert shed.reason == REASON_DEADLINE
            else:
                assert queue_full and shed.reason == REASON_QUEUE_FULL
            self.shed_on_arrival[shed.reason] += 1
            return
        if ticket is None:
            assert not full
            self.running += 1
            return
        assert full and not queue_full
        assert ticket.reason == (REASON_DEADLINE if budget == 0.25
                                 else REASON_QUEUE_TIMEOUT)
        self.parked.append(ticket)
        self.tickets.append(ticket)

    @precondition(lambda self: self.running)
    @rule()
    def release(self):
        waiting = [ticket for ticket in self.parked if not ticket.admitted]
        self.bulkhead.release()
        self.running -= 1
        self.returned += 1
        if waiting:
            heirs = [ticket for ticket in waiting if ticket.admitted]
            assert len(heirs) == 1, "a freed permit goes to exactly one waiter"
            assert heirs[0].wake.is_set()
            if not self.fair:
                assert heirs[0] is waiting[0], "FIFO hands over in arrival order"

    @precondition(lambda self: self.granted())
    @rule(index=st.integers(0, 9))
    def wake(self, index):
        """A ticket that was handed a permit comes back and runs."""
        granted = self.granted()
        ticket = granted[index % len(granted)]
        assert self.bulkhead._resume(ticket) >= 0.0
        self.parked.remove(ticket)
        self.running += 1

    @precondition(lambda self: self.parked)
    @rule(index=st.integers(0, 9))
    def lapse(self, index):
        """A ticket's queue window runs out (handed a permit or not)."""
        ticket = self.pick(index)
        self.clock.advance(ticket.timeout)
        self.parked.remove(ticket)
        try:
            waited = self.bulkhead._resume(ticket)
        except AdmissionRejectedError as shed:
            assert not ticket.admitted
            assert shed.reason == ticket.reason
            assert shed.retry_after == QUEUE_TIMEOUT
            self.shed_after_queue[shed.reason] += 1
        else:
            assert ticket.admitted and waited >= ticket.timeout
            self.running += 1

    @precondition(lambda self: self.parked)
    @rule(index=st.integers(0, 9))
    def cancel(self, index):
        """A parked caller is cancelled; a permit it was handed moves on."""
        ticket = self.pick(index)
        self.parked.remove(ticket)
        self.bulkhead._withdraw(ticket)
        if ticket.admitted:
            self.returned += 1
        else:
            self.withdrawn += 1

    # -- invariants ----------------------------------------------------------

    @invariant()
    def permits_are_conserved(self):
        bulkhead, stats = self.bulkhead, self.bulkhead.stats
        assert 0 <= bulkhead.inflight <= self.limit.max_concurrent
        assert stats.peak_inflight <= self.limit.max_concurrent
        # Every permit in flight has exactly one owner: a running caller
        # or a ticket handed the permit that has not come back yet — so
        # there is never more than one outstanding grant per permit.
        assert bulkhead.inflight == self.running + len(self.granted())
        assert stats.admitted == self.returned + bulkhead.inflight

    @invariant()
    def the_queue_is_bounded_and_accounted(self):
        bulkhead, stats = self.bulkhead, self.bulkhead.stats
        waiting = sum(1 for ticket in self.parked if not ticket.admitted)
        assert bulkhead.queue_depth == waiting == len(bulkhead._queue)
        assert waiting <= self.limit.max_queue
        # Nobody waits while a permit is free.
        assert not waiting or bulkhead.inflight == self.limit.max_concurrent
        handed_over = sum(1 for ticket in self.tickets if ticket.admitted)
        assert stats.queued == len(self.tickets) == (
            handed_over + sum(self.shed_after_queue.values())
            + self.withdrawn + waiting)
        assert stats.fair_grants == (handed_over if self.fair else 0)

    @invariant()
    def sheds_are_counted_once_by_reason(self):
        stats = self.bulkhead.stats
        assert stats.shed_queue_full == self.shed_on_arrival[REASON_QUEUE_FULL]
        assert stats.shed_timeout == self.shed_after_queue[REASON_QUEUE_TIMEOUT]
        assert stats.shed_deadline == (self.shed_on_arrival[REASON_DEADLINE]
                                       + self.shed_after_queue[REASON_DEADLINE])

    def teardown(self):
        """Draining everything returns the bulkhead to empty."""
        if not hasattr(self, "bulkhead"):
            return
        for ticket in self.parked:
            self.bulkhead._withdraw(ticket)
        for _ in range(self.running):
            self.bulkhead.release()
        assert self.bulkhead.inflight == 0
        assert self.bulkhead.queue_depth == 0
        assert len(self.bulkhead._queue) == 0
        with pytest.raises(RuntimeError, match="release without acquire"):
            self.bulkhead.release()


TestBulkheadPolicy = BulkheadMachine.TestCase
TestBulkheadPolicy.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
