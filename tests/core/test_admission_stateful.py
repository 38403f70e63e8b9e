"""Stateful test of the bulkhead's admission policy (ROADMAP item 4a).

Drives :class:`~repro.core.admission.Bulkhead`'s *decision* methods
alone — ``_arrive`` / ``release`` / ``_resume`` / ``_withdraw`` — under
arbitrary interleavings, in both queue disciplines.  No thread, no
event loop and no sleep is involved: a queued caller is just a ticket
the machine holds until it decides that caller wakes, lapses or is
cancelled, which is exactly what either driver's park does for real.

In fair mode a full queue pushes out the newest ticket of the lane
longest for its weight (Longest Queue Drop); ``arrive`` predicts which
ticket that is from its own model of the lanes, and the tenant mix is
hog-heavy, and a ``flood`` rule fills the bulkhead with the hog before
another tenant arrives, so that the branch is reached (``runTest``
asserts it was).
"""

from collections import Counter

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
from repro.tenancy.scheduling import DEFAULT_TENANT
from repro.util.clock import ManualClock
from repro.util.deadline import Deadline

QUEUE_TIMEOUT = 1.0
#: Caller budgets: none, already spent, tighter than the queue window, roomy.
BUDGETS = st.sampled_from([None, 0.0, 0.25, 5.0])
#: Hog-heavy, so that full fair queues have a longest lane to push out of.
TENANTS = st.sampled_from(["hog", "hog", "hog", None, "mouse", "owl"])
#: Fair-share weights (the untenanted lane and unknown tenants weigh 1).
WEIGHTS = {"hog": 1.0, "mouse": 2.0, "owl": 0.5}


def weight_of(lane):
    return WEIGHTS.get(lane, 1.0)


class BulkheadMachine(RuleBasedStateMachine):
    #: Push-outs over every example of a run (checked by ``runTest``).
    pushed_out_total = 0

    @initialize(fair=st.booleans(), max_concurrent=st.integers(1, 3),
                max_queue=st.integers(0, 4))
    def build(self, fair, max_concurrent, max_queue):
        self.clock = ManualClock()
        self.limit = AdmissionLimit(max_concurrent=max_concurrent,
                                    max_queue=max_queue,
                                    queue_timeout=QUEUE_TIMEOUT)
        self.bulkhead = Bulkhead(self.clock, "svc", self.limit, fair=fair,
                                 weight_of=weight_of)
        self.fair = fair
        self.running = 0      # callers holding a permit they must release
        self.parked = []      # tickets whose caller has not come back yet
        self.tickets = []     # every ticket ever issued
        self.returned = 0     # permits given back (release or pass-on)
        self.withdrawn = 0    # cancelled while still queued (never granted)
        self.shed_on_arrival = {REASON_DEADLINE: 0, REASON_QUEUE_FULL: 0}
        self.shed_after_queue = {REASON_DEADLINE: 0, REASON_QUEUE_TIMEOUT: 0}
        self.pushed_out = 0   # tickets a newcomer pushed out of a full queue
        self.shed_by_tenant = Counter()

    def pick(self, index):
        return self.parked[index % len(self.parked)]

    def granted(self):
        return [ticket for ticket in self.parked if ticket.admitted]

    def waiting(self):
        return [ticket for ticket in self.parked
                if not ticket.admitted and not ticket.evicted]

    def lane(self, tenant):
        if not self.fair or tenant is None:
            return DEFAULT_TENANT
        return tenant

    def predict_push_out(self, tenant):
        """The ticket a full queue gives up for ``tenant``'s newcomer.

        The lane longest for its weight (ties: first in the scheduler's
        ring) loses its newest ticket if the newcomer's lane, holding
        the newcomer, would still be shorter for its weight.  FIFO files
        every ticket in one lane, so it never pushes out.
        """
        lanes = {}
        for ticket in self.waiting():
            lanes.setdefault(self.lane(ticket.tenant), []).append(ticket)
        longest, length = None, 0.0
        for key in self.bulkhead._queue.tenants():
            if len(lanes[key]) / weight_of(key) > length:
                longest, length = key, len(lanes[key]) / weight_of(key)
        own = self.lane(tenant)
        if (longest is None
                or (len(lanes.get(own, ())) + 1) / weight_of(own) >= length):
            return None
        return lanes[longest][-1]

    def count_shed(self, tenant):
        if tenant is not None:
            self.shed_by_tenant[tenant] += 1

    # -- rules ---------------------------------------------------------------

    @rule(tenant=TENANTS, budget=BUDGETS)
    def arrive(self, tenant, budget):
        deadline = (Deadline.after(self.clock, budget)
                    if budget is not None else None)
        full = self.bulkhead.inflight == self.limit.max_concurrent
        queue_full = self.bulkhead.queue_depth >= self.limit.max_queue
        victim = (self.predict_push_out(tenant)
                  if full and queue_full and budget != 0.0 else None)
        evicted_before = [other for other in self.tickets if other.evicted]
        try:
            ticket = self.bulkhead._arrive(deadline, tenant)
        except AdmissionRejectedError as shed:
            assert full, "shed although a permit was free"
            assert shed.retry_after == QUEUE_TIMEOUT
            if budget == 0.0:
                assert shed.reason == REASON_DEADLINE
            else:
                assert queue_full and shed.reason == REASON_QUEUE_FULL
                assert victim is None, "shed although a lane was longer"
            self.shed_on_arrival[shed.reason] += 1
            self.count_shed(tenant)
            return
        newly_evicted = [other for other in self.tickets
                         if other.evicted and other not in evicted_before]
        assert newly_evicted == ([] if victim is None else [victim])
        if ticket is None:
            assert not full
            self.running += 1
            return
        assert full and (not queue_full or victim is not None)
        if victim is not None:
            assert victim.evicted and victim.wake.is_set()
            self.pushed_out += 1
            BulkheadMachine.pushed_out_total += 1
            self.count_shed(victim.tenant)
        assert ticket.reason == (REASON_DEADLINE if budget == 0.25
                                 else REASON_QUEUE_TIMEOUT)
        self.parked.append(ticket)
        self.tickets.append(ticket)

    @rule(tenant=st.sampled_from([None, "mouse", "owl"]))
    def flood(self, tenant):
        """The hog takes every free permit and queue slot, then
        ``tenant`` arrives at the full bulkhead."""
        while (self.bulkhead.inflight < self.limit.max_concurrent
               or self.bulkhead.queue_depth < self.limit.max_queue):
            self.arrive("hog", None)
        self.arrive(tenant, None)

    @precondition(lambda self: self.running)
    @rule()
    def release(self):
        waiting = self.waiting()
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

    @precondition(lambda self: any(ticket.evicted for ticket in self.parked))
    @rule(index=st.integers(0, 9))
    def pushed_out_returns(self, index):
        """A pushed-out caller, woken at once, is shed ``queue-full``
        without being counted again."""
        evicted = [ticket for ticket in self.parked if ticket.evicted]
        ticket = evicted[index % len(evicted)]
        self.parked.remove(ticket)
        with pytest.raises(AdmissionRejectedError) as shed:
            self.bulkhead._resume(ticket)
        assert shed.value.reason == REASON_QUEUE_FULL
        assert shed.value.retry_after == QUEUE_TIMEOUT

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
            assert shed.retry_after == QUEUE_TIMEOUT
            if ticket.evicted:
                assert shed.reason == REASON_QUEUE_FULL
                return
            assert shed.reason == ticket.reason
            self.shed_after_queue[shed.reason] += 1
            self.count_shed(ticket.tenant)
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
        elif not ticket.evicted:
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
        waiting = len(self.waiting())
        assert bulkhead.queue_depth == waiting == len(bulkhead._queue)
        assert waiting <= self.limit.max_queue
        # Nobody waits while a permit is free.
        assert not waiting or bulkhead.inflight == self.limit.max_concurrent
        handed_over = sum(1 for ticket in self.tickets if ticket.admitted)
        assert self.pushed_out == sum(1 for ticket in self.tickets
                                      if ticket.evicted)
        assert stats.queued == len(self.tickets) == (
            handed_over + sum(self.shed_after_queue.values())
            + self.withdrawn + self.pushed_out + waiting)
        assert stats.fair_grants == (handed_over if self.fair else 0)

    @invariant()
    def sheds_are_counted_once_by_reason(self):
        stats = self.bulkhead.stats
        # A pushed-out ticket is one queue-full shed, counted when it
        # was pushed out (not again when its caller comes back).
        assert stats.shed_queue_full == (self.shed_on_arrival[REASON_QUEUE_FULL]
                                         + self.pushed_out)
        assert stats.shed_by_tenant == self.shed_by_tenant
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


class TestBulkheadPolicy(BulkheadMachine.TestCase):
    settings = settings(max_examples=60, stateful_step_count=40,
                        deadline=None)

    def runTest(self):
        BulkheadMachine.pushed_out_total = 0
        super().runTest()
        assert BulkheadMachine.pushed_out_total > 0, (
            "no example reached the push-out branch")
