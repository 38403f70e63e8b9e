"""Tests for admission control: bulkheads, queueing, shedding, 429s."""

import threading

import pytest

from repro import RichClient, build_world
from repro.core.admission import (
    REASON_QUEUE_FULL,
    REASON_QUEUE_TIMEOUT,
    AdmissionController,
    AdmissionLimit,
    AdmissionRejectedError,
    Bulkhead,
)
from repro.core.gateway import SdkGateway
from repro.util.clock import ManualClock, RealClock

TEXT = "IBM announced excellent results while Initech struggled badly."


class TestAdmissionLimit:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionLimit(max_concurrent=0)
        with pytest.raises(ValueError):
            AdmissionLimit(max_queue=-1)
        with pytest.raises(ValueError):
            AdmissionLimit(queue_timeout=-0.1)


class TestBulkhead:
    def test_try_acquire_until_full(self):
        bulkhead = Bulkhead(ManualClock(), "svc",
                            AdmissionLimit(max_concurrent=2))
        assert bulkhead.try_acquire()
        assert bulkhead.try_acquire()
        assert not bulkhead.try_acquire()
        assert bulkhead.inflight == 2
        bulkhead.release()
        assert bulkhead.try_acquire()
        assert bulkhead.stats.peak_inflight == 2

    def test_fast_fail_when_queue_full(self):
        clock = ManualClock()
        bulkhead = Bulkhead(clock, "svc", AdmissionLimit(
            max_concurrent=1, max_queue=0, queue_timeout=0.5))
        bulkhead.acquire()
        with pytest.raises(AdmissionRejectedError) as exc_info:
            bulkhead.acquire()
        assert exc_info.value.reason == REASON_QUEUE_FULL
        assert exc_info.value.service == "svc"
        assert exc_info.value.retry_after == 0.5
        # Fast fail: no simulated time was spent.
        assert clock.now() == 0.0
        assert bulkhead.stats.shed_queue_full == 1

    def test_queue_timeout_charges_the_manual_clock(self):
        clock = ManualClock()
        bulkhead = Bulkhead(clock, "svc", AdmissionLimit(
            max_concurrent=1, max_queue=1, queue_timeout=0.25))
        bulkhead.acquire()
        with pytest.raises(AdmissionRejectedError) as exc_info:
            bulkhead.acquire()
        assert exc_info.value.reason == REASON_QUEUE_TIMEOUT
        # The caller really waited the whole queue window.
        assert clock.now() == pytest.approx(0.25)
        assert bulkhead.stats.queued == 1
        assert bulkhead.stats.shed_timeout == 1
        assert bulkhead.stats.total_queue_wait == pytest.approx(0.25)
        assert bulkhead.queue_depth == 0

    def test_queued_caller_admitted_on_release_real_clock(self):
        # Threads park in wall time: a 5 s window, released within ~0.25 s.
        clock = RealClock()
        bulkhead = Bulkhead(clock, "svc", AdmissionLimit(
            max_concurrent=1, max_queue=1, queue_timeout=5.0))
        bulkhead.acquire()
        admitted = threading.Event()

        def waiter():
            bulkhead.acquire()
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        # Give the waiter time to enter the queue, then free the permit.
        deadline = 50
        while bulkhead.queue_depth == 0 and deadline:
            deadline -= 1
            threading.Event().wait(0.005)
        bulkhead.release()
        thread.join(timeout=2.0)
        assert admitted.is_set()
        assert bulkhead.stats.queued == 1
        assert bulkhead.stats.shed == 0

    def test_release_without_acquire_raises(self):
        bulkhead = Bulkhead(ManualClock(), "svc")
        with pytest.raises(RuntimeError, match="release without acquire"):
            bulkhead.release()

    def test_admit_context_manager_releases(self):
        bulkhead = Bulkhead(ManualClock(), "svc",
                            AdmissionLimit(max_concurrent=1))
        with bulkhead.admit():
            assert bulkhead.inflight == 1
        assert bulkhead.inflight == 0


class TestPushOut:
    """A full fair queue gives up the longest lane's newest waiter.

    Driven through the decision methods, as the stateful machine does:
    a ticket is a queued caller whose park has not returned yet.
    """

    @staticmethod
    def held(fair, max_queue):
        """A one-permit bulkhead whose permit is already taken."""
        bulkhead = Bulkhead(ManualClock(), "svc", AdmissionLimit(
            max_concurrent=1, max_queue=max_queue, queue_timeout=1.0),
            fair=fair)
        assert bulkhead._arrive(None, "holder") is None
        return bulkhead

    def test_a_full_fair_queue_pushes_out_the_hogs_newest_waiter(self):
        bulkhead = self.held(fair=True, max_queue=2)
        oldest = bulkhead._arrive(None, "hog")
        newest = bulkhead._arrive(None, "hog")
        mouse = bulkhead._arrive(None, "mouse")
        assert mouse is not None and not mouse.evicted
        assert newest.evicted and newest.wake.is_set()
        assert not oldest.evicted
        assert bulkhead.queue_depth == 2
        # Counted once, when pushed out; its caller is told queue-full.
        assert bulkhead.stats.shed_queue_full == 1
        assert bulkhead.stats.shed_by_tenant == {"hog": 1}
        with pytest.raises(AdmissionRejectedError) as exc_info:
            bulkhead._resume(newest)
        assert exc_info.value.reason == REASON_QUEUE_FULL
        assert exc_info.value.retry_after == 1.0
        assert bulkhead.stats.shed_queue_full == 1
        assert bulkhead.queue_depth == 2
        # Both remaining waiters are still served.
        bulkhead.release()
        bulkhead.release()
        assert oldest.admitted and mouse.admitted
        assert bulkhead.stats.shed == 1

    def test_fifo_sheds_the_newcomer_instead(self):
        bulkhead = self.held(fair=False, max_queue=2)
        waiters = [bulkhead._arrive(None, "hog") for _ in range(2)]
        with pytest.raises(AdmissionRejectedError) as exc_info:
            bulkhead._arrive(None, "mouse")
        assert exc_info.value.reason == REASON_QUEUE_FULL
        assert bulkhead.stats.shed_by_tenant == {"mouse": 1}
        bulkhead.release()
        bulkhead.release()
        assert all(ticket.admitted for ticket in waiters)

    def test_no_push_out_unless_the_newcomers_lane_stays_shorter(self):
        # mouse 1, hog 2: a second mouse would make the lanes level, so
        # it is the newcomer that is shed (no churn between equals).
        bulkhead = self.held(fair=True, max_queue=3)
        tickets = [bulkhead._arrive(None, tenant)
                   for tenant in ("mouse", "hog", "hog")]
        with pytest.raises(AdmissionRejectedError):
            bulkhead._arrive(None, "mouse")
        assert bulkhead.stats.shed_by_tenant == {"mouse": 1}
        for _ in tickets:
            bulkhead.release()
        assert all(ticket.admitted for ticket in tickets)

    def test_the_untenanted_lane_is_compared_by_its_own_depth(self):
        # Untenanted callers share the "_default" lane: one queued there
        # against the hog's three, so a second one is still shorter and
        # pushes the hog out.  (The scheduler's depth(None) is the queue's
        # total, 4, which would shed the newcomer instead.)
        bulkhead = self.held(fair=True, max_queue=4)
        untenanted = bulkhead._arrive(None, None)
        hogs = [bulkhead._arrive(None, "hog") for _ in range(3)]
        newcomer = bulkhead._arrive(None, None)
        assert newcomer is not None
        assert [ticket.evicted for ticket in hogs] == [False, False, True]
        assert not untenanted.evicted
        assert bulkhead.stats.shed_by_tenant == {"hog": 1}

    def test_a_cancelled_pushed_out_waiter_leaves_nothing_behind(self):
        bulkhead = self.held(fair=True, max_queue=2)
        oldest, newest = (bulkhead._arrive(None, "hog") for _ in range(2))
        mouse = bulkhead._arrive(None, "mouse")
        assert newest.evicted
        bulkhead._withdraw(newest)
        assert bulkhead.queue_depth == 2
        assert len(bulkhead._queue) == 2
        bulkhead.release()
        bulkhead.release()
        assert oldest.admitted and mouse.admitted
        assert bulkhead.inflight == 1
        assert bulkhead.stats.shed_queue_full == 1


class TestAdmissionController:
    def test_unconfigured_service_is_unlimited_by_default(self):
        controller = AdmissionController(ManualClock())
        assert controller.bulkhead_for("anything") is None

    def test_default_limit_applies_to_every_service(self):
        controller = AdmissionController(
            ManualClock(), default_limit=AdmissionLimit(max_concurrent=3))
        bulkhead = controller.bulkhead_for("svc")
        assert bulkhead is not None
        assert bulkhead.limit.max_concurrent == 3
        # Same bulkhead instance on repeat lookups.
        assert controller.bulkhead_for("svc") is bulkhead

    def test_configure_overrides_the_default_limit(self):
        controller = AdmissionController(
            ManualClock(), default_limit=AdmissionLimit(max_concurrent=3))
        bulkhead = controller.configure("svc", AdmissionLimit(
            max_concurrent=1, max_queue=0))
        assert controller.bulkhead_for("svc") is bulkhead
        bulkhead.acquire()
        with pytest.raises(AdmissionRejectedError):
            bulkhead.acquire()
        assert bulkhead.stats.shed == 1


class TestClientIntegration:
    @pytest.fixture
    def guarded(self):
        world = build_world(seed=42, corpus_size=20)
        admission = AdmissionController(world.clock, limits={
            "glotta": AdmissionLimit(max_concurrent=1, max_queue=0,
                                     queue_timeout=0.5),
        })
        client = RichClient(world.registry, admission=admission)
        yield world, admission, client
        client.close()

    def test_invoke_sheds_when_bulkhead_is_full(self, guarded):
        world, admission, client = guarded
        bulkhead = admission.bulkhead_for("glotta")
        bulkhead.acquire()  # an in-flight call holds the only permit
        with pytest.raises(AdmissionRejectedError):
            client.invoke("glotta", "analyze", {"text": TEXT},
                          use_cache=False)
        # The shed request never reached the wire.
        assert world.service("glotta").stats.calls == 0
        bulkhead.release()
        result = client.invoke("glotta", "analyze", {"text": TEXT},
                               use_cache=False)
        assert result.service == "glotta"
        assert bulkhead.inflight == 0  # invoke released its permit

    def test_shed_counter_mirrored_to_metrics(self, guarded):
        _, admission, client = guarded
        bulkhead = admission.bulkhead_for("glotta")
        bulkhead.acquire()
        with pytest.raises(AdmissionRejectedError):
            client.invoke("glotta", "analyze", {"text": TEXT},
                          use_cache=False)
        snapshot = client.obs.metrics.snapshot()
        values = snapshot["admission_shed_total"]["values"]
        assert values == [{
            "labels": {"service": "glotta", "reason": REASON_QUEUE_FULL},
            "value": 1,
        }]

    def test_gateway_maps_shed_to_429_with_retry_after(self, guarded):
        _, admission, client = guarded
        gateway = SdkGateway(client)
        admission.bulkhead_for("glotta").acquire()
        envelope = gateway.handle({
            "method": "invoke",
            "params": {"service": "glotta", "operation": "analyze",
                       "payload": {"text": TEXT}, "use_cache": False},
        })
        assert envelope["status"] == 429
        assert envelope["error_type"] == "AdmissionRejectedError"
        assert envelope["retry_after"] == pytest.approx(0.5)

    def test_cache_hits_bypass_admission(self, guarded):
        _, admission, client = guarded
        client.invoke("glotta", "analyze", {"text": TEXT})
        admission.bulkhead_for("glotta").acquire()
        hit = client.invoke("glotta", "analyze", {"text": TEXT})
        assert hit.cached
