"""Tests for the async bulkhead: awaitable admission with DRR fairness."""

import asyncio

import pytest

from repro.core.admission import (
    REASON_DEADLINE,
    REASON_QUEUE_FULL,
    REASON_QUEUE_TIMEOUT,
    AdmissionController,
    AdmissionLimit,
    AdmissionRejectedError,
)
from repro.core.aio.admission import AsyncAdmissionController, AsyncBulkhead
from repro.util.clock import ManualClock, RealClock, run
from repro.util.deadline import Deadline


class TestFastPath:
    def test_acquire_and_release(self):
        async def scenario():
            bulkhead = AsyncBulkhead(ManualClock(), "svc",
                                     AdmissionLimit(max_concurrent=2))
            assert await bulkhead.acquire() == 0.0
            assert await bulkhead.acquire() == 0.0
            assert bulkhead.inflight == 2
            bulkhead.release()
            assert bulkhead.inflight == 1
            assert bulkhead.stats.peak_inflight == 2

        asyncio.run(scenario())

    def test_try_acquire_never_waits(self):
        async def scenario():
            bulkhead = AsyncBulkhead(ManualClock(), "svc",
                                     AdmissionLimit(max_concurrent=1))
            assert bulkhead.try_acquire()
            assert not bulkhead.try_acquire()

        asyncio.run(scenario())

    def test_release_without_acquire_is_a_bug(self):
        bulkhead = AsyncBulkhead(ManualClock(), "svc", AdmissionLimit())
        with pytest.raises(RuntimeError, match="release without acquire"):
            bulkhead.release()


class TestShedding:
    def test_queue_full_sheds_fast(self):
        async def scenario():
            bulkhead = AsyncBulkhead(ManualClock(), "svc", AdmissionLimit(
                max_concurrent=1, max_queue=0, queue_timeout=0.5))
            await bulkhead.acquire()
            with pytest.raises(AdmissionRejectedError) as exc_info:
                await bulkhead.acquire()
            assert exc_info.value.reason == REASON_QUEUE_FULL
            assert exc_info.value.retry_after == 0.5
            assert bulkhead.stats.shed_queue_full == 1

        asyncio.run(scenario())

    def test_spent_deadline_sheds_before_queueing(self):
        async def scenario():
            clock = ManualClock()
            bulkhead = AsyncBulkhead(clock, "svc",
                                     AdmissionLimit(max_concurrent=1))
            await bulkhead.acquire()
            deadline = Deadline.after(clock, 0.1)
            clock.advance(0.2)
            with pytest.raises(AdmissionRejectedError) as exc_info:
                await bulkhead.acquire(deadline=deadline, tenant="acme")
            assert exc_info.value.reason == REASON_DEADLINE
            assert bulkhead.stats.shed_by_tenant == {"acme": 1}

        asyncio.run(scenario())

    def test_virtual_clock_charges_the_window_then_sheds(self):
        async def scenario():
            clock = ManualClock()
            bulkhead = AsyncBulkhead(clock, "svc", AdmissionLimit(
                max_concurrent=1, max_queue=4, queue_timeout=0.25))
            await bulkhead.acquire()
            before = clock.now()
            with pytest.raises(AdmissionRejectedError) as exc_info:
                await bulkhead.acquire()
            assert exc_info.value.reason == REASON_QUEUE_TIMEOUT
            assert clock.now() - before == pytest.approx(0.25)
            assert bulkhead.stats.total_queue_wait == pytest.approx(0.25)

        asyncio.run(scenario())


class TestRealClockQueueing:
    """Contended queueing: waiters park until a release or their window
    lapses.  The scenarios run on a virtual loop, where a park is timed
    in simulated seconds, so every wait below is exact."""

    def test_fifo_waiter_wakes_when_a_permit_frees(self):
        clock = ManualClock()

        async def scenario():
            bulkhead = AsyncBulkhead(clock, "svc", AdmissionLimit(
                max_concurrent=1, max_queue=4, queue_timeout=5.0))
            await bulkhead.acquire()

            async def holder():
                await asyncio.sleep(0.05)
                bulkhead.release()

            release_task = asyncio.ensure_future(holder())
            waited = await bulkhead.acquire()
            await release_task
            assert waited == pytest.approx(0.05)
            assert bulkhead.inflight == 1
            assert bulkhead.stats.queued == 1

        run(scenario(), clock)

    def test_fifo_waiters_admit_in_arrival_order(self):
        clock = ManualClock()

        async def scenario():
            bulkhead = AsyncBulkhead(clock, "svc", AdmissionLimit(
                max_concurrent=1, max_queue=8, queue_timeout=5.0))
            await bulkhead.acquire()
            admitted = []

            async def waiter(tag):
                await bulkhead.acquire()
                admitted.append(tag)
                bulkhead.release()

            tasks = [asyncio.ensure_future(waiter(index)) for index in range(3)]
            await asyncio.sleep(0.05)
            bulkhead.release()
            await asyncio.gather(*tasks)
            assert admitted == [0, 1, 2]

        run(scenario(), clock)

    def test_queue_timeout_sheds_under_a_real_clock(self):
        # The one scenario left on the wall clock: a lapsed window sheds
        # there too (0.02 wall seconds).
        async def scenario():
            bulkhead = AsyncBulkhead(RealClock(), "svc", AdmissionLimit(
                max_concurrent=1, max_queue=4, queue_timeout=0.02))
            await bulkhead.acquire()
            with pytest.raises(AdmissionRejectedError) as exc_info:
                await bulkhead.acquire()
            assert exc_info.value.reason == REASON_QUEUE_TIMEOUT
            assert bulkhead.stats.shed_timeout == 1

        asyncio.run(scenario())

    def test_cancelled_waiter_withdraws_cleanly(self):
        clock = ManualClock()

        async def scenario():
            bulkhead = AsyncBulkhead(clock, "svc", AdmissionLimit(
                max_concurrent=1, max_queue=4, queue_timeout=5.0))
            await bulkhead.acquire()
            waiter = asyncio.ensure_future(bulkhead.acquire())
            await asyncio.sleep(0.02)
            assert bulkhead.queue_depth == 1
            waiter.cancel()
            await asyncio.gather(waiter, return_exceptions=True)
            assert bulkhead.queue_depth == 0
            # The permit is still grantable to the next arrival.
            bulkhead.release()
            assert await bulkhead.acquire() == 0.0

        run(scenario(), clock)

    @pytest.mark.parametrize("fair", [False, True], ids=["fifo", "fair"])
    def test_waiter_cancelled_after_its_wakeup_passes_the_permit_on(self, fair):
        """release() wakes the head waiter, which is cancelled before it
        runs: it must end cancelled (3.11's wait_for admitted it
        instead) and the permit must reach the next waiter at once, not
        when its own queue window lapses (3.12 lost the wake-up)."""
        clock = ManualClock()

        async def scenario():
            bulkhead = AsyncBulkhead(clock, "svc", AdmissionLimit(
                max_concurrent=1, max_queue=4, queue_timeout=25.0),
                fair=fair)
            await bulkhead.acquire()
            woken = asyncio.ensure_future(bulkhead.acquire(tenant="a"))
            next_up = asyncio.ensure_future(bulkhead.acquire(tenant="b"))
            await asyncio.sleep(0.02)
            assert bulkhead.queue_depth == 2
            bulkhead.release()
            woken.cancel()
            waited = await asyncio.wait_for(next_up, timeout=5.0)
            await asyncio.gather(woken, return_exceptions=True)
            assert woken.cancelled()
            assert waited == pytest.approx(0.02)  # not the 25 s window
            assert bulkhead.inflight == 1
            bulkhead.release()
            assert bulkhead.inflight == 0
            assert bulkhead.queue_depth == 0

        run(scenario(), clock)


class TestFairness:
    def test_drr_spreads_grants_across_tenants(self):
        clock = ManualClock()

        async def scenario():
            bulkhead = AsyncBulkhead(clock, "svc", AdmissionLimit(
                max_concurrent=1, max_queue=16, queue_timeout=5.0),
                fair=True)
            await bulkhead.acquire()
            admitted = []

            async def waiter(tenant, tag):
                await bulkhead.acquire(tenant=tenant)
                admitted.append((tenant, tag))
                await asyncio.sleep(0.01)
                bulkhead.release()

            tasks = [asyncio.ensure_future(waiter("hog", tag))
                     for tag in range(3)]
            tasks += [asyncio.ensure_future(waiter("mouse", 0))]
            await asyncio.sleep(0.05)
            bulkhead.release()
            await asyncio.gather(*tasks)
            assert len(admitted) == 4
            # Round-robin: the lone "mouse" item is served before the
            # hog's queue drains, not after it.
            assert admitted.index(("mouse", 0)) < 3
            assert bulkhead.stats.fair_grants == 4

        run(scenario(), clock)

    def test_cancelled_granted_ticket_regrants(self):
        clock = ManualClock()

        async def scenario():
            bulkhead = AsyncBulkhead(clock, "svc", AdmissionLimit(
                max_concurrent=1, max_queue=8, queue_timeout=5.0),
                fair=True)
            await bulkhead.acquire()
            first = asyncio.ensure_future(bulkhead.acquire(tenant="a"))
            second = asyncio.ensure_future(bulkhead.acquire(tenant="b"))
            await asyncio.sleep(0.02)
            first.cancel()
            await asyncio.gather(first, return_exceptions=True)
            bulkhead.release()
            await second
            assert bulkhead.inflight == 1

        run(scenario(), clock)


class TestPushOut:
    def test_the_pushed_out_task_is_shed_at_once_and_holds_no_permit(self):
        clock = ManualClock()

        async def scenario():
            bulkhead = AsyncBulkhead(clock, "svc", AdmissionLimit(
                max_concurrent=1, max_queue=2, queue_timeout=5.0),
                fair=True)
            await bulkhead.acquire(tenant="holder")
            hogs = [asyncio.ensure_future(bulkhead.acquire(tenant="hog"))
                    for _ in range(2)]
            await asyncio.sleep(0.1)
            mouse = asyncio.ensure_future(bulkhead.acquire(tenant="mouse"))
            await asyncio.wait([hogs[1]])
            with pytest.raises(AdmissionRejectedError) as exc_info:
                hogs[1].result()
            assert exc_info.value.reason == REASON_QUEUE_FULL
            # Shed the instant the mouse arrived, not when its window ran out.
            assert clock.now() == pytest.approx(0.1)
            assert bulkhead.inflight == 1
            assert bulkhead.queue_depth == 2
            assert bulkhead.stats.shed_by_tenant == {"hog": 1}
            bulkhead.release()
            assert await hogs[0] == pytest.approx(0.1)
            bulkhead.release()
            assert await mouse == 0.0
            bulkhead.release()
            assert bulkhead.inflight == 0

        run(scenario(), clock)


class TestVirtualLoopContention:
    def test_a_queued_waiter_is_admitted_at_the_release_instant(self):
        # On the virtual loop the queue is contended: the waiter parks,
        # and a release 0.3 s in hands it the permit then.  Its recorded
        # wait is those 0.3 s, not the 2 s window a standing clock
        # charges.
        clock = ManualClock()

        async def scenario():
            bulkhead = AsyncBulkhead(clock, "svc", AdmissionLimit(
                max_concurrent=1, max_queue=4, queue_timeout=2.0))
            await bulkhead.acquire()

            async def holder():
                await asyncio.sleep(0.3)
                bulkhead.release()

            release = asyncio.ensure_future(holder())
            waited = await bulkhead.acquire()
            await release
            return waited, clock.now(), bulkhead.stats

        waited, now, stats = run(scenario(), clock)
        assert waited == now == pytest.approx(0.3)
        assert stats.total_queue_wait == pytest.approx(0.3)
        assert stats.queued == 1 and stats.shed == 0

    def test_a_lapsed_window_sheds_after_exactly_the_window(self):
        clock = ManualClock()

        async def scenario():
            bulkhead = AsyncBulkhead(clock, "svc", AdmissionLimit(
                max_concurrent=1, max_queue=4, queue_timeout=0.4))
            await bulkhead.acquire()
            with pytest.raises(AdmissionRejectedError) as exc_info:
                await bulkhead.acquire()
            return exc_info.value.reason, bulkhead.stats

        reason, stats = run(scenario(), clock)
        assert reason == REASON_QUEUE_TIMEOUT
        assert clock.now() == pytest.approx(0.4)
        assert stats.total_queue_wait == pytest.approx(0.4)


class TestController:
    def test_from_sync_clones_policy(self):
        sync = AdmissionController(
            ManualClock(), default_limit=AdmissionLimit(max_concurrent=3))
        sync.configure("svc", AdmissionLimit(max_concurrent=1))
        cloned = AsyncAdmissionController.from_sync(sync)
        assert cloned.bulkhead_for("svc").limit.max_concurrent == 1
        assert cloned.bulkhead_for("other").limit.max_concurrent == 3

    def test_unlimited_when_no_limit_configured(self):
        controller = AsyncAdmissionController(ManualClock())
        assert controller.bulkhead_for("svc") is None
