"""Tests for the clock abstraction."""

import asyncio
import threading
import time

import pytest

from repro.util.clock import ManualClock, RealClock, VirtualLoop, acharge, run


class TestManualClock:
    def test_starts_at_zero_by_default(self):
        assert ManualClock().now() == 0.0

    def test_starts_at_given_time(self):
        assert ManualClock(start=100.0).now() == 100.0

    def test_advance_moves_time_forward(self):
        clock = ManualClock()
        clock.advance(2.5)
        clock.advance(1.5)
        assert clock.now() == 4.0

    def test_charge_is_advance(self):
        clock = ManualClock()
        clock.charge(0.75)
        assert clock.now() == 0.75

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)

    def test_thread_safe_charging(self):
        clock = ManualClock()

        def worker():
            for _ in range(1000):
                clock.charge(0.001)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert clock.now() == pytest.approx(4.0)


class TestRealClock:
    def test_now_advances_with_wall_time(self):
        clock = RealClock()
        first = clock.now()
        time.sleep(0.01)
        assert clock.now() > first

    def test_charge_sleeps_that_long(self):
        clock = RealClock()
        before = time.monotonic()
        clock.charge(0.01)
        assert time.monotonic() - before >= 0.01

    def test_zero_charge_does_not_sleep(self):
        clock = RealClock()
        before = time.monotonic()
        clock.charge(0.0)
        assert time.monotonic() - before < 0.05


def gather_sleeps(clock, seconds):
    """Coroutine: charge every latency in ``seconds`` side by side."""
    async def gathered():
        start = clock.now()
        await asyncio.gather(*(acharge(clock, each) for each in seconds))
        return clock.now() - start
    return gathered()


class TestVirtualLoop:
    def test_gathered_charges_cost_the_longest(self):
        clock = ManualClock()
        assert run(gather_sleeps(clock, [0.2, 0.5, 0.1]), clock) == 0.5
        assert clock.now() == 0.5

    def test_loop_time_is_the_clock(self):
        clock = ManualClock(start=7.0)

        async def read():
            loop = asyncio.get_running_loop()
            before = loop.time()
            await asyncio.sleep(1.5)
            return type(loop), before, loop.time()

        loop_type, before, after = run(read(), clock)
        assert loop_type is VirtualLoop
        assert (before, after) == (7.0, 8.5)

    def test_idle_time_costs_no_wall_time(self):
        clock = ManualClock()
        started = time.monotonic()
        run(asyncio.sleep(3600.0), clock)
        assert clock.now() == 3600.0
        assert time.monotonic() - started < 1.0

    def test_timers_fire_in_order_at_their_instants(self):
        clock = ManualClock()
        fired = []

        async def sleeper(delay):
            await asyncio.sleep(delay)
            fired.append((delay, clock.now()))

        async def main():
            await asyncio.gather(*(sleeper(delay) for delay in (0.3, 0.1, 0.2)))

        run(main(), clock)
        assert [delay for delay, _ in fired] == [0.1, 0.2, 0.3]
        assert all(now == pytest.approx(delay) for delay, now in fired)

    def test_a_cross_thread_wakeup_arrives_while_no_timer_is_pending(self):
        clock = ManualClock()

        async def main():
            loop = asyncio.get_running_loop()
            woken = loop.create_future()
            threading.Timer(
                0.01, loop.call_soon_threadsafe, (woken.set_result, "hi")).start()
            return await woken

        assert run(main(), clock) == "hi"
        assert clock.now() == 0.0

    def test_leftover_tasks_are_cancelled_before_the_loop_closes(self):
        clock = ManualClock()
        cancelled = []

        async def straggler():
            try:
                await asyncio.sleep(10.0)
            except asyncio.CancelledError:
                cancelled.append(clock.now())
                raise

        async def main():
            asyncio.ensure_future(straggler())
            await asyncio.sleep(0)

        run(main(), clock)
        assert cancelled == [0.0]

    def test_refuses_to_start_inside_a_running_loop(self):
        clock = ManualClock()

        async def nested():
            inner = asyncio.sleep(0)
            with pytest.raises(RuntimeError, match="running event loop"):
                run(inner, clock)

        run(nested(), clock)


class TestAcharge:
    def test_a_plain_loop_charges_instantly_and_in_sequence(self):
        clock = ManualClock()
        # Off its own loop a virtual clock cannot overlap waits: the
        # charges add up, as on the blocking path.
        assert asyncio.run(gather_sleeps(clock, [0.2, 0.5, 0.1])) \
            == pytest.approx(0.8)

    def test_another_clocks_virtual_loop_charges_instantly(self):
        clock, other = ManualClock(), ManualClock()
        assert run(gather_sleeps(clock, [0.2, 0.5]), other) \
            == pytest.approx(0.7)
        assert other.now() == 0.0

    def test_a_real_clock_sleeps_on_any_loop(self):
        clock = RealClock()
        # Overlapping, not in sequence (which would take 0.15 s).
        assert asyncio.run(gather_sleeps(clock, [0.05, 0.05, 0.05])) < 0.14
