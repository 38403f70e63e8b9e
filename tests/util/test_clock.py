"""Tests for the clock abstraction."""

import threading
import time

import pytest

from repro.util.clock import ManualClock, RealClock


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

    def test_elapsed_since(self):
        clock = ManualClock()
        start = clock.now()
        clock.advance(3.0)
        assert clock.elapsed_since(start) == 3.0

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
    def test_time_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            RealClock(time_scale=0.0)

    def test_now_advances_with_wall_time(self):
        clock = RealClock(time_scale=1.0)
        first = clock.now()
        time.sleep(0.01)
        assert clock.now() > first

    def test_charge_sleeps_scaled(self):
        clock = RealClock(time_scale=0.01)
        before = time.monotonic()
        clock.charge(1.0)  # should sleep ~10 ms
        elapsed = time.monotonic() - before
        assert 0.005 <= elapsed < 0.5

    def test_now_reports_simulated_seconds(self):
        clock = RealClock(time_scale=0.01)
        clock.charge(1.0)
        # 1 simulated second was charged; now() is in simulated units.
        assert clock.now() >= 0.9

    def test_zero_charge_does_not_sleep(self):
        clock = RealClock(time_scale=1.0)
        before = time.monotonic()
        clock.charge(0.0)
        assert time.monotonic() - before < 0.05
