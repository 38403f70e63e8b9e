"""Tests for the LoopRunner shim (sync callers driving the async core)."""

import asyncio
import contextvars
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.aio import LoopRunner
from repro.core.aio.runner import _LoopFuture
from repro.core.futures import ListenableFuture
from repro.util.clock import ManualClock


@pytest.fixture
def runner():
    with LoopRunner() as active:
        yield active


class TestRun:
    def test_returns_the_coroutine_result(self, runner):
        async def forty_two():
            return 42

        assert runner.run(forty_two()) == 42

    def test_exceptions_propagate_unchanged(self, runner):
        marker = ValueError("boom")

        async def explode():
            raise marker

        with pytest.raises(ValueError) as exc_info:
            runner.run(explode())
        assert exc_info.value is marker

    def test_coroutines_run_on_the_loop_thread(self, runner):
        async def my_thread():
            return threading.current_thread().name

        assert runner.run(my_thread()) == "repro-aio"
        assert runner.run(my_thread()) != threading.current_thread().name

    def test_run_from_the_loop_thread_is_rejected(self, runner):
        async def nested():
            async def inner():
                return 1

            coro = inner()
            try:
                runner.run(coro)
            finally:
                coro.close()

        with pytest.raises(RuntimeError, match="loop thread"):
            runner.run(nested())


class TestSubmit:
    def test_submit_returns_a_concurrent_future(self, runner):
        async def value():
            return "ok"

        assert runner.submit(value()).result(timeout=5) == "ok"

    def test_many_submissions_interleave_on_one_loop(self, runner):
        started = []

        async def leg(index):
            started.append(index)
            await asyncio.sleep(0)
            return index

        futures = [runner.submit(leg(index)) for index in range(20)]
        assert sorted(future.result(timeout=5) for future in futures) == list(
            range(20))
        assert sorted(started) == list(range(20))

    def test_contextvars_cross_the_thread_boundary(self, runner):
        var = contextvars.ContextVar("tenant", default=None)

        async def observed():
            return var.get()

        token = var.set("acme")
        try:
            assert runner.run(observed()) == "acme"
        finally:
            var.reset(token)
        assert runner.run(observed()) is None

    def test_submit_listenable_settles_with_result_and_error(self, runner):
        async def value():
            return 7

        listenable = runner.submit_listenable(value())
        assert isinstance(listenable, ListenableFuture)
        assert listenable.get(timeout=5) == 7

        async def explode():
            raise KeyError("gone")

        failed = runner.submit_listenable(explode())
        with pytest.raises(KeyError):
            failed.get(timeout=5)


class TestShutdown:
    def test_submit_after_shutdown_is_rejected(self):
        runner = LoopRunner()
        runner.shutdown()

        async def late():
            return 1

        coro = late()
        with pytest.raises(RuntimeError, match="shut down"):
            runner.submit(coro)
        coro.close()

    def test_shutdown_cancels_pending_tasks(self):
        runner = LoopRunner()
        cancelled = threading.Event()

        async def hang():
            try:
                await asyncio.sleep(3600)
            except asyncio.CancelledError:
                cancelled.set()
                raise

        future = runner.submit(hang())
        # Give the task a chance to reach its sleep before stopping.
        runner.run(asyncio.sleep(0))
        runner.shutdown()
        assert cancelled.wait(timeout=5)
        with pytest.raises(asyncio.CancelledError):
            future.result(timeout=5)

    def test_shutdown_is_idempotent(self):
        runner = LoopRunner()
        runner.shutdown()
        runner.shutdown()


class TestVirtualClockGate:
    """A runner over a ``ManualClock`` moves the clock only while one of
    its unsettled futures is wanted."""

    def test_submissions_overlap_until_one_is_wanted(self):
        clock = ManualClock()
        with LoopRunner(clock=clock) as runner:
            futures = [runner.submit_listenable(asyncio.sleep(delay, delay))
                       for delay in (0.3, 0.1, 0.2)]
            assert [future.get(timeout=5) for future in futures] == [0.3, 0.1, 0.2]
        assert clock.now() == pytest.approx(0.3)

    def test_a_settle_between_check_and_add_leaves_nothing_wanted(self):
        """The loop may settle a future (and discard it) between a
        caller's done-check and its add: the caller must take it out."""
        class SettlesInBetween(set):
            def add(self, future):
                future.set_result("settled")  # what the loop thread does
                self.discard(future)
                super().add(future)

        with LoopRunner(clock=ManualClock()) as runner:
            runner._wanted = SettlesInBetween()
            future = _LoopFuture(runner)
            assert future.is_done()
            assert not runner._wanted
            runner._wanted = set()

    def test_the_wanted_set_drains_under_racing_threads(self):
        """Eight threads want, poll and listen while the loop settles:
        no future may stay wanted once settled (a leaked entry would
        hold the gate open for good)."""
        async def nap(index):
            await asyncio.sleep(0.001 * (index % 7 + 1))
            return index

        def caller(runner, base):
            futures = [runner.submit_listenable(nap(base + index))
                       for index in range(50)]
            for index, future in enumerate(futures):
                if index % 3 == 0:
                    future.add_listener(lambda _settled: None)
                elif index % 3 == 1:
                    future.is_done()
            return [future.get(timeout=10) for future in futures]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with LoopRunner(clock=ManualClock()) as runner:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    results = list(pool.map(
                        lambda base: caller(runner, base), range(0, 400, 50)))
                assert results == [list(range(base, base + 50))
                                   for base in range(0, 400, 50)]
                assert not runner._wanted
        finally:
            sys.setswitchinterval(interval)
