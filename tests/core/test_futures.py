"""Tests for ListenableFuture and the bounded executor."""

import threading
import time

import pytest

from repro.core.futures import (
    CallbackExecutor,
    ListenableFuture,
    resolved,
    run_sync,
)


class TestListenableFuture:
    def test_get_returns_result(self):
        future = ListenableFuture()
        future.set_result(42)
        assert future.is_done()
        assert future.get() == 42

    def test_get_raises_stored_exception(self):
        future = ListenableFuture()
        future.set_exception(ValueError("boom"))
        with pytest.raises(ValueError):
            future.get()
        assert isinstance(future.exception(), ValueError)

    def test_listener_fires_on_completion(self):
        future = ListenableFuture()
        seen = []
        future.add_listener(lambda completed: seen.append(completed.get()))
        assert seen == []
        future.set_result("done")
        assert seen == ["done"]

    def test_listener_fires_immediately_when_already_done(self):
        future = ListenableFuture.completed("early")
        seen = []
        future.add_listener(lambda completed: seen.append(completed.get()))
        assert seen == ["early"]

    def test_multiple_listeners_all_fire(self):
        future = ListenableFuture()
        seen = []
        for index in range(3):
            future.add_listener(lambda _completed, index=index: seen.append(index))
        future.set_result(None)
        assert sorted(seen) == [0, 1, 2]

    def test_listener_fires_on_failure_too(self):
        future = ListenableFuture()
        seen = []
        future.add_listener(lambda completed: seen.append(type(completed.exception())))
        future.set_exception(RuntimeError())
        assert seen == [RuntimeError]

    def test_completed_and_failed_constructors(self):
        assert ListenableFuture.completed(1).get() == 1
        failed = ListenableFuture.failed(KeyError("k"))
        assert isinstance(failed.exception(), KeyError)

    def test_transform_maps_result(self):
        future = ListenableFuture()
        doubled = future.transform(lambda value: value * 2)
        future.set_result(21)
        assert doubled.get() == 42

    def test_transform_propagates_error(self):
        future = ListenableFuture()
        derived = future.transform(lambda value: value)
        future.set_exception(ValueError("nope"))
        with pytest.raises(ValueError):
            derived.get()

    def test_transform_mapper_error_captured(self):
        future = ListenableFuture.completed(1)
        derived = future.transform(lambda value: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            derived.get()

    def test_get_timeout(self):
        future = ListenableFuture()
        with pytest.raises(Exception):
            future.get(timeout=0.01)

    def test_raising_listener_is_quarantined(self):
        """A bad callback must not starve the listeners behind it."""
        future = ListenableFuture()
        seen = []
        future.add_listener(lambda _completed: 1 / 0)
        future.add_listener(lambda completed: seen.append(completed.get()))
        future.set_result("ok")  # must not raise on the completing thread
        assert seen == ["ok"]
        assert len(future.listener_errors) == 1
        assert isinstance(future.listener_errors[0], ZeroDivisionError)

    def test_raising_listener_on_already_done_future(self):
        """The fire-immediately path quarantines exceptions the same way."""
        future = ListenableFuture.completed("ok")
        future.add_listener(lambda _completed: 1 / 0)
        assert len(future.listener_errors) == 1

    def test_result_unaffected_by_listener_errors(self):
        future = ListenableFuture()
        future.add_listener(lambda _completed: 1 / 0)
        future.set_result(42)
        assert future.get() == 42
        assert future.exception() is None


class TestCallbackExecutor:
    def test_submit_runs_function(self):
        with CallbackExecutor(max_workers=2) as executor:
            future = executor.submit(lambda: 7)
            assert future.get(timeout=5) == 7

    def test_submit_captures_exception(self):
        with CallbackExecutor(max_workers=2) as executor:
            future = executor.submit(lambda: 1 / 0)
            assert isinstance(future.exception(timeout=5), ZeroDivisionError)

    def test_callbacks_fire_from_worker(self):
        with CallbackExecutor(max_workers=2) as executor:
            done = threading.Event()
            future = executor.submit(lambda: "ok")
            future.add_listener(lambda _completed: done.set())
            assert done.wait(timeout=5)

    def test_map_all_preserves_order(self):
        with CallbackExecutor(max_workers=4) as executor:
            futures = executor.map_all(lambda item: item * 10, [1, 2, 3])
            assert [future.get(timeout=5) for future in futures] == [10, 20, 30]

    def test_pool_is_bounded(self):
        """More tasks than workers still all complete (queued, not spawned)."""
        active = []
        peak = []
        lock = threading.Lock()

        def tracked():
            with lock:
                active.append(1)
                peak.append(len(active))
            time.sleep(0.01)
            with lock:
                active.pop()
            return True

        with CallbackExecutor(max_workers=3) as executor:
            futures = [executor.submit(tracked) for _ in range(12)]
            assert all(future.get(timeout=10) for future in futures)
        assert max(peak) <= 3

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            CallbackExecutor(max_workers=0)


class TestSerializedListenerDelivery:
    """Regression: listener dispatch must be serialized and in order.

    The pre-async-core implementation delivered a listener registered
    during an in-progress completion immediately on the registering
    thread, overlapping (and reordering) it with the completing
    thread's own dispatch loop — unsafe for callbacks that assume
    Guava's serialized delivery.
    """

    def test_listener_added_mid_delivery_waits_its_turn(self):
        future = ListenableFuture()
        order = []
        in_first = threading.Event()
        release_first = threading.Event()
        registered = threading.Event()

        def slow_first(_):
            order.append("first")
            in_first.set()
            # Hold delivery open until the racing add_listener returned.
            assert release_first.wait(timeout=5)

        def late(_):
            order.append("late")

        future.add_listener(slow_first)

        def racer():
            assert in_first.wait(timeout=5)
            future.add_listener(late)  # must queue, not run here
            registered.set()

        thread = threading.Thread(target=racer)
        thread.start()
        completer = threading.Thread(target=future.set_result, args=(1,))
        completer.start()
        assert registered.wait(timeout=5)
        # The late listener was registered while `slow_first` is still
        # executing; serialized delivery means it has NOT run yet.
        assert order == ["first"]
        release_first.set()
        completer.join(timeout=5)
        thread.join(timeout=5)
        assert order == ["first", "late"]
        assert future.listener_errors == []

    def test_concurrent_registrations_never_overlap(self):
        """Hammer add_listener against set_result; delivery stays single-file."""
        for _ in range(50):
            future = ListenableFuture()
            running = []
            overlaps = []
            lock = threading.Lock()

            def listener(_):
                with lock:
                    running.append(1)
                    if len(running) > 1:
                        overlaps.append(1)
                with lock:
                    running.pop()

            for _ in range(4):
                future.add_listener(listener)
            barrier = threading.Barrier(3)

            def register():
                barrier.wait()
                for _ in range(8):
                    future.add_listener(listener)

            def complete():
                barrier.wait()
                future.set_result("x")

            threads = [threading.Thread(target=register),
                       threading.Thread(target=register),
                       threading.Thread(target=complete)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not overlaps
            assert future.listener_errors == []


class TestRunSync:
    def test_returns_the_coroutine_value(self):
        async def inner(value):
            return await resolved(value) + 1

        async def outer():
            return await inner(40) + await resolved(1)

        assert run_sync(outer()) == 42

    def test_reraises_the_bodys_exception_with_its_traceback(self):
        async def failing():
            await resolved(None)
            raise LookupError("from the body")

        with pytest.raises(LookupError, match="from the body") as caught:
            run_sync(failing())
        frames = [entry.name for entry in caught.traceback]
        assert frames[-1] == "failing"  # the body's own frame survives

    def test_base_exceptions_cross_unchanged(self):
        async def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sync(interrupted())

    def test_a_coroutine_that_suspends_is_closed_and_reported(self):
        class Pending:
            """An awaitable that really suspends (what a loop-native
            wait point would do)."""

            def __await__(self):
                yield self

        cleaned_up = []

        async def suspending():
            try:
                await Pending()
            finally:
                cleaned_up.append(True)

        coro = suspending()
        with pytest.raises(RuntimeError, match="suspended under run_sync"):
            run_sync(coro)
        assert cleaned_up == [True]  # close() ran the finally block
        assert coro.cr_frame is None  # closed: cannot be resumed
