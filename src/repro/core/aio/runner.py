"""An event loop for blocking callers.

:class:`LoopRunner` owns one event loop on a daemon thread.  Blocking
callers hand it coroutines, as ``RichClient.invoke_async`` hands its
own runner ``client.aio.ainvoke(...)``; each becomes a task **inside a
copy of the caller's contextvars**, so the submitter's tenant scope
and open trace span are current inside the coroutine.

Over a :class:`~repro.util.clock.ManualClock` the loop is a
:class:`~repro.util.clock.VirtualLoop` that moves the clock only while
one of the runner's unsettled futures is *wanted* (waited on, polled or
listened to), so calls a thread submits before it waits all start
before the first timer fires, and overlap.  A caller that listens to
each call before submitting the next races the clock from its first.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from collections.abc import Coroutine
from concurrent.futures import Future

from repro.core.futures import ListenableFuture
from repro.util.clock import Clock, ManualClock, VirtualLoop


class LoopRunner:
    """One background event loop serving blocking callers.

    Thread-safe: any number of threads may :meth:`submit` or
    :meth:`run` concurrently; each coroutine becomes an independent
    task on the single loop.  The runner idles at zero cost — the
    loop thread sleeps in the selector when no task is live.
    """

    def __init__(self, name: str = "repro-aio", clock: Clock | None = None) -> None:
        """Start the loop thread (a gated :class:`VirtualLoop` for a
        :class:`ManualClock`, else a plain loop) and wait until it runs."""
        # Wanted unsettled futures, plus the runner once shutting down.
        self._wanted: set = set()
        self._loop = (VirtualLoop(clock, may_jump=lambda: bool(self._wanted))
                      if isinstance(clock, ManualClock)
                      else asyncio.new_event_loop())
        self._started = threading.Event()
        # The loop thread is a process-lifetime service: it must NOT
        # inherit whichever tenant/trace scope happened to construct it
        # — each submitted coroutine carries its own context instead.
        self._thread = threading.Thread(target=self._serve, name=name,  # repro: ignore[RA011] — service thread; per-task context enters via submit()'s Context.run
                                        daemon=True)
        self._thread.start()
        self._started.wait()

    def _serve(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(self._started.set)
        try:
            self._loop.run_forever()
        finally:
            # Cancel stragglers so shutdown never leaks pending tasks.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            self._loop.close()

    def submit_listenable(self, coro: Coroutine) -> ListenableFuture:
        """Schedule ``coro``; returns a :class:`ListenableFuture`.

        The task runs in a copy of the caller's contextvars (through
        ``Context.run``: Python 3.10 has no ``create_task(context=)``).
        The future settles on the loop thread and its listeners run
        there (Guava's ``directExecutor``), so a listener must not wait
        on this loop's work: a ``get`` there on an unsettled future of
        this runner raises ``RuntimeError``.
        """
        if not self._loop.is_running():
            raise RuntimeError("LoopRunner is shut down")
        listenable = _LoopFuture(self)
        context = contextvars.copy_context()

        def schedule() -> None:
            task = context.run(self._loop.create_task, coro)
            task.add_done_callback(listenable._from_task)

        self._loop.call_soon_threadsafe(schedule)
        return listenable

    def submit(self, coro: Coroutine) -> Future:
        """Schedule ``coro`` on the loop; returns a concurrent future,
        wanted at once (no one is seen waiting on it).  Cancelling it
        does **not** cancel the task."""
        done: Future = Future()

        def relay(settled: ListenableFuture) -> None:
            error = settled.exception()
            if error is not None:
                done.set_exception(error)
            else:
                done.set_result(settled.get())

        self.submit_listenable(coro).add_listener(relay)
        return done

    def run(self, coro: Coroutine, timeout: float | None = None):
        """Run ``coro`` to completion and return its result (blocking).

        This is the facade shim: exceptions (including
        ``asyncio.CancelledError``) propagate unchanged to the caller.
        Must not be called from the loop thread itself — that would
        deadlock the loop on its own work.
        """
        if threading.current_thread() is self._thread:
            raise RuntimeError(
                "LoopRunner.run called from the loop thread; await instead")
        return self.submit_listenable(coro).get(timeout=timeout)

    def shutdown(self) -> None:
        """Stop the loop, cancel leftover tasks and join the thread."""
        if self._loop.is_closed():
            return
        self._wanted.add(self)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()

    def __enter__(self) -> "LoopRunner":
        """Context-manager entry: the runner itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: shut the loop down."""
        self.shutdown()


class _LoopFuture(ListenableFuture):
    """A listenable its runner's loop settles; the first wait, poll or
    listener on it before then marks it wanted."""

    def __init__(self, runner: LoopRunner) -> None:
        super().__init__()
        self._runner = runner

    def _mark_wanted(self) -> None:
        wanted, loop = self._runner._wanted, self._runner._loop
        if (type(loop) is not VirtualLoop or self._future.done()
                or self in wanted):
            return
        wanted.add(self)
        if self._future.done():  # _from_task's discard may have run first
            wanted.discard(self)
        else:  # wake the loop to re-read its gate
            loop.call_soon_threadsafe(lambda: None)

    def _from_task(self, task: asyncio.Task) -> None:
        if task.cancelled():
            self.set_exception(asyncio.CancelledError())
        elif task.exception() is not None:
            self.set_exception(task.exception())
        else:
            self.set_result(task.result())
        self._runner._wanted.discard(self)

    def _await_delivery(self, timeout: float | None) -> None:
        if (not self._future.done()
                and threading.current_thread() is self._runner._thread):
            raise RuntimeError(
                "a wait on the loop thread for its own work never returns")
        self._mark_wanted()
        super()._await_delivery(timeout)

    def is_done(self) -> bool:
        """Whether the computation has completed (a poll wants it)."""
        self._mark_wanted()
        return self._future.done()

    def add_listener(self, listener) -> None:
        """Register a completion callback (which wants the future)."""
        super().add_listener(listener)
        self._mark_wanted()
