"""An event loop for blocking callers.

:class:`LoopRunner` owns one event loop on a dedicated daemon thread.
Blocking callers that want loop-served calls (applications, tests,
benchmarks — not ``RichClient.invoke*``, which drives its coroutines
in-thread and needs no loop) hand it coroutines, e.g.
``runner.submit_listenable(client.aio.ainvoke(...))``; the runner
schedules each as a task on the loop **inside a copy of the caller's
contextvars**, so a tenant scope or an open trace span that is current
on the submitting thread is still current inside the coroutine — the
same propagation guarantee
:class:`~repro.core.futures.CallbackExecutor` gives pooled work.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from collections.abc import Coroutine
from concurrent.futures import Future

from repro.core.futures import ListenableFuture


class LoopRunner:
    """One background event loop serving blocking callers.

    Thread-safe: any number of threads may :meth:`submit` or
    :meth:`run` concurrently; each coroutine becomes an independent
    task on the single loop.  The runner idles at zero cost — the
    loop thread sleeps in the selector when no task is live.
    """

    def __init__(self, name: str = "repro-aio") -> None:
        """Start the loop thread and wait until the loop is running."""
        self._loop = asyncio.new_event_loop()
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

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The runner's event loop (for ``call_soon_threadsafe`` and tests)."""
        return self._loop

    def submit(self, coro: Coroutine) -> Future:
        """Schedule ``coro`` on the loop; returns a concurrent future.

        The submitting thread's contextvars are copied onto the task
        (``create_task`` runs under ``Context.run``, which works on
        Python 3.10 where ``create_task(context=...)`` does not exist).
        Cancelling the returned future does **not** cancel the task —
        use :meth:`submit_listenable` + task handles for cancellable
        work; :meth:`run` never cancels, it only waits.
        """
        if not self._loop.is_running():
            raise RuntimeError("LoopRunner is shut down")
        done: Future = Future()
        context = contextvars.copy_context()

        def schedule() -> None:
            task = context.run(self._loop.create_task, coro)
            task.add_done_callback(lambda finished: _transfer(finished, done))

        self._loop.call_soon_threadsafe(schedule)
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
        return self.submit(coro).result(timeout=timeout)

    def submit_listenable(self, coro: Coroutine) -> ListenableFuture:
        """Schedule ``coro``; returns a :class:`ListenableFuture`.

        The listenable settles from the loop thread when the task
        finishes, so listeners observe the same serialized-delivery
        guarantees as the thread-pool core.
        """
        listenable: ListenableFuture = ListenableFuture()

        def relay(done: Future) -> None:
            error = done.exception()
            if error is not None:
                listenable.set_exception(error)
            else:
                listenable.set_result(done.result())

        self.submit(coro).add_done_callback(relay)
        return listenable

    def shutdown(self) -> None:
        """Stop the loop, cancel leftover tasks and join the thread."""
        if self._loop.is_closed():
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()

    def __enter__(self) -> "LoopRunner":
        """Context-manager entry: the runner itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: shut the loop down."""
        self.shutdown()


def _transfer(task: asyncio.Task, done: Future) -> None:
    """Mirror a finished task into a concurrent future (loop thread)."""
    if task.cancelled():
        done.set_exception(asyncio.CancelledError())
        return
    error = task.exception()
    if error is not None:
        done.set_exception(error)
    else:
        done.set_result(task.result())
