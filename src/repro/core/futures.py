"""ListenableFuture-style asynchronous results.

The paper implements asynchronous service calls with Guava's
``ListenableFuture``: a future plus the ability to register callbacks
that run when the computation completes.  :class:`ListenableFuture`
reproduces that contract over :mod:`concurrent.futures`, and
:class:`CallbackExecutor` is the bounded thread pool §2.1 prescribes
("to prevent the number of threads from becoming too large in corner
cases, we use thread pools of limited size").

:func:`run_sync` is how the blocking SDK API runs the one invocation
body the asyncio core awaits: on the caller's own thread.
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque
from collections.abc import Callable, Coroutine
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Generic, TypeVar

T = TypeVar("T")


class ListenableFuture(Generic[T]):
    """A future with registered completion callbacks.

    Callbacks receive the future itself and run exactly once.  Delivery
    is **serialized and in registration order**: at any moment at most
    one listener is executing, listeners never run while the future's
    internal lock is held, and a listener registered while an earlier
    one is still being delivered is queued behind it instead of running
    concurrently on the registering thread.  (The pre-async-core
    implementation delivered a late-registered listener immediately on
    the registering thread, which could overlap and reorder callbacks —
    unsafe for callbacks that assume serialized delivery.)  A listener
    added after delivery has fully drained runs immediately on the
    registering thread, Guava's semantics.

    A callback that raises cannot poison the delivering thread or
    starve the remaining callbacks: the exception is captured into
    ``listener_errors`` (Guava logs it the same way) and delivery
    continues.
    """

    def __init__(self) -> None:
        self._future: Future = Future()
        self._listeners: deque[Callable[["ListenableFuture[T]"], None]] = deque()
        self._lock = threading.Lock()
        # True while some thread is draining the listener queue; makes
        # delivery single-file without holding _lock across callbacks.
        self._delivering = False
        #: Exceptions raised by listeners, in delivery order.
        self.listener_errors: list[BaseException] = []

    # -- producer side -----------------------------------------------------

    def set_result(self, value: T) -> None:
        """Settle the future with a value and fire listeners."""
        self._future.set_result(value)
        self._drain()

    def set_exception(self, error: BaseException) -> None:
        """Settle the future with an error and fire listeners."""
        self._future.set_exception(error)
        self._drain()

    def _drain(self) -> None:
        """Deliver queued listeners one at a time, in order.

        Exactly one thread drains at a time: a second thread arriving
        while delivery is in progress leaves its listener on the queue
        for the draining thread (which re-checks the queue after every
        callback, so nothing is stranded).  The lock is only held to
        pop the queue, never across a callback.
        """
        with self._lock:
            if self._delivering:
                return
            self._delivering = True
        while True:
            with self._lock:
                if not self._listeners:
                    self._delivering = False
                    return
                listener = self._listeners.popleft()
            self._deliver(listener)

    def _deliver(self, listener: Callable[["ListenableFuture[T]"], None]) -> None:
        try:
            listener(self)
        except Exception as error:  # noqa: BLE001 — a bad callback is quarantined
            self.listener_errors.append(error)

    # -- consumer side -----------------------------------------------------

    def is_done(self) -> bool:
        """Whether the computation has completed (successfully or not)."""
        return self._future.done()

    def get(self, timeout: float | None = None) -> T:
        """Block until done and return the result (or raise its error)."""
        return self._future.result(timeout=timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The exception the computation raised, if any."""
        return self._future.exception(timeout=timeout)

    def add_listener(self, listener: Callable[["ListenableFuture[T]"], None]) -> None:
        """Register a completion callback.

        On an unsettled future the listener fires when the future
        settles.  On a settled future it fires before this method
        returns — on the registering thread — unless another thread is
        mid-delivery, in which case it is queued so that delivery stays
        serialized and ordered (that thread delivers it).
        """
        with self._lock:
            self._listeners.append(listener)
            if not self._future.done():
                return
        self._drain()


class CallbackExecutor:
    """Bounded thread pool producing :class:`ListenableFuture` results."""

    def __init__(self, max_workers: int = 8) -> None:
        if max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(max_workers=max_workers,
                                        thread_name_prefix="repro-sdk")

    def submit(self, function: Callable[..., T], *args, **kwargs) -> ListenableFuture[T]:
        """Run ``function`` on the pool; returns its listenable future.

        The submitting thread's context (contextvars) is copied onto
        the worker, so an observability span that is current at submit
        time is still the parent of spans started on the pool thread.
        """
        listenable: ListenableFuture[T] = ListenableFuture()

        def run() -> None:
            try:
                listenable.set_result(function(*args, **kwargs))
            except BaseException as error:  # noqa: BLE001 — relayed to waiter
                listenable.set_exception(error)

        context = contextvars.copy_context()
        self._pool.submit(context.run, run)
        return listenable

    def shutdown(self, wait: bool = True) -> None:
        """Shut the pool down (optionally waiting for queued work)."""
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "CallbackExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def run_sync(coro: Coroutine[object, object, T]) -> T:
    """Drive ``coro`` to completion on the calling thread — no event
    loop, no thread.

    For coroutines whose every ``await`` lands on an awaitable that is
    already done (see :func:`resolved`): one ``send(None)`` runs the
    whole body, and its exceptions propagate with their own traceback.
    A coroutine that really suspends is a programming error: it is
    closed and ``RuntimeError`` raised, since nothing here could ever
    wake it.
    """
    try:
        coro.send(None)
    except StopIteration as done:
        return done.value
    coro.close()
    raise RuntimeError(
        f"{coro!r} suspended under run_sync; only coroutines whose awaits "
        "are all already resolved can be driven without an event loop")


async def resolved(value: T) -> T:
    """An awaitable that is already done: ``await resolved(x)`` is ``x``.

    A blocking wait point is a plain function returning
    ``resolved(blocking_call())``: the call blocks (or raises) right
    where the body awaits it, and the body never suspends.
    """
    return value
