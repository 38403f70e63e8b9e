"""ListenableFuture-style asynchronous results.

The paper implements asynchronous service calls with Guava's
``ListenableFuture``: a future plus the ability to register callbacks
that run when the computation completes.  :class:`ListenableFuture`
reproduces that contract.  §2.1's bound on threads holds because every
``RichClient.invoke_async`` call is a task on the client's one loop
thread (:class:`repro.core.aio.runner.LoopRunner`), whatever the burst.

:func:`run_sync` is how the blocking SDK API runs the one invocation
body the asyncio core awaits: on the caller's own thread.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Coroutine
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from typing import Generic, TypeVar

T = TypeVar("T")


class ListenableFuture(Generic[T]):
    """A future with registered completion callbacks.

    Callbacks receive the future itself and run exactly once, **one at
    a time and in registration order**, never under the future's lock:
    one registered mid-delivery queues behind the running one.  One
    added after delivery drained runs at once on the registering
    thread, Guava's semantics.

    :meth:`get` and :meth:`exception` return only after the listeners
    registered before settlement ran (a listener reading its own future
    is answered at once).

    A callback that raises cannot poison the delivering thread or starve
    the others: its exception goes to ``listener_errors`` (Guava logs
    it the same way) and delivery continues.
    """

    def __init__(self) -> None:
        self._future: Future = Future()
        self._listeners: deque[Callable[["ListenableFuture[T]"], None]] = deque()
        self._lock = threading.Lock()
        # The thread draining the listener queue, if any, and the event
        # set when the queue first drains after settlement.
        self._delivering: threading.Thread | None = None
        self._delivered = threading.Event()
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
        """Deliver queued listeners one at a time, in order: one thread
        drains, re-checking the queue after every callback, and holds
        the lock only to pop it."""
        with self._lock:
            if self._delivering is not None:
                return
            self._delivering = threading.current_thread()
        while True:
            with self._lock:
                if not self._listeners:
                    self._delivering = None
                    self._delivered.set()
                    return
                listener = self._listeners.popleft()
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
        self._await_delivery(timeout)
        return self._future.result(timeout=0)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The exception the computation raised, if any."""
        self._await_delivery(timeout)
        return self._future.exception(timeout=0)

    def _await_delivery(self, timeout: float | None) -> None:
        """Wait until settled and the listeners registered by then ran
        (no wait for a listener reading the future it is run for)."""
        if (self._delivering is not threading.current_thread()
                and not self._delivered.wait(timeout)):
            raise FutureTimeoutError()

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
