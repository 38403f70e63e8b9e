"""Clock abstraction used to charge simulated service latency.

The simulated services in :mod:`repro.services` do not sleep for the
latencies they model; they *charge* latency to a :class:`Clock`.  Two
implementations are provided:

* :class:`ManualClock` — virtual time.  ``advance()`` moves time forward
  instantly, so a test or benchmark can execute thousands of "slow"
  service calls in microseconds while still observing realistic latency
  numbers in the collected metrics.  Concurrency is modelled by
  :class:`VirtualLoop`, the event loop whose time *is* the clock, so six
  gathered fetches cost the longest of their latencies, not the sum.

* :class:`RealClock` — the wall clock: a charge really sleeps.

:func:`run` is the ``asyncio.run`` of a world: it picks the virtual
loop for a :class:`ManualClock` and a plain one otherwise.
"""

from __future__ import annotations

import asyncio
import selectors
import threading
import time
from abc import ABC, abstractmethod
from collections.abc import Callable, Coroutine
from typing import TypeVar

T = TypeVar("T")


class Clock(ABC):
    """Source of the current time plus a way to spend simulated latency."""

    @abstractmethod
    def now(self) -> float:
        """Return the current time in (possibly virtual) seconds."""

    @abstractmethod
    def charge(self, seconds: float) -> None:
        """Account for ``seconds`` of latency passing."""


class ManualClock(Clock):
    """Virtual clock advanced explicitly or by charged latency.

    Thread-safe: concurrent ``charge`` calls each advance the clock, so
    charges made side by side from threads add up.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        with self._lock:
            self._now += seconds

    def charge(self, seconds: float) -> None:
        self.advance(seconds)


class RealClock(Clock):
    """The wall clock: charged latency becomes a real sleep."""

    def __init__(self) -> None:
        self._origin = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._origin

    def charge(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


SYSTEM_CLOCK = RealClock()
"""A shared wall clock, the default for components that need one."""


class _JumpingSelector(selectors.DefaultSelector):
    """Asked to wait ``timeout`` for the next timer, moves the clock
    there instead (after one non-blocking poll for due I/O and
    cross-thread wake-ups); with no timer pending, or while
    ``may_jump()`` is false, it really blocks."""

    def __init__(self, clock: ManualClock,
                 may_jump: Callable[[], bool] | None = None) -> None:
        super().__init__()
        self._clock = clock
        self._may_jump = may_jump

    def select(self, timeout: float | None = None):
        if timeout is None or timeout <= 0:
            return super().select(timeout)
        events = super().select(0)
        if events:
            return events
        if self._may_jump is not None and not self._may_jump():
            return super().select(None)
        self._clock.advance(timeout)
        return events


class VirtualLoop(asyncio.SelectorEventLoop):
    """An event loop whose time is a :class:`ManualClock`.

    ``time()`` reads the clock, so every timer — ``asyncio.sleep``, a
    wait's timeout, :func:`acharge` — is set in simulated seconds.
    When no callback is ready and a timer is pending, the loop advances
    the clock to that timer instead of blocking, so tasks waiting side
    by side overlap.  Runs are deterministic while one loop drives the
    clock at a time.  ``may_jump`` (None in :func:`run`) gates the
    advance for a loop on a thread of its own (``LoopRunner``).
    """

    def __init__(self, clock: ManualClock,
                 may_jump: Callable[[], bool] | None = None) -> None:
        super().__init__(_JumpingSelector(clock, may_jump))
        self.clock = clock

    def time(self) -> float:
        return self.clock.now()


def run(main: Coroutine[object, object, T], clock: Clock) -> T:
    """:func:`asyncio.run` on a :class:`VirtualLoop` for a
    :class:`ManualClock`, on a plain loop for any other clock.

    Leftover tasks are cancelled before the loop closes; inside a
    running event loop it raises ``RuntimeError``.
    """
    if asyncio._get_running_loop() is not None:
        main.close()
        raise RuntimeError("run() cannot be called from a running event loop")
    loop = (VirtualLoop(clock) if isinstance(clock, ManualClock)
            else asyncio.new_event_loop())
    try:
        return loop.run_until_complete(main)
    finally:
        try:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()


def sleeps_on_loop(clock: Clock) -> bool:
    """Whether waiting here passes ``clock``'s time: under a
    :class:`RealClock`, or on the :class:`VirtualLoop` driving ``clock``.
    Elsewhere a virtual clock moves only when charged."""
    if isinstance(clock, RealClock):
        return True
    loop = asyncio._get_running_loop()
    return type(loop) is VirtualLoop and loop.clock is clock


async def acharge(clock: Clock, seconds: float) -> None:
    """Charge ``seconds`` of simulated latency without blocking the loop.

    The event-loop counterpart of :meth:`Clock.charge`: an ``await
    asyncio.sleep`` where waiting passes the clock's time
    (:func:`sleeps_on_loop`), so concurrent charges overlap; elsewhere
    the instant :meth:`ManualClock.charge` of the blocking path, so
    those runs stay bit-for-bit comparable with it.  A cancellation
    while sleeping aborts the charge.
    """
    if seconds > 0 and sleeps_on_loop(clock):
        await asyncio.sleep(seconds)
    else:
        clock.charge(seconds)  # repro: ignore[RA007] — instant on a virtual clock
