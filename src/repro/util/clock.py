"""Clock abstraction used to charge simulated service latency.

The simulated services in :mod:`repro.services` do not sleep for the
latencies they model; they *charge* latency to a :class:`Clock`.  Two
implementations are provided:

* :class:`ManualClock` — virtual time.  ``advance()`` moves time forward
  instantly, so a test or benchmark can execute thousands of "slow"
  service calls in microseconds while still observing realistic latency
  numbers in the collected metrics.  It does not model concurrency:
  charges made side by side — from threads or gathered coroutines —
  add up, so six concurrent fetches cost the sum of their latencies.

* :class:`RealClock` — wall-clock time with an optional ``time_scale``.
  A charged latency of 0.2 s with ``time_scale=0.001`` really sleeps
  0.2 ms.  Runs that must show concurrency saving time (parallel
  fan-out, hedging, the async core) use it, since its sleeps really
  overlap.
"""

from __future__ import annotations

import asyncio
import threading
import time
from abc import ABC, abstractmethod


class Clock(ABC):
    """Source of the current time plus a way to spend simulated latency."""

    @abstractmethod
    def now(self) -> float:
        """Return the current time in (possibly virtual) seconds."""

    @abstractmethod
    def charge(self, seconds: float) -> None:
        """Account for ``seconds`` of latency passing."""

    def elapsed_since(self, start: float) -> float:
        """Seconds elapsed between ``start`` and :meth:`now`."""
        return self.now() - start


class ManualClock(Clock):
    """Virtual clock advanced explicitly or by charged latency.

    Thread-safe: concurrent ``charge`` calls each advance the clock, which
    models serialized execution — concurrent charges add up, whether
    they come from threads or from gathered coroutines.
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
    """Wall-clock time; charged latency becomes a (scaled) real sleep.

    ``time_scale`` maps simulated seconds to real seconds.  ``now`` always
    reports *simulated* seconds so metric collection sees the same units
    regardless of which clock is in use.
    """

    def __init__(self, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.time_scale = time_scale
        self._origin = time.monotonic()

    def now(self) -> float:
        return (time.monotonic() - self._origin) / self.time_scale

    def charge(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds * self.time_scale)


SYSTEM_CLOCK = RealClock()
"""A shared unscaled wall clock, the default for components that need one."""


async def acharge(clock: Clock, seconds: float) -> None:
    """Charge ``seconds`` of simulated latency without blocking the loop.

    The event-loop counterpart of :meth:`Clock.charge`, used by the
    async invocation core (:mod:`repro.core.aio`):

    * under a virtual :class:`ManualClock`, charging is an instant
      bookkeeping advance — identical to the sync path, so virtual-time
      runs stay deterministic and bit-for-bit comparable;
    * under a scaled :class:`RealClock`, the (scaled) wait becomes an
      ``await asyncio.sleep`` instead of a thread-blocking
      ``time.sleep``, which is what lets thousands of in-flight calls
      share one event loop.

    Cancellation: an ``asyncio.CancelledError`` raised while sleeping
    aborts the charge; under a real clock :meth:`Clock.now` is derived
    from wall time, so the partial wait is still observed.
    """
    time_scale = getattr(clock, "time_scale", None)
    if time_scale is None:
        # Virtual clock: charge() only advances a counter; it never
        # sleeps, so calling it from a coroutine cannot stall the loop.
        clock.charge(seconds)  # repro: ignore[RA007] — instant on a virtual clock
        return
    if seconds > 0:
        await asyncio.sleep(seconds * time_scale)
