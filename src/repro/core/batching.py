"""Request coalescing and adaptive micro-batching for the SDK hot path.

Two throughput levers for heavy-traffic clients, both built on the
SDK's own :class:`ListenableFuture` machinery:

* **Single-flight coalescing** (:class:`RequestCoalescer`) — when many
  callers concurrently issue the *same* idempotent request, exactly one
  upstream call is made; every other caller joins the in-flight
  :class:`Flight` and receives the shared result (or the shared error)
  when it lands.  This is the classic ``singleflight`` pattern: a cache
  deduplicates *sequential* repeats, coalescing deduplicates
  *concurrent* ones, and together a miss populates the cache exactly
  once no matter how many callers raced on it.

* **Adaptive micro-batching** (:class:`MicroBatcher`) — services that
  declare batch support in the catalog (``batch_max_size`` on
  :class:`repro.services.base.SimulatedService`) accept N requests in
  one transport call.  The batcher holds a bounded window per
  (service, operation): it flushes as soon as ``max_batch_size``
  requests are queued, or when the window has been open longer than
  ``max_wait`` *simulated* seconds.  The window is clock-driven —
  deadlines are checked against the simulation clock on every submit
  and on explicit :meth:`MicroBatcher.flush_due` ticks — so batching is
  fully deterministic under simnet.

Per-item results and errors are unpacked individually: one poisoned
request fails only its own future, never the rest of the batch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generic, TypeVar

from repro.core.futures import ListenableFuture, resolved, run_sync
from repro.obs import names
from repro.util.deadline import Deadline

if TYPE_CHECKING:  # pragma: no cover — import cycle (invoker imports us)
    from repro.core.invoker import InvocationResult, RichClient

T = TypeVar("T")


class Flight(Generic[T]):
    """One in-flight upstream call that any number of waiters may share.

    A future plus complete / fail / result.  The caller that created
    the flight (the *leader*) performs the real work and settles it
    exactly once with :meth:`complete` or :meth:`fail`; everyone else
    blocks on :meth:`result`.  A follower that gives up waiting simply
    stops waiting — the flight and the leader's upstream call go on
    for everyone else.
    """

    def __init__(self, key: str) -> None:
        self.key = key
        self.future = self._new_future()

    def _new_future(self):
        return ListenableFuture()

    def _settled(self) -> bool:
        return self.future.is_done()

    def complete(self, value: T) -> bool:
        """Settle the flight successfully; False if it already settled."""
        if self._settled():
            return False
        self.future.set_result(value)
        return True

    def fail(self, error: BaseException) -> bool:
        """Settle the flight with an error; False if it already settled."""
        if self._settled():
            return False
        self.future.set_exception(error)
        return True

    def result(self, timeout: float | None = None) -> T:
        """Block until the flight settles; raises its error if it failed."""
        return self.future.get(timeout=timeout)


@dataclass
class CoalesceStats:
    """Single-flight accounting (mirrored to metrics when bound)."""

    flights: int = 0
    coalesced: int = 0
    #: Flights failed by a dying leader: its error was not an
    #: ``Exception`` (task cancellation, ``KeyboardInterrupt``).
    cancelled: int = 0

    @property
    def upstream_saved(self) -> int:
        """Wire calls avoided: one per coalesced waiter."""
        return self.coalesced


class RequestCoalescer:
    """Single-flight table keyed by the full request.

    ``lead_or_join(key)`` either installs a new :class:`Flight` (caller
    becomes leader, performs the upstream call, then settles via
    :meth:`complete`/:meth:`fail`) or joins the existing one.  The
    table entry is removed when the flight settles, so later identical
    requests start a fresh flight — coalescing only ever shares
    *concurrent* duplicates, never stale results.

    The table, its stats and its metrics are the same code under both
    drivers; :class:`repro.core.aio.AsyncCoalescer` only swaps the
    flight type for one whose future is awaited instead of blocked on.

    Thread-safe.  Note the thread-pool caveat: waiters block their
    thread, so on a bounded pool at most ``max_workers - 1`` callers
    should wait on one flight (the leader needs a thread to run on).
    """

    _flight_class = Flight

    def __init__(self) -> None:
        self.stats = CoalesceStats()
        self._flights: dict[str, Flight] = {}
        self._lock = threading.Lock()
        # Pre-bound metric counters (bind_metrics); None = unmirrored.
        self._metric_flights = None
        self._metric_hits = None
        self._metric_cancelled = None

    def bind_metrics(self, registry) -> None:
        """Mirror coalescing accounting into a MetricsRegistry.

        Registers ``coalesce_flights_total`` (upstream calls led),
        ``coalesce_hits_total`` (duplicate calls that shared a flight)
        and ``coalesce_cancelled_total``.
        """
        self._metric_flights = registry.counter(
            names.COALESCE_FLIGHTS_TOTAL,
            "Upstream flights led by the request coalescer.").bind()
        self._metric_hits = registry.counter(
            names.COALESCE_HITS_TOTAL,
            "Duplicate in-flight requests folded into a shared flight.").bind()
        self._metric_cancelled = registry.counter(
            names.COALESCE_CANCELLED_TOTAL,
            "Coalesced flights failed by a cancelled or interrupted leader.").bind()

    def __len__(self) -> int:
        with self._lock:
            return len(self._flights)

    def lead_or_join(self, key: str) -> tuple[bool, Flight]:
        """Install a new flight for ``key``, or join the in-flight one.

        Returns ``(is_leader, flight)``.  The leader **must** settle the
        flight (:meth:`complete` / :meth:`fail`) exactly once.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                self.stats.coalesced += 1
                if self._metric_hits is not None:
                    self._metric_hits.inc()
                return False, flight
            flight = self._flight_class(key)
            self._flights[key] = flight
            self.stats.flights += 1
            if self._metric_flights is not None:
                self._metric_flights.inc()
            return True, flight

    def complete(self, flight: Flight, value) -> None:
        """Leader callback: publish the result to every waiter."""
        self._discard(flight)
        flight.complete(value)

    def fail(self, flight: Flight, error: BaseException) -> None:
        """Leader callback: share the upstream error with every waiter.

        Counted as a cancellation when the error is not an
        ``Exception`` — the leader itself was cancelled or interrupted,
        and fails the flight so followers are not stranded on it.
        """
        self._discard(flight)
        if flight.fail(error) and not isinstance(error, Exception):
            self.stats.cancelled += 1
            if self._metric_cancelled is not None:
                self._metric_cancelled.inc()

    def count_folded(self, amount: int = 1) -> None:
        """Account duplicates folded outside the flight table.

        ``invoke_many`` / ``ainvoke_many`` deduplicate identical
        payloads *within* a burst; those shares are coalesce hits too,
        and this keeps them on the same counter the acceptance criteria
        watch.
        """
        if amount > 0:
            self.stats.coalesced += amount
            if self._metric_hits is not None:
                self._metric_hits.inc(amount)

    def _discard(self, flight: Flight) -> None:
        with self._lock:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]


# ---------------------------------------------------------------------------
# Micro-batching
# ---------------------------------------------------------------------------

@dataclass
class BatchStats:
    """What the batcher packed and flushed."""

    submitted: int = 0
    flushes: int = 0
    empty_flushes: int = 0
    items_flushed: int = 0
    max_batch: int = 0
    size_flushes: int = 0
    deadline_flushes: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average items per non-empty flush."""
        return self.items_flushed / self.flushes if self.flushes else 0.0


@dataclass
class _Window:
    """One (service, operation) batch window awaiting flush."""

    service: str
    operation: str
    #: Absolute flush deadline (opened_at + max_wait, computed once so a
    #: manual clock advanced by exactly max_wait compares equal bit-for-bit;
    #: ``now - opened_at >= max_wait`` loses that to float rounding).
    deadline: float
    items: list[tuple[dict, ListenableFuture]] = field(default_factory=list)
    #: Tightest end-to-end caller deadline riding in this window (None =
    #: unbounded); the whole batch is one wire call, so it must honour
    #: the most impatient caller's budget.
    call_deadline: Deadline | None = None


class MicroBatcher:
    """Bounded-window batcher over a :class:`RichClient`.

    :meth:`submit` enqueues a request and returns a
    :class:`ListenableFuture` for its individual result.  A window
    flushes synchronously on the submitting caller's thread as soon as
    it holds ``max_batch_size`` items, or on the first submit/tick after
    it has been open ``max_wait`` simulated seconds — there is no
    background thread, which keeps the batcher deterministic under the
    simulated clock.  Call :meth:`flush_due` from an event loop (or
    :meth:`flush_all` at the end of a burst) to drain stragglers.

    Flushing delegates to :meth:`RichClient.invoke_batched`, which packs
    the window into one batch transport call, charges admission control
    once per batch, records per-item monitor entries and populates the
    cache for each item.

    The window rules are coroutines (:meth:`_submit`, :meth:`_flush`,
    :meth:`_flush_window`) whose single wait point is the batched
    invoke.  Here it is the blocking ``client.invoke_batched`` and the
    public methods drive the body with ``run_sync`` on the caller's
    thread; :class:`repro.core.aio.AsyncMicroBatcher` awaits
    ``ainvoke_batched`` and hands out asyncio futures instead.
    """

    def __init__(self, client: "RichClient", max_batch_size: int | None = None,
                 max_wait: float = 0.05) -> None:
        if max_batch_size is not None and max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.client = client
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.stats = BatchStats()
        self._windows: dict[tuple[str, str], _Window] = {}
        self._lock = threading.Lock()

    def _limit_for(self, service_name: str) -> int:
        service = self.client.registry.get(service_name)
        declared = service.batch_max_size
        if declared is None:
            raise ValueError(
                f"service {service_name!r} does not declare batch support")
        if self.max_batch_size is None:
            return declared
        return min(declared, self.max_batch_size)

    def submit(self, service_name: str, operation: str,
               payload: dict | None = None,
               use_cache: bool = True,
               deadline: Deadline | None = None,
               ) -> "ListenableFuture[InvocationResult]":
        """Queue one request; returns the future for its own result.

        Cache hits resolve immediately without entering a window.  A
        full window flushes before this method returns; an expired
        window (older than ``max_wait``) flushes together with the new
        item.  Raises ``ValueError`` when the service does not declare
        batch support in the catalog.

        A caller ``deadline`` rides with the window: the flush passes
        the *tightest* deadline seen to
        :meth:`RichClient.invoke_batched`, so one impatient caller
        bounds the shared wire call (everyone else simply gets an
        earlier answer).  An already-expired deadline still enqueues —
        the flush fails the batch with ``DeadlineExceededError`` on the
        future, never silently.
        """
        return run_sync(self._submit(service_name, operation, payload,
                                     use_cache, deadline))

    def flush_due(self) -> int:
        """Flush every window older than ``max_wait``; returns items sent.

        This is the clock-driven tick: deterministic under a manual
        clock (compare ``clock.now()`` against each window's open time),
        and cheap to call from a polling loop under a real clock.
        """
        return run_sync(self._flush(due_only=True))

    def flush_all(self) -> int:
        """Flush every open window regardless of age; returns items sent.

        Flushing with nothing queued is a counted no-op (the "empty
        flush window" case): no transport call is made.
        """
        return run_sync(self._flush(due_only=False))

    def pending(self) -> int:
        """Items currently queued across all open windows."""
        with self._lock:
            return sum(len(window.items) for window in self._windows.values())

    # -- the batch body (one, for both drivers) ------------------------------

    async def _submit(self, service_name: str, operation: str,
                      payload: dict | None, use_cache: bool,
                      deadline: Deadline | None):
        payload = dict(payload or {})
        limit = self._limit_for(service_name)
        future = self._new_future()
        cached = self.client.cached_result(service_name, operation, payload,
                                           use_cache=use_cache)
        if cached is not None:
            future.set_result(cached)
            return future
        full = self._enqueue(service_name, operation, payload, future,
                             deadline, limit)
        if full is not None:
            await self._flush_window(full, use_cache=use_cache)
        return future

    def _enqueue(self, service_name: str, operation: str, payload: dict,
                 future, deadline: Deadline | None,
                 limit: int) -> _Window | None:
        """Add one rider to its window; returns the window, detached,
        when this rider filled it or found it past its flush deadline."""
        now = self.client.clock.now()
        with self._lock:
            window = self._windows.get((service_name, operation))
            if window is None:
                window = _Window(service_name, operation,
                                 deadline=now + self.max_wait)
                self._windows[(service_name, operation)] = window
            window.items.append((payload, future))
            if deadline is not None and (
                    window.call_deadline is None
                    or deadline.expires_at < window.call_deadline.expires_at):
                window.call_deadline = deadline
            self.stats.submitted += 1
            if len(window.items) >= limit:
                self.stats.size_flushes += 1
            elif now >= window.deadline:
                self.stats.deadline_flushes += 1
            else:
                return None
            del self._windows[(service_name, operation)]
            return window

    def _detach(self, due_only: bool) -> list[_Window]:
        """Detach every open window, or only those past their deadline."""
        now = self.client.clock.now()
        with self._lock:
            taken = [window for window in self._windows.values()
                     if not due_only or now >= window.deadline]
            for window in taken:
                del self._windows[(window.service, window.operation)]
            if due_only:
                self.stats.deadline_flushes += len(taken)
            elif not taken:
                self.stats.empty_flushes += 1
        return taken

    async def _flush(self, due_only: bool) -> int:
        sent = 0
        for window in self._detach(due_only):
            sent += await self._flush_window(window)
        return sent

    async def _flush_window(self, window: _Window, use_cache: bool = True) -> int:
        """Send one detached window as a single batch transport call."""
        try:
            outcomes = await self._invoke_batched(
                window.service, window.operation,
                [payload for payload, _ in window.items],
                use_cache=use_cache, deadline=window.call_deadline)
        except BaseException as error:
            # A whole-batch failure (offline, timeout, spent deadline,
            # cancellation) fails every rider's future rather than
            # raising only into whichever caller triggered the flush.
            # The window is already detached, so riders not settled
            # here would wait forever: that includes the flusher dying
            # with a cancellation or KeyboardInterrupt, which still
            # propagates once they are.
            self._fan_out(window, [error] * len(window.items))
            if not isinstance(error, Exception):
                raise
            return len(window.items)
        self._fan_out(window, outcomes)
        return len(window.items)

    def _fan_out(self, window: _Window, outcomes: list) -> None:
        """Account one flush and settle each rider with its own outcome."""
        self.stats.flushes += 1
        self.stats.items_flushed += len(window.items)
        self.stats.max_batch = max(self.stats.max_batch, len(window.items))
        for (_, future), outcome in zip(window.items, outcomes):
            if not self._is_open(future):
                continue  # rider cancelled while the batch was in flight
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    # Blocking binding: ListenableFuture riders, blocking batched invoke.

    def _new_future(self):
        return ListenableFuture()

    def _is_open(self, future) -> bool:
        return not future.is_done()

    def _invoke_batched(self, *args, **kwargs):
        return resolved(self.client.invoke_batched(*args, **kwargs))
