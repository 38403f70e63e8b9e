"""Admission control: per-service bulkheads with a bounded wait queue.

Retry, circuit breaking and rate limiting are all *reactive* — they act
after a service has already started failing or throttling.  Admission
control is the proactive complement for heavy-traffic clients: each
service gets a **bulkhead** (a concurrency limit) plus a small bounded
queue, so a slow or overloaded dependency can never absorb every
caller.  A request that finds the bulkhead full either waits
briefly in the queue or is **shed** immediately with
:class:`AdmissionRejectedError`, which the gateway maps to HTTP 429 —
load is refused at the front door instead of piling up.

A full *fair* queue does not simply refuse the newcomer: the tenant
whose sub-queue is longest for its weight gives up its newest waiter
(Longest Queue Drop), so a flood cannot hold every queue slot while
the others are shed at the door.  FIFO keeps one sub-queue and always
refuses the newcomer.

Queue waits are contended where waiting passes the clock's time (a
thread under a real clock; a task where
:func:`~repro.util.clock.sleeps_on_loop` holds, in simulated time on a
:class:`~repro.util.clock.VirtualLoop`): a queued caller parks until a
release hands it the permit or its window lapses.  Where a virtual
clock stands still, nothing can release a permit meanwhile, so the
whole window is *charged* (deterministic, instant in wall time).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.futures import resolved, run_sync
from repro.obs import NULL_METRICS, names
from repro.tenancy.scheduling import DrrScheduler
from repro.util.clock import Clock, RealClock
from repro.util.errors import ReproError

#: Rejection reasons carried by :class:`AdmissionRejectedError`.
REASON_QUEUE_FULL = "queue-full"
REASON_QUEUE_TIMEOUT = "queue-timeout"
REASON_DEADLINE = "deadline"


class AdmissionRejectedError(ReproError):
    """A request was shed by admission control before reaching the wire.

    ``reason`` is :data:`REASON_QUEUE_FULL` (the bulkhead and its wait
    queue were both full — fast fail, no time spent),
    :data:`REASON_QUEUE_TIMEOUT` (the request queued but no permit
    freed up within ``queue_timeout``) or :data:`REASON_DEADLINE` (the
    caller's end-to-end budget could not cover any queue wait, so the
    request was shed without queueing).  The SDK gateway maps this to a
    429 envelope so non-Python callers can back off and retry —
    ``retry_after`` stays *honest* under deadline pressure: it reports
    when a permit is plausibly free (the queue window), never the
    caller's own remaining budget.
    """

    def __init__(self, service: str, reason: str, retry_after: float = 0.0) -> None:
        super().__init__(
            f"admission control shed call to {service!r} ({reason}); "
            f"retry in ~{retry_after:.3f}s")
        self.service = service
        self.reason = reason
        self.retry_after = retry_after


@dataclass(frozen=True)
class AdmissionLimit:
    """One service's bulkhead sizing.

    ``max_concurrent`` calls may be in flight at once; up to
    ``max_queue`` further callers wait at most ``queue_timeout``
    (simulated) seconds for a permit before being shed.
    """

    max_concurrent: int = 8
    max_queue: int = 16
    queue_timeout: float = 1.0

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.queue_timeout < 0:
            raise ValueError(
                f"queue_timeout must be >= 0, got {self.queue_timeout}")


@dataclass
class BulkheadStats:
    """What one bulkhead admitted, queued and shed."""

    admitted: int = 0
    queued: int = 0
    shed_queue_full: int = 0
    shed_timeout: int = 0
    shed_deadline: int = 0
    peak_inflight: int = 0
    total_queue_wait: float = 0.0
    fair_grants: int = 0
    shed_by_tenant: dict = field(default_factory=dict)

    @property
    def shed(self) -> int:
        """Total requests rejected, for whatever reason."""
        return self.shed_queue_full + self.shed_timeout + self.shed_deadline


class _Ticket:
    """One queued caller: its wait window and the handle that wakes it."""

    __slots__ = ("tenant", "started", "timeout", "reason", "wake", "admitted",
                 "evicted")

    def __init__(self, tenant: str | None, started: float, timeout: float,
                 reason: str, wake) -> None:
        self.tenant = tenant
        self.started = started
        self.timeout = timeout
        #: Why the caller is shed if the window lapses un-granted.
        self.reason = reason
        self.wake = wake
        #: Set (under the bulkhead lock) when a releaser hands over its permit.
        self.admitted = False
        #: Set (under the lock) when a newcomer pushed it out of a full
        #: queue: already dequeued and counted as a queue-full shed.
        self.evicted = False


class Bulkhead:
    """One service's concurrency limit plus bounded wait queue.

    The admission *policy* — admit / shed / queue, who gets a freed
    permit, what a lapsed or departing waiter costs — lives here once,
    as plain methods that decide under the lock and never wait.  A
    caller that must queue gets a ticket; :meth:`release` hands its
    permit **directly** to the wait queue's next ticket (the permit
    never becomes free while someone is queued, so a newcomer cannot
    barge past a waiter and wake-up order cannot override queue
    order), and a ticket that leaves after being handed the permit
    passes it on.  Only *parking* differs per driver: this class parks
    a thread on an event and :class:`repro.core.aio.AsyncBulkhead`, its
    one subclass, parks a task on a future.

    Thread-safe.  :meth:`acquire` either admits the caller (possibly
    after a bounded queue wait) or raises
    :class:`AdmissionRejectedError`; every successful acquire must be
    paired with :meth:`release` (use :meth:`admit` for the context-
    managed form).
    """

    def __init__(self, clock: Clock, service: str,
                 limit: AdmissionLimit | None = None,
                 fair: bool = False,
                 weight_of: Callable[[str], float] | None = None) -> None:
        """Build the bulkhead.

        ``fair=True`` turns the wait queue into per-tenant sub-queues
        drained by deficit round robin (``weight_of`` maps tenant ids
        to fair-share weights, default 1.0) — under contention an
        aggressor tenant's backlog can no longer starve everyone else,
        because freed permits go to the DRR-chosen waiter instead of
        the longest-waiting one, and a full queue pushes out the
        aggressor's newest waiter instead of refusing the newcomer.
        The queue discipline only shows where
        waits are contended (see the module docstring); runs that
        charge the window and re-probe make queue order moot.
        """
        self.clock = clock
        self.service = service
        self.limit = limit if limit is not None else AdmissionLimit()
        self.stats = BulkheadStats()
        self._fair = fair
        self._inflight = 0
        self._waiting = 0
        self._lock = threading.Lock()
        # One queue for both disciplines: deficit round robin over
        # per-tenant sub-queues when fair; with every ticket filed in
        # the same sub-queue (see _lane) it is plain arrival order.
        self._queue: DrrScheduler[_Ticket] = DrrScheduler(
            weight_of=weight_of if fair else None)
        self.bind_metrics(NULL_METRICS)

    def bind_metrics(self, registry) -> None:
        """Mirror admission accounting into a MetricsRegistry.

        Registers ``admission_inflight`` / ``admission_queue_depth``
        gauges and ``admission_admitted_total`` / ``admission_shed_total``
        / ``admission_queue_wait_seconds_total`` counters, all labelled
        by service (shed additionally by reason).
        """
        self._gauge_inflight = registry.gauge(
            names.ADMISSION_INFLIGHT, "Calls currently holding a bulkhead permit.")
        self._gauge_queue = registry.gauge(
            names.ADMISSION_QUEUE_DEPTH, "Callers waiting for a bulkhead permit.")
        self._metric_admitted = registry.counter(
            names.ADMISSION_ADMITTED_TOTAL, "Calls admitted through the bulkhead.")
        self._metric_shed = registry.counter(
            names.ADMISSION_SHED_TOTAL,
            "Calls shed by admission control, by service and reason.")
        self._metric_wait = registry.counter(
            names.ADMISSION_QUEUE_WAIT_SECONDS_TOTAL,
            "Simulated seconds spent queued for a bulkhead permit.")
        self._metric_fair_grants = (registry if self._fair else NULL_METRICS).counter(
            names.ADMISSION_FAIR_GRANTS_TOTAL,
            "Permits granted by the weighted-fair (DRR) scheduler.")

    @property
    def inflight(self) -> int:
        """Calls currently holding a permit."""
        with self._lock:
            return self._inflight

    @property
    def queue_depth(self) -> int:
        """Callers currently waiting for a permit."""
        with self._lock:
            return self._waiting

    # -- decisions (take and drop the lock; never wait) ---------------------

    def try_acquire(self) -> bool:
        """Take a permit if one is free right now; never waits or sheds."""
        with self._lock:
            if self._inflight < self.limit.max_concurrent:
                self._admit()
                return True
            return False

    def _arrive(self, deadline, tenant: str | None) -> _Ticket | None:
        """Decide a newcomer's fate: admitted (None), shed (raises), or
        queued (its ticket, to be parked on by :meth:`_wait`).

        A free permit means an empty queue (see the class docstring),
        so taking it jumps nobody in either queue discipline.  A full
        queue makes room by pushing out the newest ticket of the lane
        longest for its weight when the newcomer's own lane would still
        be shorter (:meth:`DrrScheduler.push_out`; never in FIFO, whose
        one lane is every ticket's); otherwise the newcomer is shed.
        """
        with self._lock:
            if self._inflight < self.limit.max_concurrent:
                self._admit()
                return None
            if deadline is not None and deadline.remaining() <= 0.0:
                raise self._shed(REASON_DEADLINE, tenant)
            if self._waiting >= self.limit.max_queue:
                pushed_out = self._queue.push_out(self._lane(tenant))
                if pushed_out is None:
                    raise self._shed(REASON_QUEUE_FULL, tenant)
                pushed_out.evicted = True
                self._set_waiting(self._waiting - 1)
                self._count_shed(REASON_QUEUE_FULL, pushed_out.tenant)
                self._wake(pushed_out)
            timeout, reason = self._queue_window(deadline)
            ticket = _Ticket(tenant, self.clock.now(), timeout, reason,
                             self._new_wake())
            self._queue.push(self._lane(tenant), ticket)
            self._set_waiting(self._waiting + 1)
            self.stats.queued += 1
            return ticket

    def _queue_window(self, deadline) -> tuple[float, str]:
        """The bounded wait window and the shed reason if it lapses."""
        timeout = self.limit.queue_timeout
        if deadline is not None:
            timeout = min(timeout, deadline.remaining())
        # A deadline-clamped window that times out is a deadline shed:
        # the caller was refused because *its* budget ran out, not ours.
        reason = (REASON_DEADLINE
                  if timeout < self.limit.queue_timeout
                  else REASON_QUEUE_TIMEOUT)
        return timeout, reason

    def _resume(self, ticket: _Ticket) -> float:
        """A parked caller is back, woken or lapsed: admitted or shed.

        Returns the (simulated) seconds it queued.  A ticket handed the
        permit in the very instant its window lapsed is admitted — the
        permit is already its own.  A pushed-out ticket is shed
        ``queue-full``, counted when it was pushed out.
        """
        with self._lock:
            waited = self.clock.now() - ticket.started
            self.stats.total_queue_wait += waited
            self._metric_wait.inc(waited, service=self.service)
            if ticket.admitted:
                return waited
            if ticket.evicted:
                raise self._rejection(REASON_QUEUE_FULL)
            self._dequeue(ticket)
            raise self._shed(ticket.reason, ticket.tenant)

    def _withdraw(self, ticket: _Ticket) -> None:
        """A parked caller is leaving without an answer (cancelled or
        interrupted): give up its queue slot, or — if a releaser had
        already handed it the permit — pass the permit on."""
        with self._lock:
            if ticket.admitted:
                self._return_permit()
            elif not ticket.evicted:
                self._dequeue(ticket)

    def release(self) -> None:
        """Return a permit: the wait queue's next ticket (arrival order,
        or the DRR scheduler's choice in fair mode) inherits it."""
        with self._lock:
            self._return_permit()

    # -- bookkeeping (caller holds the lock) --------------------------------

    def _return_permit(self) -> None:
        if self._inflight <= 0:
            raise RuntimeError(
                f"bulkhead for {self.service!r}: release without acquire")
        self._inflight -= 1
        self._gauge_inflight.set(self._inflight, service=self.service)
        self._maybe_grant()

    def _maybe_grant(self) -> None:
        """Hand the free permit to the wait queue's next ticket, if any."""
        ticket = self._queue.pop_next()
        if ticket is None:
            return
        self._set_waiting(self._waiting - 1)
        ticket.admitted = True
        self._admit()
        if self._fair:
            self.stats.fair_grants += 1
            self._metric_fair_grants.inc(service=self.service)
        self._wake(ticket)

    def _admit(self) -> None:
        self._inflight += 1
        self.stats.admitted += 1
        self.stats.peak_inflight = max(self.stats.peak_inflight, self._inflight)
        self._gauge_inflight.set(self._inflight, service=self.service)
        self._metric_admitted.inc(service=self.service)

    def _lane(self, tenant: str | None) -> str | None:
        """The wait queue's sub-queue for ``tenant`` (one for all in FIFO)."""
        return tenant if self._fair else None

    def _dequeue(self, ticket: _Ticket) -> None:
        self._queue.remove(self._lane(ticket.tenant), ticket)
        self._set_waiting(self._waiting - 1)

    def _set_waiting(self, waiting: int) -> None:
        self._waiting = waiting
        self._gauge_queue.set(waiting, service=self.service)

    def _shed(self, reason: str, tenant: str | None) -> AdmissionRejectedError:
        """Count one shed and build its error (the caller raises it)."""
        self._count_shed(reason, tenant)
        return self._rejection(reason)

    def _rejection(self, reason: str) -> AdmissionRejectedError:
        return AdmissionRejectedError(self.service, reason,
                                      retry_after=self.limit.queue_timeout)

    def _count_shed(self, reason: str, tenant: str | None) -> None:
        """Mirror one shed into stats and metrics."""
        if reason == REASON_QUEUE_FULL:
            self.stats.shed_queue_full += 1
        elif reason == REASON_DEADLINE:
            self.stats.shed_deadline += 1
        else:
            self.stats.shed_timeout += 1
        if tenant is not None:
            self.stats.shed_by_tenant[tenant] = (
                self.stats.shed_by_tenant.get(tenant, 0) + 1)
        labels = {"service": self.service, "reason": reason}
        if tenant is not None:
            labels["tenant"] = tenant
        self._metric_shed.inc(**labels)

    # -- waiting: one body, parked per driver --------------------------------

    async def _wait(self, ticket: _Ticket) -> float:
        """Wait out a queued ticket's window — written once, parked twice.

        Its only suspension point is the park, so a cancellation (or,
        under the blocking driver, a ``KeyboardInterrupt``) can only
        land there, and the ticket is withdrawn before it propagates:
        no queue slot, DRR entry or handed-over permit is ever leaked.
        """
        try:
            if self._contended():
                await self._park(ticket, ticket.timeout)
            else:
                # The clock stands still while we "wait": charge the whole
                # window, then re-probe — the deterministic worst case.
                self.clock.charge(ticket.timeout)  # repro: ignore[RA007] — a virtual clock: instant
        except BaseException:
            self._withdraw(ticket)
            raise
        return self._resume(ticket)

    def acquire(self, deadline=None, tenant: str | None = None) -> float:
        """Take a permit, queueing briefly if the bulkhead is full.

        Returns the (simulated) seconds spent waiting in the queue.
        Raises :class:`AdmissionRejectedError` with reason
        :data:`REASON_QUEUE_FULL` when the wait queue is already at
        capacity (fast fail — no time is spent),
        :data:`REASON_QUEUE_TIMEOUT` when no permit frees up within the
        limit's ``queue_timeout`` (the wait is charged to the clock
        when it cannot be contended),
        or :data:`REASON_DEADLINE` when the caller's ``deadline``
        (:class:`repro.util.deadline.Deadline`) leaves no budget to
        queue at all.  With a deadline, the queue wait is clamped to
        the remaining budget — work that cannot finish in time is shed
        instead of queued, with an honest ``retry_after``.
        """
        ticket = self._arrive(deadline, tenant)
        return 0.0 if ticket is None else run_sync(self._wait(ticket))

    # The park primitive, blocking binding: a thread waits on an event, in
    # wall time (no event loop is looked up).

    def _contended(self) -> bool:
        return isinstance(self.clock, RealClock)

    def _new_wake(self):
        return threading.Event()

    def _wake(self, ticket: _Ticket) -> None:
        ticket.wake.set()

    def _park(self, ticket: _Ticket, seconds: float):
        ticket.wake.wait(seconds)
        return resolved(None)

    @contextmanager
    def admit(self, tenant: str | None = None) -> Iterator[None]:
        """Context-managed acquire/release pair."""
        self.acquire(tenant=tenant)
        try:
            yield
        finally:
            self.release()


class AdmissionController:
    """Per-service bulkheads sharing one clock and default sizing.

    Unconfigured services get ``default_limit`` (pass ``None`` to admit
    them without any limit, mirroring :class:`ServiceRateLimiter`'s
    opt-in behaviour).  :class:`repro.core.invoker.RichClient` consults
    the controller on every remote call and releases the permit when
    the wire call finishes, so the bulkhead bounds *concurrency*, not
    call counts.
    """

    #: The bulkhead binding this controller builds (blocking here; the
    #: event-loop controller subclass names the loop-parked one).
    _bulkhead_class = Bulkhead

    def __init__(self, clock: Clock,
                 default_limit: AdmissionLimit | None = None,
                 limits: Mapping[str, AdmissionLimit] | None = None,
                 fair: bool = False,
                 weight_of: Callable[[str], float] | None = None) -> None:
        """Build the controller.

        ``fair=True`` makes every bulkhead drain its wait queue with
        weighted-fair (deficit-round-robin) scheduling over per-tenant
        sub-queues; ``weight_of`` maps a tenant id to its fair-share
        weight (typically ``Tenancy.weight_of``).
        """
        self.clock = clock
        self.default_limit = default_limit
        self.fair = fair
        self.weight_of = weight_of
        self._limits = dict(limits or {})
        self._bulkheads: dict[str, Bulkhead] = {}
        self._metrics = NULL_METRICS
        self._lock = threading.Lock()

    def bind_metrics(self, registry) -> None:
        """Mirror every bulkhead's accounting into ``registry``."""
        self._metrics = registry
        with self._lock:
            for bulkhead in self._bulkheads.values():
                bulkhead.bind_metrics(registry)

    def configure(self, service: str, limit: AdmissionLimit) -> Bulkhead:
        """Set one service's bulkhead sizing and return its bulkhead."""
        with self._lock:
            self._limits[service] = limit
            self._bulkheads.pop(service, None)
        return self.bulkhead_for(service)

    def bulkhead_for(self, service: str) -> Bulkhead | None:
        """The service's bulkhead, or None when it is unlimited."""
        with self._lock:
            bulkhead = self._bulkheads.get(service)
            if bulkhead is not None:
                return bulkhead
            limit = self._limits.get(service, self.default_limit)
            if limit is None:
                return None
            bulkhead = self._bulkhead_class(
                self.clock, service, limit,
                fair=self.fair, weight_of=self.weight_of)
            bulkhead.bind_metrics(self._metrics)
            self._bulkheads[service] = bulkhead
            return bulkhead
