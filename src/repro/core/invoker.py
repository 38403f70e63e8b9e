"""RichClient: the Rich SDK's facade.

Wraps a :class:`repro.services.base.ServiceRegistry` and layers on the
paper's features in one coherent client:

* synchronous invocation with monitoring, caching, client-side budget
  enforcement and optional per-response quality rating;
* asynchronous invocation returning :class:`ListenableFuture`s, and
  parallel fan-out over a bounded thread pool;
* ranked failover across services of a kind (retry each per its
  policy, move down the ranking);
* redundant multi-service invocation for comparison/combination.

The hot path itself — cache, coalesce, reserve, rate limit, bulkhead,
wire, settle / record / cache — is written once, as the coroutines of
:mod:`repro.core.aio.invoker`.  The blocking entry points here drive
them on the caller's thread (:func:`~repro.core.futures.run_sync`)
through a binding whose wait points block instead of suspending — no
event loop, no extra thread; :attr:`RichClient.aio` is the same body
bound to an event loop.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.admission import AdmissionController, AdmissionRejectedError
from repro.core.batching import MicroBatcher, RequestCoalescer
from repro.core.caching import DEFAULT_CACHEABLE_OPERATIONS, ServiceCache, cache_key
from repro.core.futures import CallbackExecutor, ListenableFuture, run_sync
from repro.core.latency import LatencyPredictor
from repro.core.monitoring import ServiceMonitor
from repro.obs import names
from repro.core.quota import ClientQuotaTracker
from repro.core.ranking import ScoreFormula, ServiceRanker, Weights
from repro.core.ratelimit import ServiceRateLimiter
from repro.core.retry import AttemptLog, FailoverInvoker
from repro.obs import Observability
from repro.services.base import ServiceRegistry
from repro.simnet.errors import NetworkError
from repro.tenancy.model import Tenant
from repro.tenancy.runtime import Tenancy
from repro.util.clock import Clock
from repro.util.deadline import Deadline, DeadlineExceededError

QualityRater = Callable[[object], float]
"""User-provided function rating a response's quality (higher = better)."""

#: Failures that may be answered with a stale cached value instead of
#: an exception when ``serve_stale_on_error`` is enabled: transient
#: network-side errors, shed admissions, and exhausted deadlines (a
#: zero-cost stale answer is exactly what an out-of-budget caller can
#: still use).  Client policy violations (budget, rate limit) are not
#: degradable — hiding them would defeat the policy.
DEGRADABLE_ERRORS = (NetworkError, AdmissionRejectedError,
                     DeadlineExceededError)


@dataclass(frozen=True)
class InvocationResult:
    """What the client hands back for one logical invocation.

    ``cached`` marks a local cache hit (zero latency, zero cost);
    ``coalesced`` marks a result shared from another caller's in-flight
    upstream call (the leader paid the cost, so this result reports
    cost 0); ``batched`` marks an item served by a batched transport
    call, whose ``latency`` is the whole batch's round-trip time (that
    is what this caller actually waited).  ``degraded`` marks an answer
    produced by graceful degradation — a stale cache serve or a
    partial aggregation — rather than a fresh upstream response;
    ``stale_age`` carries the served entry's age for stale serves.
    ``entry_key`` names the cache entry a fresh hit was served from
    (None otherwise), so the gateway can reuse that entry's JSON text.
    """

    value: object
    latency: float
    cost: float
    service: str
    operation: str
    cached: bool = False
    attempts: tuple[AttemptLog, ...] = ()
    coalesced: bool = False
    batched: bool = False
    degraded: bool = False
    stale_age: float | None = None
    entry_key: str | None = field(default=None, compare=False, repr=False)


class RichClient:
    """The paper's rich SDK, as one client object.

    The client builds its own predictor, ranker and single-flight
    request coalescer over its monitor; the monitor, cache (by default
    1024 entries, no TTL), failover invoker, quota tracker and thread
    pool are injectable, sharing the registry's simulated clock
    throughout.  Admission control (per-service bulkheads) is opt-in:
    pass an :class:`AdmissionController` to bound per-service
    concurrency and shed overload with 429-style fast failures.
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        monitor: ServiceMonitor | None = None,
        cache: ServiceCache | None = None,
        failover: FailoverInvoker | None = None,
        quota: ClientQuotaTracker | None = None,
        executor: CallbackExecutor | None = None,
        quality_raters: Mapping[str, QualityRater] | None = None,
        obs: Observability | None = None,
        rate_limiter: ServiceRateLimiter | None = None,
        admission: AdmissionController | None = None,
        tenancy: Tenancy | None = None,
        serve_stale_on_error: bool = False,
    ) -> None:
        """Build the client around ``registry``.

        Args:
            registry: the services this client can reach.
            monitor/cache/failover/quota/executor: optional
                collaborator overrides; defaults are built around the
                registry's clock.
            quality_raters: per-operation response quality functions.
            obs: observability bundle; ``Observability.disabled()``
                yields a zero-telemetry client.
            rate_limiter: proactive client-side token buckets (None =
                unlimited); invoke raises RateLimitExceededError
                instead of tripping the server.
            admission: per-service bulkheads; None = no admission
                control.
            tenancy: the multi-tenant serving layer
                (:class:`repro.tenancy.Tenancy`); when set, calls made
                inside a :func:`~repro.tenancy.context.tenant_scope`
                are authorized against the tenant's budget and rate
                limit, cached in a per-tenant namespace, labelled for
                weighted-fair admission and counted in the tenant
                metrics.  None (the default) = untenanted, behavior
                unchanged.
            serve_stale_on_error: degrade gracefully — when a remote
                call fails with a transient error (see
                :data:`DEGRADABLE_ERRORS`), answer from an
                expired-but-retained cache entry (``degraded=True``)
                instead of raising.  Requires a cache built with
                ``stale_grace``.
        """
        self.registry = registry
        self.clock = self._registry_clock(registry)
        self.obs = obs if obs is not None else Observability(clock=self.clock)
        self.monitor = monitor if monitor is not None else ServiceMonitor()
        self.cache = cache if cache is not None else ServiceCache(
            capacity=1024, ttl=None, clock=self.clock
        )
        self.predictor = LatencyPredictor(self.monitor)
        self.ranker = ServiceRanker(self.monitor, self.predictor)
        self.failover = failover if failover is not None else FailoverInvoker(
            clock=self.clock
        )
        self.quota = quota if quota is not None else ClientQuotaTracker()
        self.executor = executor if executor is not None else CallbackExecutor(max_workers=8)
        # Operations safe to serve from cache (and to coalesce — both
        # require idempotent reads).
        self.cacheable_operations = DEFAULT_CACHEABLE_OPERATIONS
        # Per-operation quality raters, e.g. {"analyze": rate_analysis}.
        self.quality_raters = dict(quality_raters or {})
        # Proactive client-side rate limiting (None = unlimited): invoke
        # raises RateLimitExceededError instead of tripping the server.
        self.rate_limiter = rate_limiter
        # Single-flight table sharing concurrent identical requests (a
        # call opts out with ``coalesce=False``).
        self.coalescer = RequestCoalescer()
        self.admission = admission
        self.tenancy = tenancy
        if tenancy is not None:
            tenancy.attach_clock(self.clock)
        self.serve_stale_on_error = serve_stale_on_error
        # The hot-path body lives in repro.core.aio.invoker (deferred
        # import: it imports this module).  `_body` is its blocking
        # binding; the event-loop binding behind `.aio` is built lazily.
        from repro.core.aio.invoker import _BlockingInvoker

        self._body = _BlockingInvoker(self)
        self._aio = None
        self._aio_lock = threading.Lock()
        # Batch metrics, bound lazily in _wire_observability.
        self._metric_batch_flushes = None
        self._metric_batch_items = None
        self._metric_batch_size = None
        self._metric_deadline_expired = None
        self._metric_degraded = None
        if self.obs.enabled:
            self._wire_observability()

    def _wire_observability(self) -> None:
        """Thread the obs bundle through every hot-path collaborator.

        The monitor's ``record`` is the metrics choke point, the cache
        mirrors its hit/miss stats, the failover invoker emits attempt
        spans, the coalescer/admission controller mirror their shed and
        share counters, and each (typically shared) transport reports
        wire spans to whichever client bound it first.
        """
        self.monitor.bind_metrics(self.obs.metrics)
        self.cache.bind_metrics(self.obs.metrics)
        self.failover.bind_obs(self.obs)
        self.coalescer.bind_metrics(self.obs.metrics)
        if self.admission is not None:
            self.admission.bind_metrics(self.obs.metrics)
        if self.tenancy is not None:
            self.tenancy.bind_metrics(self.obs.metrics)
        metrics = self.obs.metrics
        self._metric_batch_flushes = metrics.counter(
            names.BATCH_FLUSHES_TOTAL, "Batched transport calls sent.").bind()
        self._metric_batch_items = metrics.counter(
            names.BATCH_ITEMS_TOTAL, "Requests shipped inside batched calls.").bind()
        self._metric_batch_size = metrics.histogram(
            names.BATCH_SIZE, "Items per batched transport call.",
            low=0.0, high=64.0, bins=16)
        self._metric_deadline_expired = metrics.counter(
            names.DEADLINE_EXPIRED_TOTAL,
            "Calls refused or cut short because the deadline was spent.").bind()
        self._metric_degraded = metrics.counter(
            names.DEGRADED_RESPONSES_TOTAL,
            "Answers produced by graceful degradation (stale or partial).").bind()
        seen = set()
        for service in self.registry:
            transport = service.transport
            if id(transport) not in seen:
                seen.add(id(transport))
                transport.bind_obs(self.obs)

    # -- async core ------------------------------------------------------------

    @property
    def aio(self):
        """This client's hot path bound to an event loop (lazy, cached).

        An :class:`repro.core.aio.AsyncInvoker` sharing this client's
        monitor, cache, quota, tenancy and observability — the
        ``await``-able API for callers that already run an event loop.
        Blocking callers who want their calls loop-served hand its
        coroutines to a runner:
        ``LoopRunner().submit_listenable(client.aio.ainvoke(...))``.
        The import is deferred to keep ``repro.core.invoker`` free of a
        package cycle with :mod:`repro.core.aio`.
        """
        if self._aio is None:
            from repro.core.aio import AsyncInvoker

            with self._aio_lock:
                if self._aio is None:
                    self._aio = AsyncInvoker(self)
        return self._aio

    @staticmethod
    def _registry_clock(registry: ServiceRegistry) -> Clock:
        for service in registry:
            return service.transport.clock
        from repro.util.clock import ManualClock

        return ManualClock()

    # -- tenancy ---------------------------------------------------------------

    def _active_tenant(self) -> Tenant | None:
        """The resolved tenant for the current context, or None.

        Raises :class:`~repro.tenancy.model.TenantSuspendedError` /
        :class:`~repro.tenancy.model.UnknownTenantError` when the scope
        names a tenant the registry refuses — refusal happens before
        any cache probe or protection spends work on the call.
        """
        if self.tenancy is None:
            return None
        return self.tenancy.resolve()

    def _cache_tenant(self) -> str | None:
        """Cache namespace for the active tenant (None = shared).

        Tenants with ``isolated_cache=False`` opt back into the shared
        namespace (useful for public reference data every tenant reads
        identically).
        """
        tenant = self._active_tenant()
        if tenant is None or not tenant.isolated_cache:
            return None
        return tenant.tenant_id

    def _request_key(self, service_name: str, operation: str,
                     payload: Mapping[str, object]) -> str:
        """One request's cache key, in the active tenant's namespace."""
        return cache_key(service_name, operation, payload,
                         tenant=self._cache_tenant())

    # -- core invocation -------------------------------------------------------

    def cached_result(
        self,
        service_name: str,
        operation: str,
        payload: Mapping[str, object],
        use_cache: bool = True,
        key: str | None = None,
    ) -> InvocationResult | None:
        """Serve one request from the local cache, or return None.

        A hit costs no latency, no money and no quota; it is counted in
        the cache metrics and in the monitor's hit count — it never
        reached the service, so it is no observation of it.  A hit only
        produces a zero-duration span when an enclosing trace is active,
        keeping the fast path cheap.  Used by :meth:`invoke`, :meth:`invoke_many` and the
        :class:`MicroBatcher` so every entry point shares one probe
        path.

        ``key`` is the request's :func:`~repro.core.caching.cache_key`
        when the caller has already computed it (the invoker needs it
        again on a miss); otherwise it is computed here.
        """
        if not use_cache or operation not in self.cacheable_operations:
            return None
        if key is None:
            key = self._request_key(service_name, operation, payload)
        hit = self.cache.get(key)
        if hit is None:
            return None
        tracer = self.obs.tracer
        if tracer.enabled and tracer.current_span() is not None:
            tracer.instant_span(
                names.SPAN_SDK_INVOKE,
                {"service": service_name, "operation": operation,
                 "cached": True, "obs.category": "cache"},
                timestamp=self.clock.now())
        self.monitor.record_hit(service_name)
        return InvocationResult(
            value=hit,
            latency=0.0,
            cost=0.0,
            service=service_name,
            operation=operation,
            cached=True,
            entry_key=key,
        )

    # -- graceful degradation ---------------------------------------------------

    def _record_degraded(self, service_name: str, operation: str,
                         stale) -> InvocationResult:
        """Count one degraded (stale) serve and build its result."""
        self.monitor.record_hit(service_name)
        if self._metric_degraded is not None:
            self._metric_degraded.inc()
        return InvocationResult(
            value=stale.value,
            latency=0.0,
            cost=0.0,
            service=service_name,
            operation=operation,
            cached=True,
            degraded=True,
            stale_age=stale.age,
        )

    def _serve_stale(self, service_name: str, operation: str,
                     key: str | None,
                     error: BaseException) -> InvocationResult | None:
        """Serve-stale-on-error: a degraded answer for a failed call.

        Only fires when the client opted in, the request was cacheable
        and the failure is transient (:data:`DEGRADABLE_ERRORS`); the
        original failure has already been recorded by the remote path.
        """
        if (key is None or not self.serve_stale_on_error
                or not isinstance(error, DEGRADABLE_ERRORS)):
            return None
        stale = self.cache.get_stale(key)
        if stale is None:
            return None
        return self._record_degraded(service_name, operation, stale)

    def _deadline_guard(self, deadline: Deadline | None, context: str) -> None:
        """Raise (and count) when the caller's budget is already spent."""
        if deadline is None:
            return
        try:
            deadline.check(context)
        except DeadlineExceededError:
            if self._metric_deadline_expired is not None:
                self._metric_deadline_expired.inc()
            raise

    def invoke(
        self,
        service_name: str,
        operation: str,
        payload: Mapping[str, object] | None = None,
        timeout: float | None = None,
        use_cache: bool = True,
        quality_rater: QualityRater | None = None,
        coalesce: bool = True,
        deadline: Deadline | None = None,
        allow_stale: bool = True,
    ) -> InvocationResult:
        """Invoke one service synchronously.

        Serves cacheable operations from the local cache when possible
        (a hit costs no latency, no money and no quota).  On a miss,
        concurrent identical requests are **coalesced**: the first
        caller leads one upstream call, every other caller blocks on
        the shared flight and receives the same result (or the same
        error) with ``coalesced=True`` and cost 0 — the cache is
        populated exactly once.  Pass ``coalesce=False`` to force an
        independent upstream call (the hedged invoker does this for its
        backup leg, which must not wait behind the primary's flight).
        Successful remote calls are recorded in the monitor together
        with their latency parameters; failures are recorded and
        re-raised.

        Every remote call runs inside an ``sdk.invoke`` span (nesting
        under whatever span is current, e.g. a failover attempt), and
        the resulting monitor record carries the trace id.

        Raises whatever the remote call raises, plus
        :class:`~repro.core.quota.BudgetExceededError` /
        :class:`~repro.core.ratelimit.RateLimitExceededError` /
        :class:`~repro.core.admission.AdmissionRejectedError` from the
        client-side protections, in that order.

        A ``deadline`` (:class:`repro.util.deadline.Deadline`) bounds
        the whole invocation end to end: an already-expired budget
        fails fast (or serves stale, when enabled) before any
        protection is consulted, follower flight waits and the wire
        timeout are clamped to the remaining budget, and the bulkhead
        never queues past it.  ``allow_stale=False`` disables the
        degraded serve paths for this call: a failure raises instead of
        answering from a stale entry (a caller that degrades on its own
        terms, e.g. behind a circuit breaker, uses it).
        """
        return run_sync(self._body.ainvoke(
            service_name, operation, payload, timeout=timeout,
            use_cache=use_cache, quality_rater=quality_rater,
            coalesce=coalesce, deadline=deadline, allow_stale=allow_stale))

    def _real_timeout(self, timeout: float | None) -> float | None:
        """Simulated timeout -> wall seconds for blocking waits."""
        if timeout is None:
            return None
        return timeout * getattr(self.clock, "time_scale", 1.0)

    # -- asynchronous invocation -------------------------------------------------

    def invoke_async(
        self,
        service_name: str,
        operation: str,
        payload: Mapping[str, object] | None = None,
        timeout: float | None = None,
        use_cache: bool = True,
        coalesce: bool = True,
        deadline: Deadline | None = None,
    ) -> ListenableFuture[InvocationResult]:
        """Invoke on the thread pool; returns a listenable future.

        Register callbacks with ``future.add_listener`` — e.g. the
        paper's example of being notified when a cloud-database store
        completes without blocking the application.  ``coalesce=False``
        forces an independent upstream call even when an identical
        request is already in flight (hedging relies on this).  A
        ``deadline`` is carried into the pooled call unchanged — it is
        an absolute expiry, so handing it across threads keeps the
        original budget.

        The call occupies a pool thread for its duration; to run it as
        an event-loop task instead, hand the coroutine to a runner:
        ``LoopRunner().submit_listenable(client.aio.ainvoke(...))``.
        """
        return self.executor.submit(
            self.invoke, service_name, operation, payload,
            timeout=timeout, use_cache=use_cache, coalesce=coalesce,
            deadline=deadline,
        )

    # -- batched invocation ------------------------------------------------------

    def invoke_batched(
        self,
        service_name: str,
        operation: str,
        payloads: Sequence[Mapping[str, object]],
        timeout: float | None = None,
        use_cache: bool = True,
        deadline: Deadline | None = None,
    ) -> list[InvocationResult | Exception]:
        """Ship ``payloads`` to the service's batch endpoint in ONE call.

        A batch is N calls in one round trip: it reserves one budget
        slot per payload (all or none — a batch that does not fit
        ``max_calls``, or whose summed cost estimate does not fit
        ``max_cost``, is refused before anything is sent), and pays one
        wire round trip, one rate-limiter token and one bulkhead permit;
        the service executes the items vectorized (compute latency is
        the max of the per-item samples, not their sum).  Per-item
        outcomes come back in input order — a failed item is returned
        as its exception, isolated from its batch-mates, and its budget
        slot is refunded.  Each item is recorded in the monitor
        (quality-rated by the operation's ``quality_raters`` entry) and
        each served one written to the cache individually; the budget
        is settled to the summed billed cost.

        Raises ``ValueError`` when the service declares no batch
        support (see ``batch_max_size`` in the catalog) or the batch
        exceeds its declared limit; the client-side protections raise
        as for :meth:`invoke`; transport-level failures (offline,
        timeout) raise for the whole batch, because the single wire
        call failed for every item — after one failed monitor record
        per item, and with every reservation refunded.

        Under a tenant scope the batch is authorized as **one** tenant
        call (one call slot, one rate token) charged with the summed
        per-item cost estimate, settled to the summed billed cost —
        the tenant-ledger analogue of the batch paying one wire round
        trip.
        """
        return run_sync(self._body.ainvoke_batched(
            service_name, operation, payloads, timeout=timeout,
            use_cache=use_cache, deadline=deadline))

    def invoke_many(
        self,
        service_name: str,
        operation: str,
        payloads: Sequence[Mapping[str, object]],
        timeout: float | None = None,
        use_cache: bool = True,
        deadline: Deadline | None = None,
    ) -> list[InvocationResult | Exception]:
        """Run one operation over many payloads as efficiently as possible.

        The burst-shaped front door: serves cache hits first, folds
        identical payloads within the burst into one upstream item
        (counted as coalesce hits), then ships the remaining unique
        payloads through the batch endpoint in ``batch_max_size``
        chunks — or falls back to sequential :meth:`invoke` calls when
        the service declares no batch support.  Results come back in
        input order; folded duplicates share the leader's result with
        ``coalesced=True`` and cost 0.  Per-item failures are returned
        as exceptions rather than raised, on either branch: a chunk
        whose round trip failed as a whole (timeout, offline, budget,
        rate limit, shed, spent deadline) comes back as that exception
        for each of its items, and the other chunks keep their results.
        """
        return run_sync(self._body.ainvoke_many(
            service_name, operation, payloads, timeout=timeout,
            use_cache=use_cache, deadline=deadline))

    def batcher(self, max_batch_size: int | None = None,
                max_wait: float = 0.05) -> MicroBatcher:
        """A :class:`MicroBatcher` bound to this client.

        ``max_batch_size`` caps windows below the service's declared
        limit (None = use the catalog's ``batch_max_size`` as-is);
        ``max_wait`` is the bounded window in simulated seconds.
        """
        return MicroBatcher(self, max_batch_size=max_batch_size,
                            max_wait=max_wait)

    def invoke_all(
        self,
        calls: Sequence[tuple[str, str, Mapping[str, object]]],
        timeout: float | None = None,
        use_cache: bool = True,
        deadline: Deadline | None = None,
    ) -> list[InvocationResult | Exception]:
        """Run many calls in parallel; preserves order.

        Failed calls come back as their exception rather than raising,
        so one bad service does not lose the other results.  One shared
        ``deadline`` bounds every leg — it is absolute, so the legs
        race the same expiry rather than each getting a fresh budget.
        """
        futures = [
            self.invoke_async(service, operation, payload,
                              timeout=timeout, use_cache=use_cache,
                              deadline=deadline)
            for service, operation, payload in calls
        ]
        results: list[InvocationResult | Exception] = []
        for future in futures:
            error = future.exception()
            results.append(error if error is not None else future.get())
        return results

    # -- ranked failover -----------------------------------------------------------

    def invoke_with_failover(
        self,
        kind: str,
        operation: str,
        payload: Mapping[str, object] | None = None,
        timeout: float | None = None,
        weights: Weights = Weights(),
        formula: str | ScoreFormula = "weighted",
        use_cache: bool = True,
        deadline: Deadline | None = None,
    ) -> InvocationResult:
        """Invoke the best-ranked service of ``kind``, failing over down
        the ranking until one responds (§2.1's strategy).

        Runs inside an ``sdk.invoke_with_failover`` root span; each
        attempt becomes a child span and backoff sleeps become events,
        so the attribution analyzer can split the call's wall time
        between retry waits and wire time.  A ``deadline`` bounds the
        whole failover walk: per-candidate retry loops stop when the
        remaining budget cannot cover the next backoff, and no new
        candidate is tried past expiry."""
        return run_sync(self._body.ainvoke_with_failover(
            kind, operation, payload, timeout=timeout, weights=weights,
            formula=formula, use_cache=use_cache, deadline=deadline))

    # -- redundant multi-service invocation ------------------------------------------

    def invoke_redundant(
        self,
        service_names: Sequence[str],
        operation: str,
        payload: Mapping[str, object] | None = None,
        timeout: float | None = None,
        parallel: bool = True,
        use_cache: bool = True,
        deadline: Deadline | None = None,
    ) -> dict[str, InvocationResult | Exception]:
        """Invoke the *same* request on several services.

        §2.1: invoke more than one service to add redundancy, to
        compare providers, or to combine their outputs (see
        :class:`repro.core.aggregation.MultiServiceCombiner`).
        Returns per-service results; failures are captured per service,
        so a partial aggregation (``combine_partial``) can still be
        built from whoever answered within the shared ``deadline``.
        """
        if parallel:
            names = list(service_names)
            outcomes = self.invoke_all(
                [(name, operation, dict(payload or {})) for name in names],
                timeout=timeout, use_cache=use_cache, deadline=deadline,
            )
            return dict(zip(names, outcomes))
        return run_sync(self._body.ainvoke_redundant(
            service_names, operation, payload, timeout=timeout,
            parallel=False, use_cache=use_cache, deadline=deadline))

    # -- convenience -----------------------------------------------------------------

    def rank_services(
        self,
        kind: str,
        latency_params: Mapping[str, float] | None = None,
        weights: Weights = Weights(),
        formula: str | ScoreFormula = "weighted",
    ) -> list[tuple[str, float]]:
        """Rank every registered service of ``kind`` (best first)."""
        names = [service.name for service in self.registry.services_of_kind(kind)]
        return self.ranker.rank(names, latency_params, formula, weights)

    def best_service(
        self,
        kind: str,
        latency_params: Mapping[str, float] | None = None,
        weights: Weights = Weights(),
        formula: str | ScoreFormula = "weighted",
    ) -> str:
        """The top-ranked service of ``kind``."""
        ranked = self.rank_services(kind, latency_params, weights, formula)
        if not ranked:
            raise ValueError(f"no services of kind {kind!r}")
        return ranked[0][0]

    def service_summaries(self) -> list[dict]:
        """Monitoring summaries for every service seen so far."""
        return [self.monitor.summary(name) for name in self.monitor.services()]

    def close(self) -> None:
        """Shut down the thread pool."""
        self.executor.shutdown()

    def __enter__(self) -> "RichClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
