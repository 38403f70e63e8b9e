"""The invocation hot path: one body, two drivers.

The Rich SDK's policy stack — cache, coalesce, tenant and quota
reservation, rate limit, bulkhead, wire call, settle / record / cache
— is written **once**, as the coroutines of :class:`AsyncInvoker`, and
the guarded round trip inside it once more narrowly: a batch is N calls
in one round trip, so :meth:`AsyncInvoker._upstream` carries one payload
for ``ainvoke`` and N for ``ainvoke_batched`` (N budget slots, one
tenant charge, one rate token, one permit, one record per item).
The bodies name no waiting primitive; they await seven *wait points*
(flight result, bulkhead acquire, service call, batch call, nested
invoke / batch, failover walk) that a binding supplies:

* :class:`AsyncInvoker` itself binds them to the loop-native machinery
  (:meth:`~repro.core.batching.Flight.aresult`,
  :mod:`repro.core.aio.admission`, ``service.ainvoke*``) — the API
  behind :attr:`RichClient.aio`;
* :class:`_BlockingInvoker` binds them to the client's thread-safe
  collaborators.  Each wait point then blocks on the caller's thread
  and returns an already-resolved awaitable, so the body never
  suspends and :func:`~repro.core.futures.run_sync` drives it without
  a loop or a thread — :class:`RichClient`'s whole blocking API.

Everything stateful besides the waiting machinery is the client's own
object — registry, monitor, cache, ranker, quota ledger, rate limiter,
tenancy, observability — so results, records and metrics are identical
whichever driver served a call.

Cancellation contract (every coroutine here; under the blocking driver
"cancellation" is a ``KeyboardInterrupt`` / ``SystemExit`` raised
inside a wait point):

* cancelling a call releases its bulkhead permit and **refunds** its
  quota/tenant reservations — protections are never leaked;
* once the wire call has returned, the success path (settle, record,
  cache) runs without suspension points, so accounting is at-most-once
  and never torn by cancellation;
* a cancelled coalescing *leader* fails the shared flight with its
  cancellation (followers see the error); a cancelled *follower*
  detaches silently.
"""

from __future__ import annotations

import asyncio
from collections.abc import Mapping, Sequence

from repro.core.aio.admission import AsyncAdmissionController
from repro.core.admission import AdmissionRejectedError
from repro.core.batching import RequestCoalescer
from repro.core.caching import cache_key
from repro.core.futures import resolved
from repro.core.invoker import InvocationResult, QualityRater, RichClient
from repro.core.monitoring import InvocationRecord
from repro.core.ranking import ScoreFormula, Weights
from repro.obs import names
from repro.services.base import ServiceRequest
from repro.tenancy.runtime import REASON_SHED
from repro.util.deadline import Deadline, DeadlineExceededError


def _folded(shared: InvocationResult) -> InvocationResult:
    """The result of a request folded onto another's upstream call.

    An in-burst duplicate or a coalesced follower reports the shared
    outcome at no cost (the leader paid): ``dataclasses.replace(shared,
    coalesced=True, cost=0.0)``, built directly.
    """
    return InvocationResult(
        value=shared.value,
        latency=shared.latency,
        cost=0.0,
        service=shared.service,
        operation=shared.operation,
        cached=shared.cached,
        attempts=shared.attempts,
        coalesced=True,
        batched=shared.batched,
        degraded=shared.degraded,
        stale_age=shared.stale_age,
        entry_key=shared.entry_key,
    )


class AsyncInvoker:
    """The Rich SDK's hot path as coroutines, sharing one client's state.

    Construct via :attr:`RichClient.aio` (lazy, cached) or directly
    from a client.  Loops in several threads may share it (flights and
    permits wake across loops); :func:`repro.util.clock.run` and
    :class:`~repro.core.aio.runner.LoopRunner` give blocking callers one.
    """

    def __init__(self, client: RichClient) -> None:
        """Wrap ``client``, cloning its coalescing/admission policies.

        The coalescer and admission bulkheads are this binding's own
        (same policy, same metric names, independent flights and
        permits); everything else is the client's own object.
        """
        self._share(client)
        self.coalescer = RequestCoalescer()
        self.admission = (AsyncAdmissionController.from_sync(client.admission)
                          if client.admission is not None else None)
        self.coalescer.bind_metrics(self.obs.metrics)
        if self.admission is not None:
            self.admission.bind_metrics(self.obs.metrics)

    def _share(self, client: RichClient) -> None:
        """Adopt the client's stateful collaborators (both bindings)."""
        self.client = client
        self.clock = client.clock
        self.obs = client.obs
        self.registry = client.registry
        self.monitor = client.monitor
        self.cache = client.cache
        self.quota = client.quota
        self.rate_limiter = client.rate_limiter
        self.tenancy = client.tenancy
        self.cacheable_operations = client.cacheable_operations
        self.quality_raters = client.quality_raters
        self.ranker = client.ranker

    @property
    def failover(self):
        """The client's failover invoker (read live: it is replaceable)."""
        return self.client.failover

    # -- wait points (loop-native binding) ---------------------------------
    #
    # Each returns an awaitable; the bodies below await these and nothing
    # else.  _BlockingInvoker rebinds all seven.  Nested hops go back
    # through the public entry points, so every layer stays visible to
    # whoever wrapped it (tracers, tests).

    def _flight_result(self, flight, timeout):
        return flight.aresult(timeout=timeout)

    def _acquire(self, bulkhead, deadline, tenant):
        return bulkhead.acquire(deadline=deadline, tenant=tenant)

    def _call(self, service, operation, payload, timeout):
        return service.ainvoke(operation, payload, timeout=timeout)

    def _call_batch(self, service, operation, payloads, timeout):
        return service.ainvoke_batch(operation, payloads, timeout=timeout)

    def _invoke(self, *args, **kwargs):
        return self.ainvoke(*args, **kwargs)

    def _invoke_batched(self, *args, **kwargs):
        return self.ainvoke_batched(*args, **kwargs)

    def _failover_walk(self, ranked, deadline, *call, **options):
        return self.failover.ainvoke(
            ranked,
            lambda name: self.ainvoke(name, *call, deadline=deadline, **options),
            deadline=deadline)

    # -- core invocation ---------------------------------------------------

    async def ainvoke(
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
        """Invoke one service — the body of :meth:`RichClient.invoke`.

        Cache probe, spent-deadline fast path, single-flight
        coalescing, then :meth:`_ainvoke_remote` and the
        graceful-degradation fallbacks; semantics, span names, monitor
        records and error types are documented on
        :meth:`RichClient.invoke`.  See the module docstring for the
        cancellation contract.
        """
        payload = dict(payload or {})
        service = self.registry.get(service_name)
        # One key per request: the probe, the flight and the cache fill
        # all use it.
        cacheable = use_cache and operation in self.cacheable_operations
        key = (self.client._request_key(service_name, operation, payload)
               if cacheable else None)
        hit = self.client.cached_result(service_name, operation, payload,
                                        use_cache, key=key)
        if hit is not None:
            return hit

        if deadline is not None and deadline.expired():
            # Spent budget: a stale answer is the only useful response.
            try:
                self.client._deadline_guard(
                    deadline, f"invoke {service_name}.{operation}")
            except DeadlineExceededError as error:
                degraded = (self.client._serve_stale(
                    service_name, operation, key, error)
                    if allow_stale else None)
                if degraded is not None:
                    return degraded
                raise

        flight = None
        if coalesce and key is not None:
            leader, flight = self.coalescer.lead_or_join(key)
            if not leader:
                wait = deadline.clamp(timeout) if deadline is not None else timeout
                # Follower: the leader pays the wire call, the quota and
                # the monitor record; we report the shared outcome.
                shared = await self._flight_result(flight, wait)
                return _folded(shared)
        try:
            result = await self._ainvoke_remote(
                service, service_name, operation, payload, timeout,
                key, quality_rater, deadline=deadline)
        except BaseException as error:
            if flight is not None:
                # Fail the flight (cancellation / KeyboardInterrupt
                # included) so followers are never stranded on a dead
                # leader.
                self.coalescer.fail(flight, error)
            if not isinstance(error, Exception):
                raise
            degraded = (self.client._serve_stale(
                service_name, operation, key, error)
                if allow_stale else None)
            if degraded is not None:
                return degraded
            raise
        if flight is not None:
            self.coalescer.complete(flight, result)
        return result

    async def _ainvoke_remote(
        self,
        service,
        service_name: str,
        operation: str,
        payload: dict,
        timeout: float | None,
        key: str | None,
        quality_rater: QualityRater | None,
        deadline: Deadline | None = None,
    ) -> InvocationResult:
        """One real upstream call: :meth:`_upstream` carrying one payload."""
        with self.obs.tracer.span(
                names.SPAN_SDK_INVOKE,
                {"service": service_name, "operation": operation}) as span:
            (result,) = await self._upstream(
                service, service_name, operation, [payload], [key], timeout,
                deadline, span,
                quality_rater or self.quality_raters.get(operation),
                batched=False)
            span.set_attribute("latency", result.latency)
            span.set_attribute("cost", result.cost)
            return result

    async def _upstream(
        self,
        service,
        service_name: str,
        operation: str,
        payloads: list[dict],
        keys: list[str | None],
        timeout: float | None,
        deadline: Deadline | None,
        span,
        rater: QualityRater | None,
        batched: bool,
    ) -> list[InvocationResult | Exception]:
        """One guarded round trip carrying ``payloads``: protections, wire, accounting.

        The only place the client-side protections are spelled out: a
        single call is this with one payload over :meth:`_call`, a batch
        (``batched``) the same with N over :meth:`_call_batch`.
        In order: tenant authorization (rate limit then budget, when a
        tenant scope is active; one tenant call whatever N), the
        client-wide budget reservation, the rate limiter (one token),
        then admission control — the bulkhead permit is held for exactly
        the duration of the wire call, so it bounds concurrency rather
        than call counts.  Budgets are charged atomically up front (one
        call slot per payload plus the summed cost-model estimate) and
        settled to the billed cost once the wire returns — the slots of
        a batch's failed items refunded — or refunded whole when it
        raises, so neither a concurrent burst nor a batch can overshoot.
        With a ``deadline``, the bulkhead queues only within the
        remaining budget and the wire timeout is clamped to whatever
        budget survives the queue wait.

        A wire failure (or a deadline spent in the queue) leaves one
        failed monitor record per payload and propagates.  Cleanup
        handlers catch ``BaseException`` so cancellation refunds the
        reservations and releases the permit; after the wire call
        returns there are no suspension points, so settle / record /
        cache are atomic.  Per-item outcomes come back in input order.
        """
        tenant = self.client._active_tenant()
        if tenant is not None:
            span.set_attribute("tenant", tenant.tenant_id)
        # The cost estimate feeds the atomic budget reservations; it is
        # only computed when some ledger will actually use it.
        estimate = 0.0
        if tenant is not None or self.quota.has_cost_limit(service_name):
            estimate = sum(service.cost_model.cost(ServiceRequest(operation, payload))
                           for payload in payloads)
        charge = (self.tenancy.authorize(tenant, estimate)
                  if tenant is not None else None)
        reservation = None
        params: dict[str, float] = {}
        try:
            reservation = self.quota.reserve(service_name, estimate,
                                             calls=len(payloads))
            if self.rate_limiter is not None:
                self.rate_limiter.acquire_or_raise(service_name)
            bulkhead = (self.admission.bulkhead_for(service_name)
                        if self.admission is not None else None)
            if bulkhead is not None:
                try:
                    await self._acquire(
                        bulkhead, deadline,
                        tenant.tenant_id if tenant is not None else None)
                except AdmissionRejectedError:
                    if tenant is not None:
                        self.tenancy.count_rejection(
                            tenant.tenant_id, REASON_SHED)
                    raise
            try:
                if not batched:
                    # A batch item's latency is the whole batch's, not a
                    # function of its own size: nothing for the
                    # predictor to learn from.
                    params = service.latency_params(
                        ServiceRequest(operation, payloads[0]))
                if deadline is not None:
                    self.client._deadline_guard(
                        deadline,
                        f"{'invoke_batched' if batched else 'invoke'} "
                        f"{service_name}.{operation}")
                    timeout = deadline.clamp(timeout)
                if batched:
                    responses = await self._call_batch(
                        service, operation, payloads, timeout)
                else:
                    responses = [await self._call(
                        service, operation, payloads[0], timeout)]
            except Exception as error:
                now = self.clock.now()
                for _ in payloads:
                    self.monitor.record(self._record(
                        service_name, operation, now, span, params,
                        error=error))
                raise
            finally:
                if bulkhead is not None:
                    bulkhead.release()
        except BaseException:
            if reservation is not None:
                self.quota.cancel(reservation)
            if charge is not None:
                self.tenancy.cancel(tenant, charge)
            raise

        billed, served = 0.0, 0
        for response in responses:
            if not isinstance(response, Exception):
                billed += response.cost
                served += 1
        self.quota.settle(reservation, billed, served=served)
        if charge is not None:
            self.tenancy.settle(tenant, charge, billed)
        now = self.clock.now()
        outcomes: list[InvocationResult | Exception] = []
        for response, key in zip(responses, keys):
            if isinstance(response, Exception):
                self.monitor.record(self._record(
                    service_name, operation, now, span, params, error=response))
                outcomes.append(response)
                continue
            self.monitor.record(self._record(
                service_name, operation, now, span, params, response,
                rater(response.value) if rater is not None else None))
            if key is not None:
                self.cache.put(key, response.value)
            if operation in ("put", "delete"):
                # A mutation makes this service's cached reads suspect —
                # the consistency issue §2 warns about.
                self.cache.invalidate_service(service_name)
            outcomes.append(InvocationResult(
                value=response.value,
                latency=response.latency,
                cost=response.cost,
                service=service_name,
                operation=operation,
                batched=batched,
            ))
        return outcomes

    @staticmethod
    def _record(service_name: str, operation: str, timestamp: float, span,
                params: dict[str, float], response=None,
                quality: float | None = None,
                error: Exception | None = None) -> InvocationRecord:
        """The monitor record of one upstream item: served, or failed with ``error``."""
        return InvocationRecord(
            service=service_name,
            operation=operation,
            timestamp=timestamp,
            latency=response.latency if response is not None else None,
            cost=response.cost if response is not None else 0.0,
            success=response is not None,
            error=repr(error) if error is not None else None,
            latency_params=params,
            quality=quality,
            trace_id=span.trace_id,
        )

    # -- batched invocation ------------------------------------------------

    async def ainvoke_batched(
        self,
        service_name: str,
        operation: str,
        payloads: Sequence[Mapping[str, object]],
        timeout: float | None = None,
        use_cache: bool = True,
        deadline: Deadline | None = None,
    ) -> list[InvocationResult | Exception]:
        """Ship ``payloads`` to the service's batch endpoint in one call.

        The body of :meth:`RichClient.invoke_batched` (documented
        there): :meth:`_upstream` carrying N payloads — one round trip,
        one tenant charge, one rate token, one bulkhead permit, N budget
        slots, per-item outcomes in input order.  Cancellation mid-wire
        abandons every item at once (they share the single call) and
        refunds the budget slots and the tenant charge; admission and
        accounting are never leaked.
        """
        payloads = [dict(payload) for payload in payloads]
        if not payloads:
            return []
        service = self.registry.get(service_name)
        with self.obs.tracer.span(
                names.SPAN_SDK_INVOKE_BATCH,
                {"service": service_name, "operation": operation,
                 names.BATCH_SIZE: len(payloads),
                 "obs.category": "batch"}) as span:
            self.client._deadline_guard(
                deadline, f"invoke_batched {service_name}.{operation}")
            if use_cache and operation in self.cacheable_operations:
                namespace = self.client._cache_tenant()
                keys = [cache_key(service_name, operation, payload,
                                  tenant=namespace) for payload in payloads]
            else:
                keys = [None] * len(payloads)
            outcomes = await self._upstream(
                service, service_name, operation, payloads, keys, timeout,
                deadline, span, self.quality_raters.get(operation),
                batched=True)
            self.client._metric_batch_flushes.inc()
            self.client._metric_batch_items.inc(len(payloads))
            self.client._metric_batch_size.observe(float(len(payloads)))
            # Served items all report the one round trip they shared.
            span.set_attribute("latency", next(
                (outcome.latency for outcome in outcomes
                 if not isinstance(outcome, Exception)), 0.0))
            return outcomes

    async def ainvoke_many(
        self,
        service_name: str,
        operation: str,
        payloads: Sequence[Mapping[str, object]],
        timeout: float | None = None,
        use_cache: bool = True,
        deadline: Deadline | None = None,
    ) -> list[InvocationResult | Exception]:
        """Run one operation over many payloads as efficiently as possible.

        The body of :meth:`RichClient.invoke_many` (documented there):
        cache hits first, in-burst dedup (counted as coalesce hits),
        then batch-endpoint chunks or sequential calls.  Per-item
        failures come back as exceptions — a chunk whose round trip
        failed as a whole is that exception for each of its items, and
        the other chunks keep their results; cancellation aborts the
        remaining chunks (already-returned items are simply lost with
        the coroutine, their server-side effects stand).
        """
        payloads = [dict(payload) for payload in payloads]
        service = self.registry.get(service_name)
        results: list[InvocationResult | Exception | None] = [None] * len(payloads)

        # One key per payload serves the cache probe and the in-batch
        # dedup: identical payloads ride one upstream item.
        namespace = self.client._cache_tenant()
        groups: dict[str, list[int]] = {}
        for index, payload in enumerate(payloads):
            key = cache_key(service_name, operation, payload, tenant=namespace)
            hit = self.client.cached_result(service_name, operation, payload,
                                            use_cache, key=key)
            if hit is not None:
                results[index] = hit
            else:
                groups.setdefault(key, []).append(index)
        folded = sum(len(indices) - 1 for indices in groups.values())
        if folded:
            self.coalescer.count_folded(folded)
        leaders = [indices[0] for indices in groups.values()]

        if service.supports_batching and leaders:
            limit = service.batch_max_size
            for start in range(0, len(leaders), limit):
                chunk = leaders[start:start + limit]
                try:
                    outcomes = await self._invoke_batched(
                        service_name, operation,
                        [payloads[index] for index in chunk],
                        timeout=timeout, use_cache=use_cache,
                        deadline=deadline)
                except Exception as error:
                    # The round trip failed for the whole chunk: that is
                    # each item's outcome; other chunks keep theirs.
                    outcomes = [error] * len(chunk)
                for index, outcome in zip(chunk, outcomes):
                    results[index] = outcome
        else:
            for index in leaders:
                try:
                    results[index] = await self._invoke(
                        service_name, operation, payloads[index],
                        timeout=timeout, use_cache=use_cache,
                        deadline=deadline)
                except Exception as error:
                    results[index] = error

        for indices in groups.values():
            shared = results[indices[0]]
            for index in indices[1:]:
                results[index] = (_folded(shared)
                                  if isinstance(shared, InvocationResult)
                                  else shared)
        return results

    # -- fan-out -----------------------------------------------------------

    async def ainvoke_all(
        self,
        calls: Sequence[tuple[str, str, Mapping[str, object]]],
        timeout: float | None = None,
        use_cache: bool = True,
        deadline: Deadline | None = None,
    ) -> list[InvocationResult | Exception]:
        """Run many calls concurrently as tasks; preserves order.

        The body of :meth:`RichClient.invoke_all`, which runs it on a
        loop of its own: the legs are tasks, so fan-out width is not
        bounded by a pool.  Per-leg failures come back as their
        exception; cancelling this coroutine cancels every in-flight
        leg (the legs are child tasks of the gather).
        """
        async def one(service: str, operation: str,
                      payload: Mapping[str, object]):
            try:
                return await self.ainvoke(service, operation, payload,
                                          timeout=timeout, use_cache=use_cache,
                                          deadline=deadline)
            except Exception as error:  # noqa: BLE001 — per-leg isolation
                return error

        return list(await asyncio.gather(
            *(one(service, operation, payload)
              for service, operation, payload in calls)))

    # -- ranked failover ---------------------------------------------------

    async def ainvoke_with_failover(
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
        """Invoke the best-ranked service of ``kind`` with failover.

        The body of :meth:`RichClient.invoke_with_failover`
        (documented there): ranking, root span, then the failover walk.
        Cancellation stops the walk immediately — no further candidate
        is contacted.
        """
        with self.obs.tracer.span(names.SPAN_SDK_INVOKE_WITH_FAILOVER,
                                  {"kind": kind, "operation": operation}):
            candidates = [service.name
                          for service in self.registry.services_of_kind(kind)]
            if not candidates:
                raise ValueError(f"no services of kind {kind!r}")
            request = ServiceRequest(operation, dict(payload or {}))
            params = self.registry.get(candidates[0]).latency_params(request)
            ranked = [name for name, _ in
                      self.ranker.rank(candidates, params, formula, weights)]

            served_by, result, attempts = await self._failover_walk(
                ranked, deadline, operation, payload, timeout=timeout,
                use_cache=use_cache)
        return InvocationResult(
            value=result.value,
            latency=result.latency,
            cost=result.cost,
            service=served_by,
            operation=operation,
            cached=result.cached,
            attempts=tuple(attempts),
            degraded=result.degraded,
            stale_age=result.stale_age,
        )

    # -- redundant multi-service invocation --------------------------------

    async def ainvoke_redundant(
        self,
        service_names: Sequence[str],
        operation: str,
        payload: Mapping[str, object] | None = None,
        timeout: float | None = None,
        parallel: bool = True,
        use_cache: bool = True,
        deadline: Deadline | None = None,
    ) -> dict[str, InvocationResult | Exception]:
        """Invoke the same request on several services.

        The body of :meth:`RichClient.invoke_redundant` (documented
        there).  ``parallel=True`` fans the legs out as tasks via
        :meth:`ainvoke_all`, which cancellation tears down together —
        loop-only, so the blocking driver runs ``parallel=False`` here
        and hands ``parallel=True`` to a loop of its own.
        """
        ordered = list(service_names)
        if parallel:
            outcomes = await self.ainvoke_all(
                [(name, operation, dict(payload or {})) for name in ordered],
                timeout=timeout, use_cache=use_cache, deadline=deadline,
            )
            return dict(zip(ordered, outcomes))
        results: dict[str, InvocationResult | Exception] = {}
        for name in ordered:
            try:
                results[name] = await self._invoke(
                    name, operation, payload, timeout=timeout,
                    use_cache=use_cache, deadline=deadline)
            except Exception as error:
                results[name] = error
        return results

    # -- convenience -------------------------------------------------------

    def batcher(self, max_batch_size: int | None = None,
                max_wait: float = 0.05):
        """An :class:`~repro.core.aio.batching.AsyncMicroBatcher` bound here."""
        from repro.core.aio.batching import AsyncMicroBatcher

        return AsyncMicroBatcher(self, max_batch_size=max_batch_size,
                                 max_wait=max_wait)


class _BlockingInvoker(AsyncInvoker):
    """The same bodies, bound to the client's blocking collaborators.

    What :class:`RichClient` drives with ``run_sync``.  The coalescer
    and admission controller are the client's own thread-safe ones;
    each wait point is a plain ``def`` that makes its blocking call
    (which raises exactly where the body awaits it) and returns it
    :func:`~repro.core.futures.resolved`.  Nested hops and the failover
    walk go through the client's public attributes.  :meth:`ainvoke_all`
    (so ``parallel=True``) needs an event loop: the blocking API runs
    :attr:`RichClient.aio`'s on one instead.
    """

    def __init__(self, client: RichClient) -> None:
        """Bind to ``client``'s own coalescer and admission controller."""
        self._share(client)
        self.coalescer = client.coalescer
        self.admission = client.admission

    def _flight_result(self, flight, timeout):
        return resolved(flight.result(timeout=timeout))

    def _acquire(self, bulkhead, deadline, tenant):
        return resolved(bulkhead.acquire(deadline=deadline, tenant=tenant))

    def _call(self, service, operation, payload, timeout):
        return resolved(service.invoke(operation, payload, timeout=timeout))

    def _call_batch(self, service, operation, payloads, timeout):
        return resolved(service.invoke_batch(operation, payloads,
                                             timeout=timeout))

    def _invoke(self, *args, **kwargs):
        return resolved(self.client.invoke(*args, **kwargs))

    def _invoke_batched(self, *args, **kwargs):
        return resolved(self.client.invoke_batched(*args, **kwargs))

    def _failover_walk(self, ranked, deadline, *call, **options):
        client = self.client
        return resolved(client.failover.invoke(
            ranked,
            lambda name: client.invoke(name, *call, deadline=deadline, **options),
            deadline=deadline))
