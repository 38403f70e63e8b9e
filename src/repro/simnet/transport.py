"""The simulated wire between clients and services.

Every "remote" call in this reproduction goes through
:meth:`Transport.call`, which enforces the same boundary a real HTTP
transport would:

* the request and response payloads are round-tripped through JSON, so
  only serializable data crosses and the caller never shares mutable
  state with the service;
* connectivity is checked against a :class:`ConnectivityModel`;
* network latency is sampled per direction and, together with the
  service's compute latency, charged to the simulation clock;
* a caller-supplied timeout aborts calls whose total latency exceeds it,
  raising :class:`ServiceTimeoutError` after charging the timeout (the
  client really did wait that long).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Generator, Mapping
from dataclasses import dataclass, field

from repro.obs import NULL_OBS, NULL_TRACER, names
from repro.simnet.connectivity import AlwaysOnline, ConnectivityModel
from repro.simnet.errors import (
    ConnectivityError,
    RemoteServiceError,
    ServiceTimeoutError,
)
from repro.simnet.latency import ConstantLatency, LatencyDistribution
from repro.util.clock import Clock, ManualClock, acharge
from repro.util.errors import SerializationError
from repro.util.rng import SeededRng

ServerFn = Callable[[dict], tuple[dict, float]]
"""A service entry point: payload -> (response payload, compute latency)."""


#: The wire's one encoder.  Without the circular-reference marker walk a
#: cycle recurses until ``RecursionError``, reported like every other
#: payload that cannot cross (:func:`_encode`).  ``ensure_ascii`` holds,
#: so a text's length is its byte count.
_WIRE_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def _encode(payload: object, what: str) -> str:
    """The compact JSON text of ``payload``, or :class:`SerializationError`."""
    try:
        return _WIRE_ENCODER.encode(payload)
    except (TypeError, ValueError, RecursionError) as exc:
        raise SerializationError(f"{what} is not JSON-serializable: {exc}") from exc


def wire_size(payload: object) -> int:
    """Bytes the payload occupies on the simulated wire (JSON-encoded)."""
    return len(_encode(payload, "payload"))


def _roundtrip(payload: object, direction: str) -> tuple[dict, int]:
    """JSON round-trip a payload to enforce the serialization boundary.

    Returns the decoded copy and the size of the one encoding that
    crossed the wire.  That is :func:`wire_size` of the copy except for
    keys that collide once JSON makes them strings (``{1: "a", "1":
    "b"}``): the wire carried both entries and is charged for both,
    the receiver's ``dict`` keeps the last.
    """
    encoded = _encode(payload, f"{direction} payload")
    return json.loads(encoded), len(encoded)


@dataclass
class TransportStats:
    """Running totals of everything that crossed this transport."""

    calls: int = 0
    successes: int = 0
    timeouts: int = 0
    offline_failures: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    total_latency: float = 0.0
    per_endpoint_calls: dict[str, int] = field(default_factory=dict)
    # Batched calls: one wire round trip carrying several requests.
    batch_calls: int = 0
    batched_items: int = 0

    def record_call(self, endpoint: str, batch_size: int | None = None) -> None:
        """Count one wire call (carrying ``batch_size`` items if batched)."""
        self.calls += 1
        self.per_endpoint_calls[endpoint] = self.per_endpoint_calls.get(endpoint, 0) + 1
        if batch_size is not None:
            self.batch_calls += 1
            self.batched_items += batch_size


@dataclass
class TransportResult:
    """Outcome of one successful transport call."""

    payload: dict
    latency: float
    bytes_sent: int
    bytes_received: int


class Transport:
    """Simulated client-side network stack.

    One transport is typically shared by all services a client talks to,
    so its :class:`TransportStats` give the application-wide picture of
    network usage that benchmark F1 reports.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        rng: SeededRng | None = None,
        connectivity: ConnectivityModel | None = None,
        network_latency: LatencyDistribution | None = None,
    ) -> None:
        self.clock = clock if clock is not None else ManualClock()
        self.rng = rng if rng is not None else SeededRng(0)
        self.connectivity = connectivity if connectivity is not None else AlwaysOnline()
        self.network_latency = (
            network_latency if network_latency is not None else ConstantLatency(0.0)
        )
        self.stats = TransportStats()
        # Chaos injection hook (install_injector); None = unfaulted.
        self.injector = None
        # Observability hooks: the null bundle's until bind_obs.
        self._tracer = NULL_TRACER
        self.bind_obs(NULL_OBS)

    def bind_obs(self, obs) -> None:
        """Attach a :class:`repro.obs.Observability` bundle.

        Every call then produces a ``transport.call`` span (category
        ``transport``, so the attribution analyzer can bill wire time to
        the right service) and byte/call/timeout counters.  First binder
        wins: a transport shared by several clients reports to the
        observability of whichever client claimed it first.  A disabled
        bundle claims nothing, because its tracer is the shared null one.
        """
        if self._tracer is not NULL_TRACER:
            return
        self._tracer = obs.tracer
        metrics = obs.metrics
        self._metric_calls = metrics.counter(
            names.TRANSPORT_CALLS_TOTAL, "Calls that entered the simulated wire.")
        self._metric_bytes_sent = metrics.counter(
            names.TRANSPORT_BYTES_SENT_TOTAL, "Request bytes crossing the wire.")
        self._metric_bytes_received = metrics.counter(
            names.TRANSPORT_BYTES_RECEIVED_TOTAL, "Response bytes crossing the wire.")
        self._metric_timeouts = metrics.counter(
            names.TRANSPORT_TIMEOUTS_TOTAL, "Calls aborted by the caller's timeout.")
        self._metric_offline = metrics.counter(
            names.TRANSPORT_OFFLINE_FAILURES_TOTAL, "Calls rejected while offline.")

    def install_injector(self, injector) -> None:
        """Arm a :class:`repro.chaos.inject.ChaosInjector` on this wire.

        The injector is consulted on every call for partitions, error
        bursts, latency shaping and payload corruption.  Pass ``None``
        to disarm.  Unlike :meth:`bind_obs` this is last-writer-wins:
        chaos scenarios re-arm transports between phases.
        """
        self.injector = injector

    def is_online(self) -> bool:
        """Whether the network is currently reachable."""
        return self.connectivity.is_online(self.clock.now())

    def call(
        self,
        endpoint: str,
        server_fn: ServerFn,
        request: Mapping[str, object],
        timeout: float | None = None,
        latency_params: Mapping[str, float] | None = None,
        batch_size: int | None = None,
    ) -> TransportResult:
        """Deliver ``request`` to ``server_fn`` across the simulated wire.

        ``latency_params`` flow to the network latency distribution
        (some distributions are size-dependent).  ``batch_size`` marks a
        batched endpoint call: the wire semantics are identical (one
        round trip, one timeout), but the call is counted in the batch
        stats and its span carries the batch size.  Raises
        :class:`ConnectivityError` when offline,
        :class:`ServiceTimeoutError` when the sampled total latency
        exceeds ``timeout``, and lets service-level exceptions propagate
        after charging the latency spent before the failure.
        """
        tracer = self._tracer
        span = self._start_span(tracer, endpoint, batch_size)
        try:
            result = self._call(endpoint, server_fn, request, timeout,
                                latency_params, batch_size)
        except Exception as error:
            tracer.end_span(span, error)
            raise
        self._finish_span(tracer, span, result)
        return result

    async def acall(
        self,
        endpoint: str,
        server_fn: ServerFn,
        request: Mapping[str, object],
        timeout: float | None = None,
        latency_params: Mapping[str, float] | None = None,
        batch_size: int | None = None,
    ) -> TransportResult:
        """Event-loop counterpart of :meth:`call`.

        Identical wire semantics (same plan, same errors, same stats
        and spans); the difference is purely *how* latency is spent —
        each charge point becomes an ``await``
        (:func:`repro.util.clock.acharge`), so on a virtual clock's
        :class:`~repro.util.clock.VirtualLoop` (or under a real clock)
        thousands of calls overlap on one loop, while elsewhere a
        virtual-clock call completes instantly like the sync path.

        Cancellation: cancelling the awaiting task between charge
        points abandons the call mid-wire — the charges spent so far
        remain charged (the simulated bytes really crossed) but no
        success or failure is recorded for the aborted remainder.
        """
        tracer = self._tracer
        span = self._start_span(tracer, endpoint, batch_size)
        try:
            result = await self._acall(endpoint, server_fn, request, timeout,
                                       latency_params, batch_size)
        except Exception as error:
            tracer.end_span(span, error)
            raise
        self._finish_span(tracer, span, result)
        return result

    def _start_span(self, tracer, endpoint: str, batch_size: int | None):
        attributes = {"endpoint": endpoint, "obs.category": "transport"}
        if batch_size is not None:
            attributes["batch_size"] = batch_size
        return tracer.start_span(names.SPAN_TRANSPORT_CALL, attributes)

    @staticmethod
    def _finish_span(tracer, span, result: TransportResult) -> None:
        span.set_attribute("latency", result.latency)
        span.set_attribute("bytes_sent", result.bytes_sent)
        span.set_attribute("bytes_received", result.bytes_received)
        tracer.end_span(span)

    def _call(
        self,
        endpoint: str,
        server_fn: ServerFn,
        request: Mapping[str, object],
        timeout: float | None,
        latency_params: Mapping[str, float] | None,
        batch_size: int | None = None,
    ) -> TransportResult:
        """Drive the shared charge plan synchronously (thread path)."""
        plan = self._call_plan(endpoint, server_fn, request, timeout,
                               latency_params, batch_size)
        while True:
            try:
                charge = next(plan)
            except StopIteration as done:
                return done.value
            self.clock.charge(charge)

    async def _acall(
        self,
        endpoint: str,
        server_fn: ServerFn,
        request: Mapping[str, object],
        timeout: float | None,
        latency_params: Mapping[str, float] | None,
        batch_size: int | None = None,
    ) -> TransportResult:
        """Drive the shared charge plan from the event loop."""
        plan = self._call_plan(endpoint, server_fn, request, timeout,
                               latency_params, batch_size)
        while True:
            try:
                charge = next(plan)
            except StopIteration as done:
                return done.value
            await acharge(self.clock, charge)

    def _call_plan(
        self,
        endpoint: str,
        server_fn: ServerFn,
        request: Mapping[str, object],
        timeout: float | None,
        latency_params: Mapping[str, float] | None,
        batch_size: int | None = None,
    ) -> Generator[float, None, TransportResult]:
        """One wire call as a generator of latency charges.

        Yields each amount of simulated latency to spend; the sync
        driver charges it to the clock (blocking under a real clock),
        the async driver awaits it.  Exceptions raised between
        yields propagate to whichever driver is iterating, after the
        charges already yielded have been spent — both paths therefore
        share one copy of the connectivity/injection/timeout logic and
        cannot drift apart.
        """
        self.stats.record_call(endpoint, batch_size)
        self._metric_calls.inc(endpoint=endpoint)
        params = dict(latency_params or {})
        injector = self.injector
        now = self.clock.now()

        offline = not self.is_online()
        if not offline and injector is not None:
            offline = injector.offline(endpoint, now)
        if offline:
            self.stats.offline_failures += 1
            self._metric_offline.inc()
            raise ConnectivityError(endpoint)

        request_payload, sent = _roundtrip(dict(request), "request")
        outbound = self.network_latency.sample(self.rng, params)

        if injector is not None:
            status = injector.error_status(endpoint, now)
            if status is not None:
                # The request crossed the wire; the injected failure
                # came back as the response, like a real 5xx/429.
                yield outbound
                self.stats.bytes_sent += sent
                self._metric_bytes_sent.inc(sent)
                raise RemoteServiceError(endpoint, "injected error burst",
                                         status=status)

        try:
            response_payload, compute_latency = server_fn(request_payload)
        except Exception:
            # The request crossed the wire and the service failed while
            # working on it; the client still paid the outbound trip and
            # the wait for the error response.
            yield outbound
            self.stats.bytes_sent += sent
            self._metric_bytes_sent.inc(sent)
            raise

        inbound = self.network_latency.sample(self.rng, params)
        total = outbound + compute_latency + inbound
        if injector is not None:
            total = injector.shape_latency(endpoint, now, total)

        if timeout is not None and total > timeout:
            yield timeout
            self.stats.timeouts += 1
            self.stats.bytes_sent += sent
            self._metric_timeouts.inc()
            self._metric_bytes_sent.inc(sent)
            raise ServiceTimeoutError(endpoint, timeout)

        if injector is not None:
            response_payload = injector.corrupt(endpoint, now, response_payload)
        response_payload, received = _roundtrip(response_payload, "response")

        yield total
        self.stats.successes += 1
        self.stats.bytes_sent += sent
        self.stats.bytes_received += received
        self.stats.total_latency += total
        self._metric_bytes_sent.inc(sent)
        self._metric_bytes_received.inc(received)
        return TransportResult(
            payload=response_payload,
            latency=total,
            bytes_sent=sent,
            bytes_received=received,
        )
