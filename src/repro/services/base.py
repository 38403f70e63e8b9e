"""Base framework for simulated remote services.

A :class:`SimulatedService` pairs a real local implementation (the
``_handle`` method of a subclass) with the models that make it behave
like a cloud endpoint:

* a latency model (:mod:`repro.simnet.latency`), parameterized by the
  request's *latency parameters* — the paper's term for features like
  argument size that latency depends on;
* a failure model (random or scripted failures);
* a monetary cost model — the ``c`` in the paper's ranking Equations 1
  and 2;
* an optional quota, reproducing the per-day invocation limits that
  §2.2 gives as a reason to cache analysis results.

All invocations cross the :class:`repro.simnet.Transport` boundary, so
payloads are serialized and connectivity/timeout semantics apply.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.simnet.errors import RemoteServiceError
from repro.simnet.latency import ConstantLatency, LatencyDistribution
from repro.simnet.transport import Transport, wire_size
from repro.util.rng import SeededRng


@dataclass(frozen=True)
class ServiceRequest:
    """One request to a service: an operation name plus a JSON payload."""

    operation: str
    payload: Mapping[str, object] = field(default_factory=dict)


@dataclass
class ServiceResponse:
    """A successful service result with its observed latency and billed cost."""

    value: object
    latency: float
    cost: float
    service_name: str
    operation: str


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------

class CostModel(ABC):
    """Maps a request to the monetary cost of serving it."""

    @abstractmethod
    def cost(self, request: ServiceRequest) -> float:
        """Monetary cost (arbitrary currency units) of one invocation."""


class FreeCost(CostModel):
    """A service that costs nothing to call."""

    def cost(self, request: ServiceRequest) -> float:
        return 0.0


class PerCallCost(CostModel):
    """A flat fee per invocation."""

    def __init__(self, fee: float) -> None:
        if fee < 0:
            raise ValueError(f"fee must be non-negative, got {fee}")
        self.fee = fee

    def cost(self, request: ServiceRequest) -> float:
        return self.fee


class SizeBasedCost(CostModel):
    """A flat fee plus a per-byte charge on the request payload.

    Models cloud stores that bill by the amount of data shipped — the
    reason §3 gives for compressing *before* upload.
    """

    def __init__(self, fee: float, per_kilobyte: float) -> None:
        if fee < 0 or per_kilobyte < 0:
            raise ValueError("fee and per_kilobyte must be non-negative")
        self.fee = fee
        self.per_kilobyte = per_kilobyte

    def cost(self, request: ServiceRequest) -> float:
        kilobytes = wire_size(dict(request.payload)) / 1024.0
        return self.fee + self.per_kilobyte * kilobytes


# ---------------------------------------------------------------------------
# Failure models
# ---------------------------------------------------------------------------

class FailureModel(ABC):
    """Decides whether a given invocation fails server-side."""

    @abstractmethod
    def should_fail(self, call_index: int, now: float, rng: SeededRng) -> bool:
        """True when the ``call_index``-th call, issued at ``now``, fails."""


class NeverFails(FailureModel):
    def should_fail(self, call_index: int, now: float, rng: SeededRng) -> bool:
        return False


class RandomFailures(FailureModel):
    """Each call independently fails with a fixed probability."""

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.probability = probability

    def should_fail(self, call_index: int, now: float, rng: SeededRng) -> bool:
        return rng.bernoulli(self.probability)


class ScriptedFailures(FailureModel):
    """Fails exactly the calls whose (0-based) indexes are listed.

    ``ScriptedFailures({0, 1})`` makes the first two calls fail and all
    later ones succeed — ideal for testing retry logic deterministically.
    """

    def __init__(self, failing_calls: set[int]) -> None:
        self.failing_calls = set(failing_calls)

    def should_fail(self, call_index: int, now: float, rng: SeededRng) -> bool:
        return call_index in self.failing_calls


# ---------------------------------------------------------------------------
# Quotas
# ---------------------------------------------------------------------------

class QuotaExceededError(RemoteServiceError):
    """The client exhausted its invocation quota for the current window."""

    def __init__(self, endpoint: str, limit: int, window: float) -> None:
        super().__init__(endpoint, f"quota of {limit} calls per {window:.0f}s exceeded",
                         status=429)
        self.limit = limit
        self.window = window


class Quota:
    """A fixed number of invocations per rolling time window."""

    def __init__(self, limit: int, window: float = 86_400.0) -> None:
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.limit = limit
        self.window = window
        self._timestamps: list[float] = []

    def remaining(self, now: float) -> int:
        """Invocations still allowed at time ``now``."""
        self._expire(now)
        return self.limit - len(self._timestamps)

    def consume(self, now: float) -> bool:
        """Record one invocation; returns False when over quota."""
        self._expire(now)
        if len(self._timestamps) >= self.limit:
            return False
        self._timestamps.append(now)
        return True

    def _expire(self, now: float) -> None:
        cutoff = now - self.window
        self._timestamps = [stamp for stamp in self._timestamps if stamp > cutoff]


# ---------------------------------------------------------------------------
# The service base class
# ---------------------------------------------------------------------------

@dataclass
class ServiceStats:
    """Server-side counters, independent of any one client's view."""

    calls: int = 0
    failures: int = 0
    quota_rejections: int = 0
    revenue: float = 0.0


class SimulatedService(ABC):
    """A locally-implemented service behind the simulated network.

    Subclasses implement :meth:`_handle` (the actual functionality) and
    may override :meth:`latency_params` to expose request features the
    latency model depends on.

    ``kind`` groups services with similar functionality — the unit over
    which the Rich SDK ranks and fails over (e.g. three services of kind
    ``"nlu"``).

    Services that can serve several requests in one round trip declare
    it by setting :attr:`batch_max_size` (the catalog does this for the
    providers whose real-world counterparts expose batch endpoints);
    :meth:`invoke_batch` then packs up to that many payloads into a
    single transport call.
    """

    #: Max items accepted per batched transport call; None = the service
    #: has no batch endpoint.  Set per instance by the catalog.
    batch_max_size: int | None = None

    def __init__(
        self,
        name: str,
        kind: str,
        transport: Transport,
        latency: LatencyDistribution | None = None,
        failures: FailureModel | None = None,
        cost_model: CostModel | None = None,
        quota: Quota | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.transport = transport
        self.latency = latency if latency is not None else ConstantLatency(0.01)
        self.failures = failures if failures is not None else NeverFails()
        self.cost_model = cost_model if cost_model is not None else FreeCost()
        self.quota = quota
        self.stats = ServiceStats()
        self._rng = transport.rng.child(f"service:{name}")
        self._call_index = 0

    # -- subclass API ----------------------------------------------------

    @abstractmethod
    def _handle(self, request: ServiceRequest) -> object:
        """Serve one request and return a JSON-serializable result."""

    def latency_params(self, request: ServiceRequest) -> dict[str, float]:
        """Features of the request that latency may depend on.

        The default exposes the request payload's wire size under
        ``"size"`` — the paper's canonical latency parameter.
        """
        return {"size": float(wire_size(dict(request.payload)))}

    # -- client entry point ----------------------------------------------

    def invoke(
        self,
        operation: str,
        payload: Mapping[str, object] | None = None,
        timeout: float | None = None,
    ) -> ServiceResponse:
        """Invoke the service across the simulated network.

        Raises :class:`repro.simnet.ConnectivityError`,
        :class:`repro.simnet.ServiceTimeoutError`,
        :class:`QuotaExceededError` or
        :class:`repro.simnet.RemoteServiceError` on the corresponding
        failure; otherwise returns a :class:`ServiceResponse` carrying
        the observed latency and billed cost.
        """
        server_fn, wire_request, params = self._prepare_invoke(operation, payload)
        result = self.transport.call(
            endpoint=self.name,
            server_fn=server_fn,
            request=wire_request,
            timeout=timeout,
            latency_params=params,
        )
        return self._parse_invoke(result, operation)

    async def ainvoke(
        self,
        operation: str,
        payload: Mapping[str, object] | None = None,
        timeout: float | None = None,
    ) -> ServiceResponse:
        """Event-loop counterpart of :meth:`invoke`.

        Same request/response semantics and the same exceptions; latency
        is awaited on the event loop (:meth:`Transport.acall`) instead
        of blocking a thread.  Cancelling the awaiting task abandons the
        call mid-wire: server-side effects that already happened (quota
        consumed, handler run) are not undone, matching a real network
        where cancellation only stops the client from waiting.
        """
        server_fn, wire_request, params = self._prepare_invoke(operation, payload)
        result = await self.transport.acall(
            endpoint=self.name,
            server_fn=server_fn,
            request=wire_request,
            timeout=timeout,
            latency_params=params,
        )
        return self._parse_invoke(result, operation)

    def _prepare_invoke(self, operation, payload):
        """Build the (server_fn, wire request, latency params) triple.

        The server side serves the request that crossed the wire — the
        transport's decoded copy — never the caller's own objects.
        """
        payload = dict(payload or {})
        params = self.latency_params(ServiceRequest(operation, payload))

        def server_fn(request_payload: dict) -> tuple[dict, float]:
            return self._serve(ServiceRequest(request_payload["operation"],
                                              request_payload["payload"]), params)

        wire_request = {"operation": operation, "payload": payload}
        return server_fn, wire_request, params

    def _parse_invoke(self, result, operation: str) -> ServiceResponse:
        """Turn a transport result into a :class:`ServiceResponse`."""
        if "value" not in result.payload or "cost" not in result.payload:
            # A garbled wire payload (e.g. chaos corruption) is a
            # transient transport-side failure, so surface it as a
            # retryable 502 rather than a KeyError.
            raise RemoteServiceError(self.name, "malformed response payload",
                                     status=502)
        return ServiceResponse(
            value=result.payload["value"],
            latency=result.latency,
            cost=float(result.payload["cost"]),
            service_name=self.name,
            operation=operation,
        )

    @property
    def supports_batching(self) -> bool:
        """Whether this service declares a batch endpoint in the catalog."""
        return self.batch_max_size is not None

    def invoke_batch(
        self,
        operation: str,
        payloads: Sequence[Mapping[str, object]],
        timeout: float | None = None,
    ) -> list[ServiceResponse | RemoteServiceError]:
        """Invoke up to :attr:`batch_max_size` requests in ONE round trip.

        The whole batch crosses the transport as a single call (one
        connectivity check, one timeout, one latency charge), modelling
        a vectorized inference endpoint: the batch's compute latency is
        the *maximum* of the per-item samples rather than their sum,
        which is where micro-batching wins its throughput.  Per-item
        failures are isolated — each item comes back as either a
        :class:`ServiceResponse` or a :class:`RemoteServiceError`
        (quota rejections carry status 429), in input order.  Raises
        ``ValueError`` when the service declares no batch support or
        the batch exceeds ``batch_max_size``; transport-level errors
        (offline, timeout) still raise for the batch as a whole because
        the one wire call failed for every item.
        """
        prepared = self._prepare_batch(operation, payloads)
        if prepared is None:
            return []
        server_fn, wire_request, params, size = prepared
        result = self.transport.call(
            endpoint=self.name,
            server_fn=server_fn,
            request=wire_request,
            timeout=timeout,
            latency_params=params,
            batch_size=size,
        )
        return self._parse_batch(result, operation)

    async def ainvoke_batch(
        self,
        operation: str,
        payloads: Sequence[Mapping[str, object]],
        timeout: float | None = None,
    ) -> list[ServiceResponse | RemoteServiceError]:
        """Event-loop counterpart of :meth:`invoke_batch`.

        One awaited round trip for the whole batch, with the same
        per-item isolation and error semantics as the sync path.
        Cancellation mid-wire abandons every item of the batch at once
        (they share the single transport call); server-side effects for
        items already served are not undone.
        """
        prepared = self._prepare_batch(operation, payloads)
        if prepared is None:
            return []
        server_fn, wire_request, params, size = prepared
        result = await self.transport.acall(
            endpoint=self.name,
            server_fn=server_fn,
            request=wire_request,
            timeout=timeout,
            latency_params=params,
            batch_size=size,
        )
        return self._parse_batch(result, operation)

    def _prepare_batch(self, operation, payloads):
        """Validate a batch; None for an empty one, else the call parts."""
        if not self.supports_batching:
            raise ValueError(f"service {self.name!r} has no batch endpoint")
        payloads = [dict(payload) for payload in payloads]
        if not payloads:
            return None
        if len(payloads) > self.batch_max_size:
            raise ValueError(
                f"batch of {len(payloads)} exceeds {self.name!r}'s "
                f"batch_max_size={self.batch_max_size}")
        params = self.latency_params(ServiceRequest(operation, payloads[0]))
        params["batch"] = float(len(payloads))

        def server_fn(request_payload: dict) -> tuple[dict, float]:
            return self._serve_batch([
                ServiceRequest(request_payload["operation"], item)
                for item in request_payload["batch"]])

        wire_request = {"operation": operation, "batch": payloads}
        return server_fn, wire_request, params, len(payloads)

    def _parse_batch(self, result, operation: str) -> list[ServiceResponse | RemoteServiceError]:
        """Unpack a batched transport result into per-item outcomes."""
        if "results" not in result.payload:
            raise RemoteServiceError(self.name, "malformed batch payload",
                                     status=502)
        outcomes: list[ServiceResponse | RemoteServiceError] = []
        for item in result.payload["results"]:
            if "error" in item:
                outcomes.append(RemoteServiceError(
                    self.name, str(item["error"]),
                    status=int(item.get("status", 500))))
            else:
                outcomes.append(ServiceResponse(
                    value=item["value"],
                    latency=result.latency,
                    cost=float(item["cost"]),
                    service_name=self.name,
                    operation=operation,
                ))
        return outcomes

    # -- server side -----------------------------------------------------

    def _serve_batch(self, requests: Sequence[ServiceRequest]) -> tuple[dict, float]:
        """Serve a batch server-side: per-item isolation, max-of latency.

        Each item goes through :meth:`_serve_item` exactly as a single
        call does (consuming quota and advancing the failure model's
        call index per item); what an item raises becomes its ``error``
        entry instead of poisoning its batch-mates.  Compute latency is
        the max of the per-item samples — the vectorized-execution model.
        """
        now = self.transport.clock.now()
        samples: list[float] = []
        results: list[dict] = []
        for request in requests:
            samples.append(self.latency.sample(
                self._rng, self.latency_params(request)))
            try:
                value, cost = self._serve_item(request, now)
            except RemoteServiceError as error:  # 429, injected 500, the handler's own 400 / 404
                results.append({"error": error.message, "status": error.status})
            except Exception as error:  # noqa: BLE001 — a handler crash, isolated per item
                results.append({"error": str(error), "status": 500})
            else:
                results.append({"value": value, "cost": cost})
        return {"results": results}, max(samples) if samples else 0.0

    def _serve(self, request: ServiceRequest, params: dict[str, float]) -> tuple[dict, float]:
        compute_latency = self.latency.sample(self._rng, params)
        value, cost = self._serve_item(request, self.transport.clock.now())
        return {"value": value, "cost": cost}, compute_latency

    def _serve_item(self, request: ServiceRequest, now: float) -> tuple[object, float]:
        """The per-request serve path, single or batched: (value, billed cost).

        Call index and stats, quota, failure model, handler, billing —
        in that order, after the caller has drawn the latency sample, so
        the service RNG sees the same draws whichever endpoint served
        the request.  Raises :class:`QuotaExceededError` (429),
        :class:`RemoteServiceError` (injected failure) or whatever the
        handler raises.
        """
        call_index = self._call_index
        self._call_index += 1
        self.stats.calls += 1
        if self.quota is not None and not self.quota.consume(now):
            self.stats.quota_rejections += 1
            raise QuotaExceededError(self.name, self.quota.limit, self.quota.window)
        if self.failures.should_fail(call_index, now, self._rng):
            self.stats.failures += 1
            raise RemoteServiceError(self.name, "internal service failure")
        value = self._handle(request)
        cost = self.cost_model.cost(request)
        self.stats.revenue += cost
        return value, cost


class ServiceRegistry:
    """Directory of services, indexed by name and by kind.

    ``services_of_kind`` is what the SDK's ranking, failover and
    multi-invocation features iterate over: "multiple services providing
    similar functionality".
    """

    def __init__(self, services: list[SimulatedService] | None = None) -> None:
        self._by_name: dict[str, SimulatedService] = {}
        for service in services or []:
            self.register(service)

    def register(self, service: SimulatedService) -> None:
        if service.name in self._by_name:
            raise ValueError(f"duplicate service name {service.name!r}")
        self._by_name[service.name] = service

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self):
        return iter(self._by_name.values())

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> SimulatedService:
        if name not in self._by_name:
            from repro.util.errors import NotFoundError

            raise NotFoundError(f"no service named {name!r}")
        return self._by_name[name]

    def services_of_kind(self, kind: str) -> list[SimulatedService]:
        return [service for service in self if service.kind == kind]

    def kinds(self) -> set[str]:
        return {service.kind for service in self}
