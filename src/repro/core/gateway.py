"""The SDK's HTTP-style gateway.

"In order to allow programs written in other languages to access the
rich SDK, the rich SDK can expose an HTTP interface."  There is no real
network in this reproduction, so the gateway is modelled the way the
transport is: JSON text in, JSON text out.  ``handle_json`` is the one
serving path — it parses the envelope once (what it dispatches on is
JSON-pure by construction) and serialises the response once, so only
serializable data crosses and nothing the SDK holds (a cached value,
say) is ever shared with the caller; a warm ``invoke`` splices in the
JSON text its cache entry kept from its first serve instead of encoding
the value again.  The dict API ``handle`` is that
same path seen by a Python caller: request dumped, served as text,
response parsed back.  It keeps the two copies on purpose — dumping is
the JSON-safety check on a caller's objects, and parsing hands back a
deep copy the caller may mutate — and has no dispatch of its own.  A
non-Python client is anything that can produce these envelopes.

Request envelope::

    {"method": "invoke",
     "params": {"service": "lexica-prime", "operation": "analyze",
                "payload": {"text": "..."}}}

Response envelope::

    {"status": 200, "result": ...}
    {"status": 404, "error": "...", "error_type": "NotFoundError"}
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping

from repro.core.admission import AdmissionRejectedError
from repro.core.circuitbreaker import CircuitOpenError
from repro.core.invoker import InvocationResult, RichClient
from repro.core.quota import BudgetExceededError
from repro.core.ranking import Weights
from repro.core.ratelimit import RateLimitExceededError
from repro.core.retry import AllServicesFailedError
from repro.obs.attribution import TraceAnalyzer
from repro.simnet.errors import (
    ConnectivityError,
    RemoteServiceError,
    ServiceTimeoutError,
)
from repro.tenancy.context import tenant_scope
from repro.tenancy.model import TenantSuspendedError
from repro.util.deadline import Deadline, DeadlineExceededError
from repro.util.errors import NotFoundError, SerializationError


def _status_for(error: Exception) -> int:
    if isinstance(error, NotFoundError):
        return 404
    # A suspended tenant is authenticated but forbidden: 403, not 429 —
    # no amount of backoff will help until the operator unsuspends it.
    if isinstance(error, TenantSuspendedError):
        return 403
    # 429-family: the caller should back off and retry, not report a
    # server failure.  Rate limits, open circuits and shed admissions
    # carry a concrete "when" that handle() surfaces as a retry_after
    # hint.
    if isinstance(error, (BudgetExceededError, RateLimitExceededError,
                          CircuitOpenError, AdmissionRejectedError)):
        return 429
    # A spent end-to-end deadline is the gateway-side analogue of an
    # upstream timeout: the caller's budget ran out, 504.
    if isinstance(error, (ServiceTimeoutError, DeadlineExceededError)):
        return 504
    if isinstance(error, (ConnectivityError, AllServicesFailedError)):
        return 503
    if isinstance(error, RemoteServiceError):
        return error.status
    if isinstance(error, (ValueError, KeyError, TypeError, SerializationError)):
        return 400
    return 500


class SdkGateway:
    """Dispatches JSON envelopes onto a :class:`RichClient`.

    Methods: ``invoke``, ``invoke_many``, ``invoke_failover``, ``rank_services``,
    ``best_service``, ``service_summaries``, ``cache_stats``, ``spend``,
    ``tenant_usage``, ``metrics``, ``traces``, ``attribution`` and ``health``.

    A top-level ``"tenant"`` field in the request envelope (the
    HTTP-header analogue) runs the method inside that tenant's scope,
    so per-tenant budgets, rate limits, cache namespaces and fair
    scheduling all apply; tenant policy refusals map to 429 (budget /
    rate) or 403 (suspended).
    """

    def __init__(self, client: RichClient) -> None:
        self.client = client
        self.requests_served = 0
        self.errors_returned = 0

    # -- envelope handling ---------------------------------------------------

    def handle(self, request: Mapping[str, object]) -> dict:
        """Serve one request envelope given as a dict; never raises.

        Exactly what an HTTP client gets: the request is serialised,
        served by :meth:`handle_json` and the response parsed back, so
        the caller owns a deep copy (never a cached ``result.value``).
        """
        try:
            request_text = json.dumps(dict(request))
        except (TypeError, ValueError) as error:
            self.requests_served += 1
            return self._error(400, f"request is not JSON-serializable: {error}",
                               "SerializationError")
        return json.loads(self.handle_json(request_text))

    def handle_json(self, request_text: str) -> str:
        """Serve one envelope in the literal wire format; never raises."""
        try:
            request = json.loads(request_text)
        except ValueError as error:  # JSONDecodeError, or the int digit limit
            return json.dumps(self._error(400, f"invalid JSON: {error}",
                                          "SerializationError"))
        if not isinstance(request, dict):
            return json.dumps(self._error(400, "request must be a JSON object",
                                          "ValueError"))
        self.requests_served += 1
        response = self._dispatch(request)
        try:
            if isinstance(response.get("result"), InvocationResult):
                return self._render_invoke(response["result"])
            return json.dumps(response)
        except (TypeError, ValueError) as error:
            return json.dumps(self._error(
                500, f"result is not JSON-serializable: {error}",
                "SerializationError"))

    def _dispatch(self, request: dict) -> dict:
        """Run the method a parsed (hence JSON-pure) envelope names."""
        method = request.get("method")
        params = request.get("params") or {}
        if not isinstance(method, str):
            return self._error(400, "missing or invalid 'method'", "ValueError")
        if not isinstance(params, dict):
            return self._error(400, "'params' must be an object", "ValueError")
        handler = getattr(self, f"_method_{method}", None)
        if handler is None:
            return self._error(404, f"unknown method {method!r}", "NotFoundError")
        tenant = request.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            return self._error(400, "'tenant' must be a string", "ValueError")
        try:
            if tenant is not None:
                # The envelope's tenant field is the HTTP-header analogue:
                # the whole method runs inside that tenant's scope.
                with tenant_scope(tenant):
                    result = handler(params)
            else:
                result = handler(params)
        except Exception as error:  # noqa: BLE001 — mapped to a status code
            return self._error(_status_for(error), str(error),
                               type(error).__name__,
                               retry_after=self._retry_after(error))
        return {"status": 200, "result": result}

    def _retry_after(self, error: Exception) -> float | None:
        """Seconds until a 429'd caller can usefully try again."""
        if isinstance(error, RateLimitExceededError):
            return max(0.0, error.wait_needed)
        if isinstance(error, CircuitOpenError):
            return max(0.0, error.retry_at - self.client.clock.now())
        if isinstance(error, AdmissionRejectedError):
            return max(0.0, error.retry_after)
        return None

    def _error(self, status: int, message: str, error_type: str,
               retry_after: float | None = None) -> dict:
        self.errors_returned += 1
        envelope = {"status": status, "error": message, "error_type": error_type}
        if retry_after is not None:
            envelope["retry_after"] = round(retry_after, 6)
        return envelope

    # -- methods ------------------------------------------------------------

    @staticmethod
    def _weights_from(params: Mapping[str, object]) -> Weights:
        raw = params.get("weights") or {}
        if not isinstance(raw, Mapping):
            raise ValueError("'weights' must be an object")
        return Weights(
            response_time=float(raw.get("response_time", 1.0)),
            cost=float(raw.get("cost", 1.0)),
            quality=float(raw.get("quality", 1.0)),
        )

    @staticmethod
    def _seconds_from(params: Mapping[str, object], name: str) -> float | None:
        """``params[name]`` as a non-negative number of seconds, or None.

        Checked before any protection or wire work: a malformed
        ``timeout`` or ``deadline`` is the caller's 400, and must not
        reach the service and count as its failure.
        """
        raw = params.get(name)
        if raw is None:
            return None
        # ``not raw >= 0`` also refuses NaN; an int past float range is
        # an unbounded wait.
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not raw >= 0:
            raise ValueError(
                f"{name!r} must be a non-negative number of seconds, got {raw!r}")
        return float(min(raw, math.inf))

    def _deadline_from(self, params: Mapping[str, object]) -> Deadline | None:
        """An optional per-request budget: ``{"deadline": seconds}``."""
        seconds = self._seconds_from(params, "deadline")
        if seconds is None:
            return None
        return Deadline.after(self.client.clock, seconds)

    def _method_invoke(self, params: Mapping[str, object]) -> InvocationResult:
        """The result itself; :meth:`_render_invoke` encodes it."""
        return self.client.invoke(
            str(params["service"]),
            str(params["operation"]),
            params.get("payload") or {},
            timeout=self._seconds_from(params, "timeout"),
            use_cache=bool(params.get("use_cache", True)),
            deadline=self._deadline_from(params),
        )

    def _render_invoke(self, result: InvocationResult) -> str:
        """``json.dumps`` of the 200 envelope, byte for byte, with the
        value's text spliced in: a cache hit's from its entry, any other
        result's encoded here."""
        text = None
        if result.entry_key is not None:
            text = self.client.cache.json_text(result.entry_key, result.value)
        if text is None:
            text = json.dumps(result.value)
        rest = json.dumps({"latency": result.latency, "cost": result.cost,
                           "service": result.service, "cached": result.cached,
                           "degraded": result.degraded})
        return '{"status": 200, "result": {"value": ' + text + ", " + rest[1:] + "}"

    def _method_invoke_many(self, params: Mapping[str, object]) -> dict:
        """Batch entry point: one envelope, many payloads, per-item results."""
        payloads = params.get("payloads")
        if not isinstance(payloads, list):
            raise ValueError("'payloads' must be a list of objects")
        outcomes = self.client.invoke_many(
            str(params["service"]),
            str(params["operation"]),
            [dict(payload) for payload in payloads],
            timeout=self._seconds_from(params, "timeout"),
            use_cache=bool(params.get("use_cache", True)),
            deadline=self._deadline_from(params),
        )
        items = []
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                items.append({
                    "status": _status_for(outcome),
                    "error": str(outcome),
                    "error_type": type(outcome).__name__,
                })
            else:
                items.append({
                    "status": 200,
                    "value": outcome.value,
                    "latency": outcome.latency,
                    "cost": outcome.cost,
                    "cached": outcome.cached,
                    "coalesced": outcome.coalesced,
                    "batched": outcome.batched,
                })
        return {"results": items}

    def _method_invoke_failover(self, params: Mapping[str, object]) -> dict:
        result = self.client.invoke_with_failover(
            str(params["kind"]),
            str(params["operation"]),
            params.get("payload") or {},
            timeout=self._seconds_from(params, "timeout"),
            weights=self._weights_from(params),
            use_cache=bool(params.get("use_cache", True)),
            deadline=self._deadline_from(params),
        )
        return {
            "value": result.value,
            "served_by": result.service,
            "degraded": result.degraded,
            "attempts": [
                {"service": log.service, "attempt": log.attempt,
                 "failed": log.error is not None}
                for log in result.attempts
            ],
        }

    def _method_rank_services(self, params: Mapping[str, object]) -> list:
        ranked = self.client.rank_services(
            str(params["kind"]),
            latency_params=params.get("latency_params"),
            weights=self._weights_from(params),
            formula=str(params.get("formula", "weighted")),
        )
        return [{"service": name, "score": score} for name, score in ranked]

    def _method_best_service(self, params: Mapping[str, object]) -> dict:
        return {
            "service": self.client.best_service(
                str(params["kind"]),
                latency_params=params.get("latency_params"),
                weights=self._weights_from(params),
            )
        }

    def _method_service_summaries(self, params: Mapping[str, object]) -> list:
        return self.client.service_summaries()

    def _method_cache_stats(self, params: Mapping[str, object]) -> dict:
        stats = self.client.cache.stats
        return {
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_ratio": stats.hit_ratio,
            "evictions": stats.evictions,
            "expirations": stats.expirations,
            "expired_reads": stats.expired_reads,
            "entries": len(self.client.cache),
        }

    def _method_spend(self, params: Mapping[str, object]) -> dict:
        service = params.get("service")
        if service is not None:
            return {
                "service": service,
                "calls": self.client.quota.calls(str(service)),
                "cost": self.client.quota.cost(str(service)),
            }
        return {"total_cost": self.client.quota.total_cost()}

    def _method_tenant_usage(self, params: Mapping[str, object]) -> dict:
        """Per-tenant ledgers: one tenant's, or every registered tenant's."""
        tenancy = self.client.tenancy
        if tenancy is None:
            raise ValueError("this deployment has no tenancy layer")
        tenant = params.get("tenant")
        if tenant is not None:
            return tenancy.usage(str(tenant))
        return {"tenants": tenancy.usage_report()}

    def _method_metrics(self, params: Mapping[str, object]) -> dict:
        """The SDK's metrics registry: exposition text plus raw numbers."""
        registry = self.client.obs.metrics
        return {
            "exposition": registry.render(),
            "metrics": registry.snapshot(),
        }

    def _method_traces(self, params: Mapping[str, object]) -> dict:
        """Completed traces from the in-memory span collector."""
        collector = self.client.obs.collector
        limit = params.get("limit")
        traces = [
            {"trace_id": trace_id,
             "spans": [span.to_dict() for span in spans]}
            for trace_id, spans in collector.traces().items()
        ]
        if limit is not None:
            traces = traces[-int(limit):]
        return {
            "traces": traces,
            "dropped_spans": collector.dropped,
        }

    def _method_attribution(self, params: Mapping[str, object]) -> dict:
        """Latency attribution rolled up from the collected traces."""
        analyzer = TraceAnalyzer(self.client.obs.collector)
        return {
            "traces": [report.to_dict() for report in analyzer.report()],
            "aggregate": analyzer.aggregate(),
        }

    def _method_health(self, params: Mapping[str, object]) -> dict:
        online = True
        for service in self.client.registry:
            online = service.transport.is_online()
            break
        return {
            "online": online,
            "services_registered": len(self.client.registry),
            "requests_served": self.requests_served,
        }
