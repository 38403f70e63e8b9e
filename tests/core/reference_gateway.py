"""Test-only oracle: the gateway's envelope handling exactly as it was
before PR 20.

``handle`` was the primitive and round-tripped the request and the
response through ``json`` to prove JSON-safety; ``handle_json`` parsed
the text, called it and dumped again — three ``json.loads`` and three
``json.dumps`` per text envelope.  The two bodies are moved here
verbatim, and so is ``_method_invoke`` as it was before a warm hit
reused its cache entry's JSON text: it builds the result dict that one
``json.dumps`` over the whole response then encodes (its ``timeout``
is checked by the serving gateway's ``_seconds_from``, so a malformed
one is refused before the call on both sides).  ``_weights_from``
restates the weight rule on its own — a finite, non-negative int or
float, bools excluded — so the differential checks the serving
gateway's shared number check against it.  A ``payload`` that is
present, not null and not an object is refused with a ``ValueError``
before the call (the old body sent a falsy one as ``{}``), restated
here too.  The other ``_method_*``
handlers, ``_error`` and ``_retry_after`` are inherited; they did not
change.  ``test_gateway_differential.py`` and benchmark
A17 compare the serving gateway against this one.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping

from repro.core.gateway import SdkGateway, _status_for
from repro.core.ranking import Weights
from repro.tenancy.context import tenant_scope


class ReferenceSdkGateway(SdkGateway):
    """``SdkGateway`` with the old ``handle`` / ``handle_json`` and the
    old ``_method_invoke``: every response is one ``json.dumps``."""

    @staticmethod
    def _weights_from(params: Mapping[str, object]) -> Weights:
        raw = params.get("weights")
        if raw is None:
            raw = {}
        if not isinstance(raw, Mapping):
            raise ValueError("'weights' must be an object")
        weights = {}
        for name in ("response_time", "cost", "quality"):
            value = raw.get(name, 1.0)
            if type(value) not in (int, float) or not 0 <= value <= sys.float_info.max:
                raise ValueError(f"'weights.{name}' must be a finite "
                                 f"non-negative number, got {value!r}")
            weights[name] = float(value)
        return Weights(**weights)

    def _method_invoke(self, params: Mapping[str, object]) -> dict:
        result = self.client.invoke(
            str(params["service"]),
            str(params["operation"]),
            _object_or_empty(params.get("payload")),
            timeout=self._seconds_from(params, "timeout"),
            use_cache=bool(params.get("use_cache", True)),
            deadline=self._deadline_from(params),
        )
        return {
            "value": result.value,
            "latency": result.latency,
            "cost": result.cost,
            "service": result.service,
            "cached": result.cached,
            "degraded": result.degraded,
        }

    def handle(self, request: Mapping[str, object]) -> dict:
        self.requests_served += 1
        try:
            request = json.loads(json.dumps(dict(request)))
        except (TypeError, ValueError) as error:
            return self._error(400, f"request is not JSON-serializable: {error}",
                               "SerializationError")
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
                with tenant_scope(tenant):
                    result = handler(params)
            else:
                result = handler(params)
        except Exception as error:  # noqa: BLE001 — mapped to a status code
            return self._error(_status_for(error), str(error),
                               type(error).__name__,
                               retry_after=self._retry_after(error))
        return json.loads(json.dumps({"status": 200, "result": result}))

    def handle_json(self, request_text: str) -> str:
        try:
            request = json.loads(request_text)
        except json.JSONDecodeError as error:
            return json.dumps(self._error(400, f"invalid JSON: {error}",
                                          "SerializationError"))
        if not isinstance(request, dict):
            return json.dumps(self._error(400, "request must be a JSON object",
                                          "ValueError"))
        return json.dumps(self.handle(request))


def _object_or_empty(payload: object) -> dict:
    """The payload rule: null is ``{}``, any other non-object a 400."""
    if payload is None:
        return {}
    if not isinstance(payload, dict):
        raise ValueError("'payload' must be an object")
    return payload
