"""Tests for the HTTP-style SDK gateway."""

import json
import sys

import pytest

from repro.core.gateway import SdkGateway
from repro.services.base import ScriptedFailures

TEXT = "IBM announced excellent results."


@pytest.fixture
def gateway(client):
    return SdkGateway(client)


class TestEnvelopes:
    def test_invoke_roundtrip(self, gateway):
        response = gateway.handle({
            "method": "invoke",
            "params": {"service": "lexica-prime", "operation": "analyze",
                       "payload": {"text": TEXT}},
        })
        assert response["status"] == 200
        assert any(entity["id"] == "C_ibm"
                   for entity in response["result"]["value"]["entities"])
        assert response["result"]["cached"] is False

    def test_response_is_json_pure(self, gateway):
        response = gateway.handle({
            "method": "invoke",
            "params": {"service": "glotta", "operation": "analyze",
                       "payload": {"text": TEXT}},
        })
        json.dumps(response)  # must not raise

    def test_text_wire_format(self, gateway):
        request = json.dumps({
            "method": "invoke",
            "params": {"service": "glotta", "operation": "analyze",
                       "payload": {"text": TEXT}},
        })
        response = json.loads(gateway.handle_json(request))
        assert response["status"] == 200

    def test_invalid_json_text(self, gateway):
        response = json.loads(gateway.handle_json("{not json"))
        assert response["status"] == 400

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no int digit limit")
    def test_integer_literal_past_the_digit_limit(self, gateway):
        """``json.loads`` refuses it with a plain ``ValueError``, not a
        ``JSONDecodeError``; the envelope is still a 400, not a raise."""
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        text = '{"method": "health", "params": {"n": ' + digits + "}}"
        response = json.loads(gateway.handle_json(text))
        assert response["status"] == 400
        assert response["error_type"] == "SerializationError"

    def test_non_object_request(self, gateway):
        response = json.loads(gateway.handle_json("[1, 2]"))
        assert response["status"] == 400

    def test_missing_method(self, gateway):
        assert gateway.handle({"params": {}})["status"] == 400

    def test_unknown_method(self, gateway):
        response = gateway.handle({"method": "teleport", "params": {}})
        assert response["status"] == 404
        assert response["error_type"] == "NotFoundError"

    def test_bad_params_type(self, gateway):
        assert gateway.handle({"method": "invoke", "params": 5})["status"] == 400


class TestErrorMapping:
    def test_unknown_service_is_404(self, gateway):
        response = gateway.handle({
            "method": "invoke",
            "params": {"service": "ghost", "operation": "op"},
        })
        assert response["status"] == 404

    def test_service_validation_error_propagates_status(self, gateway):
        response = gateway.handle({
            "method": "invoke",
            "params": {"service": "lexica-prime", "operation": "analyze",
                       "payload": {"text": "  "}},
        })
        assert response["status"] == 400

    def test_offline_is_503(self, gateway, world):
        from repro.simnet.connectivity import ManualConnectivity

        connectivity = ManualConnectivity()
        world.transport.connectivity = connectivity
        connectivity.go_offline()
        response = gateway.handle({
            "method": "invoke",
            "params": {"service": "lexica-prime", "operation": "analyze",
                       "payload": {"text": TEXT}, "use_cache": False},
        })
        connectivity.go_online()
        assert response["status"] == 503

    def test_budget_exceeded_is_429(self, gateway):
        gateway.client.quota.set_budget("glotta", max_calls=0)
        response = gateway.handle({
            "method": "invoke",
            "params": {"service": "glotta", "operation": "analyze",
                       "payload": {"text": TEXT}},
        })
        assert response["status"] == 429

    def test_errors_never_raise(self, gateway):
        for request in ({}, {"method": 7}, {"method": "invoke"},
                        {"method": "invoke", "params": {"service": "x"}}):
            response = gateway.handle(request)
            assert response["status"] >= 400
        assert gateway.errors_returned >= 4

    def test_unserializable_result_is_a_500_envelope(self, gateway, monkeypatch):
        """"Never raises" includes a handler whose result ``json`` refuses."""
        monkeypatch.setattr(gateway, "_method_health",
                            lambda params: {"x": {1, 2}})
        request = {"method": "health", "params": {}}
        from_dict = gateway.handle(request)
        from_text = json.loads(gateway.handle_json(json.dumps(request)))
        assert from_dict == from_text
        assert from_dict["status"] == 500
        assert from_dict["error_type"] == "SerializationError"
        assert "not JSON-serializable" in from_dict["error"]
        assert (gateway.requests_served, gateway.errors_returned) == (2, 2)



def _footprint(client, world):
    """What a call that reached the wire would have moved."""
    return (world.registry.get("lexica-prime").stats.calls,
            world.transport.stats.calls,
            {service: client.monitor.call_count(service)
             for service in client.monitor.services()})


class TestMalformedTimings:
    """A bad ``timeout`` or ``deadline`` is the caller's 400, refused
    before any work: the service, the wire and the monitor never see it
    (it must not count as the provider's failure in the ranking)."""

    BAD = [-1, -0.5, "abc", "5", float("nan"), True, [], {}]

    @pytest.mark.parametrize("name", ["timeout", "deadline"])
    @pytest.mark.parametrize("method", ["invoke", "invoke_many", "invoke_failover"])
    def test_every_bad_value_is_a_400_with_no_call(self, gateway, world,
                                                   method, name):
        params = {"service": "lexica-prime", "operation": "analyze",
                  "use_cache": False}
        if method == "invoke_many":
            params["payloads"] = [{"text": TEXT}]
        else:
            params["payload"] = {"text": TEXT}
        if method == "invoke_failover":
            params["kind"] = "nlu"
        before = _footprint(gateway.client, world)
        for value in self.BAD:
            text = json.dumps({"method": method, "params": {**params, name: value}})
            response = json.loads(gateway.handle_json(text))
            assert (response["status"], response["error_type"]) == (
                400, "ValueError"), value
            assert name in response["error"]
        assert _footprint(gateway.client, world) == before

    def test_a_good_value_still_reaches_the_service(self, gateway, world):
        before = _footprint(gateway.client, world)
        response = gateway.handle({"method": "invoke", "params": {
            "service": "lexica-prime", "operation": "analyze",
            "payload": {"text": TEXT}, "use_cache": False,
            "timeout": 5, "deadline": 30.0}})
        assert response["status"] == 200
        assert _footprint(gateway.client, world) != before

    def test_a_deadline_refuses_a_nan_budget(self, world):
        from repro.util.deadline import Deadline

        with pytest.raises(ValueError):
            Deadline.after(world.clock, float("nan"))

class TestMethods:
    def test_failover_method(self, gateway, world):
        ranked = [name for name, _ in gateway.client.rank_services("nlu")]
        world.service(ranked[0]).failures = ScriptedFailures(set(range(10)))
        response = gateway.handle({
            "method": "invoke_failover",
            "params": {"kind": "nlu", "operation": "analyze",
                       "payload": {"text": TEXT}, "use_cache": False},
        })
        assert response["status"] == 200
        assert response["result"]["served_by"] != ranked[0]
        assert any(attempt["failed"] for attempt in response["result"]["attempts"])

    def test_rank_and_best(self, gateway):
        gateway.handle({
            "method": "invoke",
            "params": {"service": "glotta", "operation": "analyze",
                       "payload": {"text": TEXT}},
        })
        ranked = gateway.handle({
            "method": "rank_services",
            "params": {"kind": "nlu",
                       "weights": {"response_time": 1, "cost": 0, "quality": 0}},
        })
        assert ranked["status"] == 200
        assert len(ranked["result"]) == 3
        best = gateway.handle({"method": "best_service", "params": {"kind": "nlu"}})
        assert best["result"]["service"] in {entry["service"]
                                             for entry in ranked["result"]}

    def test_summaries_cache_and_spend(self, gateway):
        gateway.handle({
            "method": "invoke",
            "params": {"service": "glotta", "operation": "analyze",
                       "payload": {"text": TEXT}},
        })
        gateway.handle({
            "method": "invoke",
            "params": {"service": "glotta", "operation": "analyze",
                       "payload": {"text": TEXT}},
        })
        summaries = gateway.handle({"method": "service_summaries", "params": {}})
        assert any(entry["service"] == "glotta" for entry in summaries["result"])
        cache = gateway.handle({"method": "cache_stats", "params": {}})
        assert cache["result"]["hits"] >= 1
        spend = gateway.handle({"method": "spend",
                                "params": {"service": "glotta"}})
        assert spend["result"]["calls"] >= 1
        total = gateway.handle({"method": "spend", "params": {}})
        assert total["result"]["total_cost"] > 0

    def test_health(self, gateway):
        response = gateway.handle({"method": "health", "params": {}})
        assert response["status"] == 200
        assert response["result"]["online"] is True
        assert response["result"]["services_registered"] > 10
