"""Tests for the simulated transport."""

import pytest

from repro.simnet.connectivity import ScriptedConnectivity
from repro.simnet.errors import ConnectivityError, ServiceTimeoutError
from repro.simnet.latency import ConstantLatency
from repro.simnet.transport import Transport, wire_size
from repro.util.clock import ManualClock
from repro.util.errors import SerializationError
from repro.util.rng import SeededRng


def echo_server(payload):
    """A trivial service: echoes the payload with 0.1 s compute time."""
    return {"echo": payload}, 0.1


class TestWireSize:
    def test_counts_json_bytes(self):
        assert wire_size({"a": 1}) == len(b'{"a":1}')

    def test_rejects_unserializable(self):
        with pytest.raises(SerializationError):
            wire_size({"bad": object()})


class TestTransportCall:
    def test_successful_call_returns_payload_and_latency(self, transport):
        result = transport.call("svc", echo_server, {"x": 1})
        assert result.payload == {"echo": {"x": 1}}
        assert result.latency == pytest.approx(0.1)

    def test_latency_charged_to_clock(self):
        clock = ManualClock()
        transport = Transport(clock=clock, rng=SeededRng(1),
                              network_latency=ConstantLatency(0.05))
        transport.call("svc", echo_server, {})
        # outbound 0.05 + compute 0.1 + inbound 0.05
        assert clock.now() == pytest.approx(0.2)

    def test_serialization_boundary_copies_data(self, transport):
        payload = {"nested": [1, 2, 3]}

        def mutating_server(request):
            request["nested"].append(99)
            return {"got": request["nested"]}, 0.0

        transport.call("svc", mutating_server, payload)
        assert payload["nested"] == [1, 2, 3]  # caller's data untouched

    def test_rejects_unserializable_request(self, transport):
        with pytest.raises(SerializationError):
            transport.call("svc", echo_server, {"bad": object()})

    def test_rejects_unserializable_response(self, transport):
        def bad_server(payload):
            return {"value": object()}, 0.0

        with pytest.raises(SerializationError):
            transport.call("svc", bad_server, {})

    def test_timeout_raises_and_charges_timeout(self):
        clock = ManualClock()
        transport = Transport(clock=clock, rng=SeededRng(1))
        with pytest.raises(ServiceTimeoutError):
            transport.call("svc", echo_server, {}, timeout=0.05)
        assert clock.now() == pytest.approx(0.05)  # client waited the timeout
        assert transport.stats.timeouts == 1

    def test_generous_timeout_passes(self, transport):
        result = transport.call("svc", echo_server, {}, timeout=10.0)
        assert result.payload["echo"] == {}

    def test_offline_raises_connectivity_error(self):
        clock = ManualClock()
        transport = Transport(
            clock=clock, rng=SeededRng(1),
            connectivity=ScriptedConnectivity([], initially_online=False),
        )
        with pytest.raises(ConnectivityError):
            transport.call("svc", echo_server, {})
        assert transport.stats.offline_failures == 1

    def test_connectivity_follows_clock(self):
        clock = ManualClock()
        transport = Transport(
            clock=clock, rng=SeededRng(1),
            connectivity=ScriptedConnectivity([1.0, 2.0]),
        )
        transport.call("svc", echo_server, {})  # online at t=0
        clock.advance(1.0)
        with pytest.raises(ConnectivityError):
            transport.call("svc", echo_server, {})  # offline during [1, 2)
        clock.advance(1.0)
        transport.call("svc", echo_server, {})  # back online

    def test_server_exception_propagates_after_charging_outbound(self):
        clock = ManualClock()
        transport = Transport(clock=clock, rng=SeededRng(1),
                              network_latency=ConstantLatency(0.02))

        def failing_server(payload):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            transport.call("svc", failing_server, {})
        assert clock.now() == pytest.approx(0.02)  # outbound trip was paid

    def test_stats_accumulate(self, transport):
        transport.call("a", echo_server, {"k": 1})
        transport.call("a", echo_server, {"k": 2})
        transport.call("b", echo_server, {})
        stats = transport.stats
        assert stats.calls == 3
        assert stats.successes == 3
        assert stats.per_endpoint_calls == {"a": 2, "b": 1}
        assert stats.bytes_sent > 0
        assert stats.bytes_received > 0
        assert stats.total_latency == pytest.approx(0.3)

    def test_bytes_are_the_size_of_what_was_encoded(self, transport):
        request = {"text": "caf\u00e9", "n": [1, 2.5, None], 7: True}
        result = transport.call("svc", echo_server, request)
        assert result.payload == {"echo": {"text": "caf\u00e9",
                                           "n": [1, 2.5, None], "7": True}}
        assert result.bytes_sent == wire_size(request)
        assert result.bytes_received == wire_size(result.payload)
        assert transport.stats.bytes_sent == result.bytes_sent
        assert transport.stats.bytes_received == result.bytes_received

    def test_colliding_keys_are_charged_as_sent(self, transport):
        # 1 and "1" are one key once JSON makes keys strings: the wire
        # carried both entries (and is charged for both), the receiver's
        # dict keeps the last.
        def colliding_server(payload):
            return {1: "a", "1": "b"}, 0.0

        result = transport.call("svc", colliding_server, {1: "x", "1": "y"})
        assert result.payload == {"1": "b"}
        assert result.bytes_sent == len(b'{"1":"x","1":"y"}')
        assert result.bytes_received == len(b'{"1":"a","1":"b"}')
        assert result.bytes_received > wire_size(result.payload)

    @pytest.mark.parametrize("direction", ["request", "response"])
    def test_serialization_error_names_the_direction(self, transport, direction):
        def server(payload):
            return ({"value": object()} if direction == "response" else {}), 0.0

        request = {"bad": object()} if direction == "request" else {}
        with pytest.raises(SerializationError,
                           match=f"^{direction} payload is not JSON-serializable: "):
            transport.call("svc", server, request)
