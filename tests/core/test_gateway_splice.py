"""A warm ``invoke`` reuses its cache entry's JSON text.

The gateway renders every ``invoke`` response by splicing the value's
text into the envelope; a fresh cache hit takes that text from the
entry that served it, encoded on the entry's first serve.  These tests
pin the bytes (equal to one ``json.dumps`` of the response dict, and to
the oracle gateway's on the same client), the error path, and how often
a value is actually encoded.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import RichClient, build_world
from repro.core.caching import ServiceCache, cache_key
from repro.core.gateway import SdkGateway
from tests.core.reference_gateway import ReferenceSdkGateway

SERVICE, OPERATION = "glotta", "analyze"
TTL, GRACE = 10.0, 100.0


def _gateway(capacity=8):
    world = build_world(seed=42, corpus_size=20)
    cache = ServiceCache(capacity=capacity, ttl=TTL, clock=world.clock,
                         stale_grace=GRACE)
    return SdkGateway(RichClient(world.registry, cache=cache,
                                 serve_stale_on_error=True))


@pytest.fixture
def gateway():
    serving = _gateway()
    yield serving
    serving.client.close()


@pytest.fixture(scope="module")
def shared():
    serving = _gateway()
    yield serving
    serving.client.close()


def _request(text, **params):
    return json.dumps({"method": "invoke", "params": {
        "service": SERVICE, "operation": OPERATION, "payload": {"text": text},
        **params}})


def _store(gateway, text, value):
    """Put ``value`` where an ``invoke`` of ``text`` will hit it."""
    gateway.client.cache.put(cache_key(SERVICE, OPERATION, {"text": text}), value)
    return _request(text)


def _hit(value):
    return json.dumps({"status": 200, "result": {
        "value": value, "latency": 0.0, "cost": 0.0, "service": SERVICE,
        "cached": True, "degraded": False}})


def _circular():
    value = []
    value.append(value)
    return value


class Counting(dict):
    """A dict that counts how often ``json`` encodes it (the C encoder
    asks a dict subclass for its ``items()`` once per encode)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.encodes = 0

    def items(self):
        self.encodes += 1
        return super().items()


# -- bytes ----------------------------------------------------------------------

keys = (st.text(max_size=4) | st.integers(-5, 5) | st.booleans() | st.none()
        | st.floats(width=16))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(keys, inner, max_size=3),
    max_leaves=10)


class TestSameBytes:
    @settings(max_examples=150, deadline=None)
    @given(value=json_values.filter(lambda value: value is not None))
    # Keys that encode to one JSON string: json.dumps writes both, the
    # oracle's json.loads round trip keeps the last.
    @example(value={1: "a", "1": "b"})
    @example(value={True: 0, "true": 1})
    @example(value={None: 1, "null": 2})
    @example(value={float("nan"): None, float("nan"): None})
    def test_a_spliced_hit_is_json_dumps_of_the_response(self, shared, value):
        """NaN and +-inf, non-ASCII text, non-string keys, nesting: the
        first hit (which encodes) and the next (which reuses) both equal
        ``json.dumps`` of the response dict; the oracle's bytes equal it
        too once decoded and re-encoded, which changes them only where
        two keys encode alike.  (A stored ``None`` is a miss to the
        client, so it is not drawn.)"""
        oracle = ReferenceSdkGateway(shared.client)
        request = _store(shared, "splice ☃", value)
        expected = _hit(value)
        assert shared.handle_json(request) == expected
        assert shared.handle_json(request) == expected
        assert oracle.handle_json(request) == json.dumps(json.loads(expected))

    @pytest.mark.parametrize("value", [
        {1, 2}, b"bytes", object(), {"nested": [1j]}, {(1, 2): "tuple key"},
        _circular()], ids=["set", "bytes", "object", "complex", "tuple-key",
                           "circular"])
    def test_a_value_json_refuses_is_still_a_500(self, gateway, value):
        """The envelope the whole-response ``json.dumps`` gave: same
        status, message and error count, on every hit."""
        try:
            _hit(value)
        except (TypeError, ValueError) as error:
            expected = json.dumps({
                "status": 500, "error": f"result is not JSON-serializable: {error}",
                "error_type": "SerializationError"})
        request = _store(gateway, "refused", value)
        assert [gateway.handle_json(request) for _ in range(2)] == [expected] * 2
        assert (gateway.requests_served, gateway.errors_returned) == (2, 2)

    def test_a_miss_renders_the_same_bytes_as_the_oracle(self, gateway):
        oracle = ReferenceSdkGateway(_gateway().client)
        request = _request("IBM announced excellent results.")
        for cached in (False, True, True):
            response = gateway.handle_json(request)
            assert response == oracle.handle_json(request)
            assert json.loads(response)["result"]["cached"] is cached
        oracle.client.close()


# -- encode once --------------------------------------------------------------

class TestEncodeOnce:
    def test_hits_on_one_entry_encode_its_value_once(self, gateway):
        value = Counting(label="warm", scores=[0.5, 0.25])
        expected = _hit(value)
        value.encodes = 0
        request = _store(gateway, "once", value)
        responses = [gateway.handle_json(request) for _ in range(6)]
        assert responses == [expected] * 6 and value.encodes == 1
        assert gateway.handle(json.loads(request))["result"]["value"] == value
        assert value.encodes == 1  # the dict API is the same path

    def test_a_put_drops_the_text(self, gateway):
        value = Counting(v=1)
        request = _store(gateway, "put", value)
        gateway.handle_json(request)
        gateway.handle_json(request)
        _store(gateway, "put", value)  # same object, new entry
        gateway.handle_json(request)
        gateway.handle_json(request)
        assert value.encodes == 2

    @pytest.mark.parametrize("drop", ["invalidate", "invalidate_service",
                                      "evict", "clear"])
    def test_a_dropped_entry_takes_its_text_with_it(self, drop):
        gateway = _gateway(capacity=2)
        cache = gateway.client.cache
        value = Counting(v=1)
        request = _store(gateway, "dropped", value)
        gateway.handle_json(request)
        if drop == "evict":
            cache.put("a", 1)
            cache.put("b", 2)
        elif drop == "invalidate":
            cache.invalidate(cache_key(SERVICE, OPERATION, {"text": "dropped"}))
        elif drop == "invalidate_service":
            cache.invalidate_service(SERVICE)
        else:
            cache.clear()
        assert _store(gateway, "dropped", value) == request
        gateway.handle_json(request)
        gateway.handle_json(request)
        assert value.encodes == 2
        gateway.client.close()

    def test_expiry_drops_the_text_and_stale_serves_render_from_the_value(
            self, gateway):
        value = Counting(v=1)
        request = _store(gateway, "stale", value)
        gateway.handle_json(request)
        gateway.handle_json(request)
        assert value.encodes == 1
        gateway.client.clock.advance(TTL + 1)  # expired, within the grace
        spent = _request("stale", deadline=0)  # only a stale answer is left
        for served in (2, 3):
            response = json.loads(gateway.handle_json(spent))
            assert response["result"]["degraded"] is True
            assert response["result"]["value"] == value
            assert value.encodes == served
        key = cache_key(SERVICE, OPERATION, {"text": "stale"})
        assert gateway.client.cache.json_text(key, value) is None

    def test_python_callers_never_pay_for_the_text(self, gateway):
        value = Counting(v=1)
        _store(gateway, "python", value)
        for _ in range(3):
            assert gateway.client.invoke(SERVICE, OPERATION,
                                         {"text": "python"}).value is value
        assert value.encodes == 0
