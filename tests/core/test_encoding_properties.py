"""The SDK's two JSON encodings against the formulas they replace.

``cache_key`` splices the payload's canonical text into the request
frame, and the wire encodes with one shared encoder that skips the
circular-reference walk.  Both must produce exactly the text of the
plain ``json.dumps`` formulas, and refuse exactly what they refuse (as
:class:`SerializationError`).  Texts are compared, not decoded values:
NaN never equals itself.
"""

import json
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.caching import cache_key
from repro.simnet.transport import _roundtrip, wire_size
from repro.util.errors import SerializationError


def reference_key(service, operation, payload, tenant=None):
    """The key formula before the splice."""
    request = {"service": service, "operation": operation,
               "payload": dict(payload)}
    if tenant is not None:
        request["tenant"] = tenant
    return json.dumps(request, sort_keys=True, separators=(",", ":"))


def reference_wire(payload):
    """The wire encoding before the shared encoder."""
    return json.dumps(payload, separators=(",", ":"))


UNSERIALIZABLE = ({1, 2}, b"bytes", object(), 1j)

plain_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e16, 1e-7, float("nan"), float("inf"),
                     2 ** 53 + 1, 10 ** 30]),
    st.text(),
)


@st.composite
def leaves(draw):
    """A JSON leaf; one draw in twenty is a value ``json`` refuses."""
    if draw(st.sampled_from([False] * 19 + [True])):
        return draw(st.sampled_from(UNSERIALIZABLE))
    return draw(plain_leaves)


# Int keys become strings on the wire; mixed with str keys they make
# ``sort_keys`` refuse the dict, which the key must refuse too.
dict_keys = st.one_of(st.text(max_size=6), st.integers(-3, 3))

values = st.recursive(
    leaves(),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(dict_keys, children, max_size=4)),
    max_leaves=16)

payloads = st.dictionaries(dict_keys, values, max_size=5)
names = st.text(max_size=12)


class TestSplicedCacheKey:
    @settings(max_examples=400, deadline=None)
    @given(service=names, operation=names, payload=payloads,
           tenant=st.none() | names)
    def test_equals_the_sorted_dump_of_the_request(self, service, operation,
                                                   payload, tenant):
        try:
            expected = reference_key(service, operation, payload, tenant)
        except (TypeError, ValueError):
            with pytest.raises(SerializationError):
                cache_key(service, operation, payload, tenant=tenant)
            return
        assert cache_key(service, operation, payload, tenant=tenant) == expected

    def test_non_dict_mapping_is_keyed_like_its_dict(self):
        payload = {"b": [1, 2.5], "a": "ü"}
        assert cache_key("s", "op", MappingProxyType(payload)) == \
            reference_key("s", "op", payload)


class TestSharedWireEncoder:
    @settings(max_examples=400, deadline=None)
    @given(payload=values)
    def test_roundtrip_and_size_equal_the_plain_dump(self, payload):
        try:
            text = reference_wire(payload)
        except (TypeError, ValueError):
            with pytest.raises(SerializationError):
                wire_size(payload)
            with pytest.raises(SerializationError):
                _roundtrip(payload, "request")
            return
        decoded, size = _roundtrip(payload, "request")
        assert size == len(text.encode()) == wire_size(payload)
        assert reference_wire(decoded) == reference_wire(json.loads(text))


def cyclic():
    payload = {"text": "x", "loop": []}
    payload["loop"].append(payload)
    return payload


def too_deep():
    nested = []
    for _ in range(5_000):
        nested = [nested]
    return {"text": "x", "deep": nested}


@pytest.mark.parametrize("make", [cyclic, too_deep, lambda: {"tags": {1, 2}}],
                         ids=["cycle", "deep", "set"])
class TestOneRefusal:
    """No marker walk: a cycle recurses like an over-deep payload, and
    both are refused as :class:`SerializationError`, never a bare
    ``ValueError`` or ``RecursionError``."""

    def test_cache_key(self, make):
        with pytest.raises(SerializationError, match="not JSON-serializable"):
            cache_key("s", "op", make())

    def test_wire(self, make):
        with pytest.raises(SerializationError,
                           match="^payload is not JSON-serializable"):
            wire_size(make())
        with pytest.raises(SerializationError,
                           match="^request payload is not JSON-serializable"):
            _roundtrip(make(), "request")
