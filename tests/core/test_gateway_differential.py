"""The single-parse gateway against the triple-round-trip oracle.

``reference_gateway.py`` holds ``handle`` / ``handle_json`` as they were
before PR 20.  Two identical worlds are fed the same envelopes, one
through each gateway; since every call is made on both, the twins stay
in the same state (cache, monitor, budgets, clock) and each response
must match — ``handle_json`` byte for byte, ``handle`` as equal dicts —
together with the two counters.
"""

import json
import math
from collections import OrderedDict
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import RichClient, build_world
from repro.core.gateway import SdkGateway
from repro.tenancy import Tenancy, Tenant, TenantRegistry
from tests.core.reference_gateway import ReferenceSdkGateway

TEXTS = ["IBM announced excellent results.", "Google fears a terrible quarter.",
         "Paris is lovely in spring.", "  ", ""]
ENTITIES = ["IBM", "Paris", "Google", "Atlantis"]


class Twins:
    """The same world twice: one new gateway, one oracle."""

    def __init__(self):
        self.new, self.old = (self._gateway(cls)
                              for cls in (SdkGateway, ReferenceSdkGateway))

    @staticmethod
    def _gateway(cls):
        world = build_world(seed=42, corpus_size=20)
        tenants = TenantRegistry(auto_register=False)
        tenants.register(Tenant("alpha"))
        tenants.register(Tenant("beta", max_calls=40))
        return cls(RichClient(world.registry, tenancy=Tenancy(tenants)))

    def check_text(self, text):
        assert self.new.handle_json(text) == self.old.handle_json(text)
        self.check_counters()

    def check_dict(self, request):
        assert self.new.handle(request) == self.old.handle(request)
        self.check_counters()

    def check_counters(self):
        assert (self.new.requests_served, self.new.errors_returned) == (
            self.old.requests_served, self.old.errors_returned)

    def close(self):
        self.new.client.close()
        self.old.client.close()


@pytest.fixture(scope="module")
def twins():
    pair = Twins()
    yield pair
    pair.close()


# -- envelopes ---------------------------------------------------------------

json_leaves = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
               | st.floats(allow_nan=False, allow_infinity=False, width=32)
               | st.text(max_size=8))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def mostly(valid, junk):
    """``valid`` four times out of five."""
    return st.one_of(valid, valid, valid, valid, junk)


rarely = st.sampled_from([False] * 9 + [True])


# (service, operation, payload) that belong together, over a small pool
# so most calls are cache hits, as on the serving path.
nlu_calls = st.tuples(st.sampled_from(["lexica-prime", "glotta"]), st.just("analyze"),
                      st.fixed_dictionaries({"text": st.sampled_from(TEXTS)}))
search_calls = st.tuples(st.sampled_from(["goggle", "bung"]), st.just("search"),
                         st.fixed_dictionaries({"query": st.sampled_from(ENTITIES),
                                                "limit": st.integers(1, 3)}))
lookup_calls = st.tuples(st.sampled_from(["dbpedia-sim", "yago-sim"]), st.just("lookup"),
                         st.fixed_dictionaries({"entity": st.sampled_from(ENTITIES)}))
# Payloads a service refuses but a falsy test would pass as {}, a list of
# pairs that dict() would turn into an object, and any JSON value.
not_objects = st.sampled_from([0, False, "", [], [["text", "x"]], 0.0])
junk_calls = st.tuples(st.sampled_from(["glotta", "goggle", "ghost"]),
                       st.sampled_from(["analyze", "lookup", "levitate"]),
                       not_objects | json_values)
calls = mostly(nlu_calls | search_calls | lookup_calls, junk_calls)
call_options = mostly(st.just({}), st.fixed_dictionaries({}, optional={
    "use_cache": st.booleans() | st.integers(0, 1),
    "timeout": st.sampled_from([None, 1e-9, 5.0, "soon"]),
    "deadline": st.sampled_from([None, 0, 30.0, "later"]),
}))
bad_weights = st.sampled_from([math.nan, math.inf, -5, "2", True])
weights = mostly(
    st.fixed_dictionaries({}, optional={
        "response_time": st.floats(0, 3), "cost": st.floats(0, 3),
        "quality": st.floats(0, 3)}),
    st.sampled_from([[1, 2], {"quality": "high"}, 3, 0, False, [], None])
    | st.dictionaries(st.sampled_from(["response_time", "cost", "quality"]),
                      bad_weights | st.floats(0, 3), min_size=1))
kinds = mostly(st.sampled_from(["nlu", "search", "knowledge", "storage"]),
               st.sampled_from(["ghost", "", None]))
latency_params = mostly(
    st.dictionaries(st.sampled_from(["size", "words"]), st.integers(0, 500),
                    max_size=2),
    json_values)


@st.composite
def method_params(draw):
    """(method, params) for the four serving methods, mostly well-formed."""
    method = draw(st.sampled_from(
        ["invoke", "invoke_many", "best_service", "invoke_failover"]))
    params = dict(draw(call_options))
    if method == "invoke":
        (params["service"], params["operation"],
         params["payload"]) = draw(calls)
    elif method == "invoke_many":
        batch = draw(st.lists(calls, min_size=1, max_size=3))
        params["service"], params["operation"], _ = batch[0]
        params["payloads"] = draw(mostly(
            st.just([payload for _, _, payload in batch]),
            json_values | st.lists(not_objects | json_values, min_size=1,
                                   max_size=3)))
    else:
        params["kind"] = draw(kinds)
        if draw(st.booleans()):
            params["weights"] = draw(weights)
    if method == "invoke_failover":
        _, params["operation"], params["payload"] = draw(calls)
    if method == "best_service" and draw(st.booleans()):
        params["latency_params"] = draw(latency_params)
    if draw(rarely):
        params.pop(draw(st.sampled_from(sorted(params))), None)
    return method, params


other_methods = st.tuples(
    st.sampled_from(["rank_services", "service_summaries", "cache_stats",
                     "spend", "tenant_usage", "health", "traces"]),
    st.fixed_dictionaries({"kind": kinds}, optional={
        "service": st.sampled_from(["glotta", "ghost"]),
        "tenant": st.sampled_from(["alpha", "ghost"]),
        "formula": st.sampled_from(["weighted", "normalized", "magic"]),
        "limit": st.integers(0, 2)}))
malformed = st.tuples(
    st.text(max_size=6) | st.integers() | st.none() | st.lists(st.text(max_size=3)),
    st.dictionaries(st.text(max_size=4), json_values, max_size=2)
    | st.integers() | st.text(max_size=4) | st.lists(json_values, max_size=2)
    | st.none())
tenants = mostly(st.sampled_from(["alpha", "beta"]),
                 st.sampled_from(["ghost", "", 7, 0, False, [], ["alpha"], None]))


@st.composite
def envelopes(draw):
    """JSON-pure request envelopes of every shape the gateway answers."""
    method, params = draw(st.one_of(*[method_params()] * 7, other_methods,
                                    other_methods, malformed))
    envelope = {"method": method, "params": params}
    if draw(st.booleans()):
        envelope["tenant"] = draw(tenants)
    if draw(rarely):
        envelope.pop(draw(st.sampled_from(["method", "params"])))
    if draw(rarely):
        envelope[draw(st.text(max_size=4))] = draw(json_values)
    return envelope


class FrozenEnvelope(Mapping):
    """A ``Mapping`` that is not a ``dict``."""

    def __init__(self, data):
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


unserialisable = st.sampled_from([{1, 2}, b"bytes", object(), 1j,
                                  MappingProxyType({"text": "x"}),
                                  FrozenEnvelope({"text": "x"})])


@st.composite
def python_requests(draw):
    """What only a Python caller can hand ``handle``: non-``dict``
    mappings at the top, values ``json`` refuses below it, non-mappings."""
    envelope = draw(envelopes())
    flavour = draw(st.sampled_from(["proxy", "ordered", "frozen", "poison",
                                    "poison-top", "not-a-mapping"]))
    if flavour == "proxy":
        return MappingProxyType(envelope)
    if flavour == "ordered":
        return OrderedDict(envelope)
    if flavour == "frozen":
        return FrozenEnvelope(envelope)
    if flavour == "poison-top":
        return {**envelope, "extra": draw(unserialisable)}
    if flavour == "poison":
        params = envelope.get("params")
        params = dict(params) if isinstance(params, dict) else {}
        params["payload"] = {"text": draw(unserialisable)}
        return {**envelope, "params": params}
    return draw(st.sampled_from([None, 7, "invoke", [("method", "health")],
                                 [1, 2, 3]]))


# -- the differential properties ----------------------------------------------

class TestSameAnswers:
    def test_warm_working_set(self, twins):
        """The serving mix: every request over and over (one miss, then
        hits), ranking and failover in between, on both paths."""
        working_set = [
            {"method": "invoke", "tenant": tenant, "params": {
                "service": service, "operation": operation, "payload": payload}}
            for tenant in ("alpha", "beta")
            for service, operation, payload in (
                ("lexica-prime", "analyze", {"text": TEXTS[0]}),
                ("glotta", "analyze", {"text": TEXTS[1]}),
                ("goggle", "search", {"query": "IBM results", "limit": 5}),
                ("dbpedia-sim", "lookup", {"entity": "IBM"}))]
        working_set += [
            {"method": "best_service", "params": {"kind": kind}}
            for kind in ("nlu", "search", "knowledge", "storage")]
        working_set.append({"method": "invoke_failover", "tenant": "alpha", "params": {
            "kind": "knowledge", "operation": "lookup", "payload": {"entity": "Paris"}}})
        hits, errors = twins.new.client.cache.stats.hits, twins.new.errors_returned
        for _ in range(3):
            for envelope in working_set:
                twins.check_text(json.dumps(envelope))
                twins.check_dict(envelope)
        assert twins.new.client.cache.stats.hits - hits >= 40
        assert twins.new.errors_returned == errors

    @settings(max_examples=300, deadline=None)
    @given(envelope=envelopes())
    def test_json_envelopes_on_both_paths(self, twins, envelope):
        twins.check_text(json.dumps(envelope))
        twins.check_dict(envelope)

    @settings(max_examples=200, deadline=None)
    @given(request=python_requests())
    def test_python_only_requests(self, twins, request):
        twins.check_dict(request)

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=30)
           | json_values.map(json.dumps)
           | envelopes().map(json.dumps).map(lambda text: text[:-1]))
    @example(text='{"method": "health", "params": {"x": NaN}}')
    @example(text='{"method": "health", "method": "cache_stats"}')
    @example(text="﻿{}")
    def test_arbitrary_text(self, twins, text):
        twins.check_text(text)


class TestIsolation:
    REQUEST = {"method": "invoke", "params": {
        "service": "glotta", "operation": "analyze",
        "payload": {"text": "IBM announced excellent results."}}}

    def test_mutating_a_response_does_not_reach_the_cache(self, client):
        gateway = SdkGateway(client)
        gateway.handle(self.REQUEST)
        first = gateway.handle(self.REQUEST)
        assert first["result"]["cached"] is True
        pristine = json.dumps(first)
        first["result"]["value"]["entities"].clear()
        first["result"]["value"]["sentiment"]["label"] = "tampered"
        assert json.dumps(gateway.handle(self.REQUEST)) == pristine
        assert gateway.handle_json(json.dumps(self.REQUEST)) == pristine

    def test_request_objects_are_not_retained(self, client):
        gateway = SdkGateway(client)
        request = json.loads(json.dumps(self.REQUEST))
        before = gateway.handle(request)
        request["params"]["payload"]["text"] = "Google fears a terrible quarter."
        after = gateway.handle(self.REQUEST)
        assert after["result"]["cached"] is True
        assert after["result"]["value"] == before["result"]["value"]
