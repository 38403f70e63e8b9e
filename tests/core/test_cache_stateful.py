"""Stateful test of the service cache (ROADMAP item 5a).

Drives :class:`~repro.core.caching.ServiceCache` — put, get, peek,
``in``, get_stale, invalidate, invalidate_service, clear, the JSON-text
accessor and a clock that steps past the TTL and the stale grace —
over tenant-namespaced keys whose payloads sometimes name another
service, against a model that is an ordered dict of ``[value,
stored_at]`` plus the counters the cache should have kept.  Every value
is a fresh object, so a value's identity names the entry that stored it;
``retired`` holds the (key, value) pairs whose entry was replaced,
evicted, invalidated, expired or cleared, whose text must never come
back.
"""

import json
from collections import OrderedDict

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.caching import ServiceCache, cache_key
from repro.util.clock import ManualClock

CAPACITY, TTL, GRACE = 3, 5.0, 5.0
SERVICES = ("glotta", "goggle")
# (key, service): per service, one untenanted key with a plain payload
# and one tenant-namespaced key whose payload names the other service —
# four keys over a capacity of three.
KEYS = [(cache_key(service, "analyze", payload, tenant=tenant), service)
        for service, other in zip(SERVICES, reversed(SERVICES))
        for payload, tenant in (({"text": "a"}, None),
                                ({"service": other}, "t1"))]
KEY_INDEX = st.integers(0, len(KEYS) - 1)
SHAPES = st.sampled_from(["dict", "list", "nan", "text"])


class CacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = ManualClock()
        self.cache = ServiceCache(capacity=CAPACITY, ttl=TTL, clock=self.clock,
                                  stale_grace=GRACE)
        self.model = OrderedDict()  # key -> [value, stored_at]
        self.service = dict(KEYS)
        self.texts = {}             # key -> text handed out for its entry
        self.retired = []           # (key, value) of dropped entries
        self.serial = 0
        self.probes = 0
        self.expected = dict(puts=0, evictions=0, expirations=0,
                             expired_reads=0, invalidations=0, stale_serves=0)

    # -- model helpers -------------------------------------------------------

    def age(self, key):
        return self.clock.now() - self.model[key][1]

    def live(self, key):
        return key in self.model and not self.age(key) > TTL

    def drop(self, key):
        value, _ = self.model.pop(key)
        self.retired.append((key, value))
        self.texts.pop(key, None)

    # -- rules ---------------------------------------------------------------

    @rule(index=KEY_INDEX, shape=SHAPES)
    def put(self, index, shape):
        key = KEYS[index][0]
        self.serial += 1
        value = {"dict": {"n": self.serial, "é": [1.5]},
                 "list": [self.serial, None, True],
                 "nan": [self.serial, float("nan"), float("-inf")],
                 "text": ["☃" * (self.serial % 3), self.serial]}[shape]
        self.cache.put(key, value)
        if key in self.model:
            self.drop(key)
        self.model[key] = [value, self.clock.now()]
        self.expected["puts"] += 1
        while len(self.model) > CAPACITY:
            self.drop(next(iter(self.model)))
            self.expected["evictions"] += 1

    @rule(index=KEY_INDEX)
    def get(self, index):
        key = KEYS[index][0]
        got = self.cache.get(key)
        self.probes += 1
        if self.live(key):
            self.model.move_to_end(key)
            assert got is self.model[key][0]
            return
        assert got is None
        if key in self.model:
            self.expected["expired_reads"] += 1
            if self.age(key) > TTL + GRACE:
                self.drop(key)
                self.expected["expirations"] += 1

    @rule(index=KEY_INDEX)
    def peek_and_in(self, index):
        key = KEYS[index][0]
        expected = self.model[key][0] if self.live(key) else None
        assert self.cache.peek(key) is expected
        assert (key in self.cache) is self.live(key)

    @rule(index=KEY_INDEX)
    def get_stale(self, index):
        key = KEYS[index][0]
        stale = self.cache.get_stale(key)
        if key not in self.model:
            assert stale is None
        elif self.age(key) > TTL + GRACE:
            assert stale is None
            self.drop(key)
            self.expected["expirations"] += 1
        else:
            assert stale.value is self.model[key][0]
            assert stale.age == self.age(key)
            self.expected["stale_serves"] += not self.live(key)

    @rule(index=KEY_INDEX)
    def invalidate(self, index):
        key = KEYS[index][0]
        existed = key in self.model
        assert self.cache.invalidate(key) is existed
        if existed:
            self.drop(key)
            self.expected["invalidations"] += 1

    @rule(service=st.sampled_from(SERVICES))
    def invalidate_service(self, service):
        doomed = [key for key in self.model if self.service[key] == service]
        assert self.cache.invalidate_service(service) == len(doomed)
        for key in doomed:
            self.drop(key)
        self.expected["invalidations"] += len(doomed)

    @rule(seconds=st.sampled_from([1.0, 4.0, 6.0, 11.0]))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule()
    def clear(self):
        self.cache.clear()
        for key in list(self.model):
            self.drop(key)

    @rule()
    def json_text(self):
        """Ask every key for its entry's text, as the gateway would."""
        for key, _ in KEYS:
            if key not in self.model:
                assert self.cache.json_text(key, object()) is None
                continue
            text = self.cache.json_text(key, self.model[key][0])
            if not self.live(key):
                assert text is None
                self.texts.pop(key, None)  # expired: it never answers again
                continue
            assert text == json.dumps(self.cache.peek(key))
            if key in self.texts:
                assert text is self.texts[key]  # encoded once, then reused
            self.texts[key] = text

    @precondition(lambda self: self.retired)
    @rule()
    def retired_text(self):
        for key, value in self.retired:
            assert self.cache.json_text(key, value) is None

    # -- invariants ----------------------------------------------------------

    @invariant()
    def probes_are_hits_plus_misses(self):
        stats = self.cache.stats
        assert stats.hits + stats.misses == self.probes
        assert {name: getattr(stats, name) for name in self.expected} == self.expected

    @invariant()
    def size_and_contents_match(self):
        assert len(self.cache) == len(self.model) <= CAPACITY
        for key, _ in KEYS:
            expected = self.model[key][0] if self.live(key) else None
            assert self.cache.peek(key) is expected


TestServiceCache = CacheMachine.TestCase
TestServiceCache.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
