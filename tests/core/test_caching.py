"""Tests for the service cache (LRU + TTL), including invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.core.caching import DEFAULT_CACHEABLE_OPERATIONS, ServiceCache, cache_key
from repro.stores.kvstore import InMemoryKeyValueStore
from repro.util.clock import ManualClock


class TestCacheKey:
    def test_payload_order_irrelevant(self):
        assert cache_key("s", "op", {"a": 1, "b": 2}) == cache_key(
            "s", "op", {"b": 2, "a": 1})

    def test_distinguishes_components(self):
        base = cache_key("s", "op", {"a": 1})
        assert base != cache_key("s2", "op", {"a": 1})
        assert base != cache_key("s", "op2", {"a": 1})
        assert base != cache_key("s", "op", {"a": 2})

    def test_mutating_operations_not_cacheable(self):
        assert "put" not in DEFAULT_CACHEABLE_OPERATIONS
        assert "delete" not in DEFAULT_CACHEABLE_OPERATIONS
        assert "analyze" in DEFAULT_CACHEABLE_OPERATIONS


class TestBasicOperations:
    def test_get_after_put(self):
        cache = ServiceCache(capacity=10)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.stats.hits == 1

    def test_miss_counted(self):
        cache = ServiceCache(capacity=10)
        assert cache.get("missing") is None
        assert cache.stats.misses == 1

    def test_get_with_default(self):
        cache = ServiceCache(capacity=10)
        assert cache.get("missing", default="d") == "d"

    def test_peek_does_not_touch_stats(self):
        cache = ServiceCache(capacity=10)
        cache.put("k", "v")
        assert cache.peek("k") == "v"
        assert cache.peek("missing") is None
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_invalidate(self):
        cache = ServiceCache(capacity=10)
        cache.put("k", "v")
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        assert cache.get("k") is None

    def test_invalidate_service_drops_only_its_keys(self):
        cache = ServiceCache(capacity=10)
        key_a = cache_key("svc-a", "op", {})
        key_b = cache_key("svc-b", "op", {})
        cache.put(key_a, 1)
        cache.put(key_b, 2)
        # Only the top-level service field counts: a payload (or a
        # tenant) that mentions "svc-a" does not make an entry svc-a's.
        names_a = cache_key("svc-b", "get", {"service": "svc-a",
                                             "nested": {"service": "svc-a"}})
        tenanted_a = cache_key("svc-a", "op", {"service": "svc-b"},
                               tenant='"service":"svc-b"')
        tenant_names_a = cache_key("svc-b", "op", {}, tenant='"service":"svc-a"')
        cache.put(names_a, 3)
        cache.put(tenanted_a, 4)
        cache.put(tenant_names_a, 5)
        cache.put(cache_key("svc-a2", "op", {}), 6)
        dropped = cache.invalidate_service("svc-a")
        assert dropped == 2
        assert cache.peek(key_a) is None and cache.peek(tenanted_a) is None
        assert cache.peek(key_b) == 2
        assert [cache.peek(names_a), cache.peek(tenant_names_a)] == [3, 5]
        assert cache.invalidate_service("svc-b") == 3
        assert len(cache) == 1

    def test_hit_ratio(self):
        cache = ServiceCache(capacity=10)
        cache.put("k", "v")
        cache.get("k")
        cache.get("x")
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceCache(capacity=0)
        with pytest.raises(ValueError):
            ServiceCache(ttl=1.0)  # ttl without clock
        with pytest.raises(ValueError):
            ServiceCache(ttl=-1.0, clock=ManualClock())


class TestLru:
    def test_capacity_enforced(self):
        cache = ServiceCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.peek("a") is None  # least recently used evicted
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = ServiceCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # 'a' becomes most recent
        cache.put("c", 3)
        assert cache.peek("a") == 1
        assert cache.peek("b") is None

    def test_overwrite_refreshes_recency(self):
        cache = ServiceCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert cache.peek("a") == 10
        assert cache.peek("b") is None

    @given(st.lists(st.tuples(st.sampled_from("abcdefgh"), st.integers()),
                    max_size=60))
    def test_never_exceeds_capacity(self, operations):
        cache = ServiceCache(capacity=3)
        for key, value in operations:
            cache.put(key, value)
            assert len(cache) <= 3

    @given(st.lists(st.tuples(st.sampled_from("abcdefgh"), st.integers()),
                    max_size=60))
    def test_last_put_always_retrievable(self, operations):
        cache = ServiceCache(capacity=3)
        for key, value in operations:
            cache.put(key, value)
            assert cache.peek(key) == value


class TestTtl:
    def test_expires_after_ttl(self):
        clock = ManualClock()
        cache = ServiceCache(capacity=10, ttl=5.0, clock=clock)
        cache.put("k", "v")
        clock.advance(4.9)
        assert cache.get("k") == "v"
        clock.advance(0.2)
        assert cache.get("k") is None
        assert cache.stats.expirations == 1

    def test_refresh_on_put_resets_ttl(self):
        clock = ManualClock()
        cache = ServiceCache(capacity=10, ttl=5.0, clock=clock)
        cache.put("k", "v1")
        clock.advance(4.0)
        cache.put("k", "v2")
        clock.advance(4.0)
        assert cache.get("k") == "v2"

    @pytest.mark.parametrize("grace", [None, 5.0])
    def test_membership_ends_with_the_ttl(self, grace):
        """``in`` is live-entry membership: False once the TTL passed,
        even while the entry is retained for ``stale_grace``; a stored
        ``None`` is present while it lives."""
        clock = ManualClock()
        cache = ServiceCache(capacity=10, ttl=5.0, clock=clock,
                             stale_grace=grace)
        cache.put("k", "v")
        cache.put("none", None)
        assert "k" in cache and "none" in cache and "other" not in cache
        clock.advance(5.1)
        assert "k" not in cache and "none" not in cache
        assert cache.peek("k") is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)

    def test_no_ttl_never_expires(self):
        clock = ManualClock()
        cache = ServiceCache(capacity=10, clock=clock)
        cache.put("k", "v")
        clock.advance(1e9)
        assert cache.get("k") == "v"


class TestPersistence:
    def test_save_load_roundtrip(self):
        store = InMemoryKeyValueStore()
        cache = ServiceCache(capacity=10)
        cache.put("a", 1)
        cache.put("b", [2, 3])
        assert cache.save_to(store) == 2

        fresh = ServiceCache(capacity=10)
        assert fresh.load_from(store) == 2
        assert fresh.peek("a") == 1
        assert fresh.peek("b") == [2, 3]

    def test_load_respects_capacity(self):
        store = InMemoryKeyValueStore()
        cache = ServiceCache(capacity=10)
        for index in range(8):
            cache.put(f"k{index}", index)
        cache.save_to(store)
        small = ServiceCache(capacity=3)
        small.load_from(store)
        assert len(small) == 3

    def test_expired_entries_not_saved(self):
        clock = ManualClock()
        store = InMemoryKeyValueStore()
        cache = ServiceCache(capacity=10, ttl=1.0, clock=clock)
        cache.put("old", 1)
        clock.advance(2.0)
        cache.put("new", 2)
        assert cache.save_to(store) == 1

    def test_load_from_empty_store(self):
        assert ServiceCache(capacity=3).load_from(InMemoryKeyValueStore()) == 0
