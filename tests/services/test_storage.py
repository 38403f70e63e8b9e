"""Tests for cloud storage services."""

import pytest

from repro.services.storage import CloudStoreService
from repro.simnet.errors import RemoteServiceError
from repro.simnet.latency import SizeDependentLatency


@pytest.fixture
def store(transport):
    return CloudStoreService(
        "store", transport,
        latency=SizeDependentLatency(base=0.01, slope=1e-5, noise_sigma=0.0),
    )


class TestOperations:
    def test_put_get_roundtrip(self, store):
        store.invoke("put", {"key": "a", "value": {"n": 1}})
        response = store.invoke("get", {"key": "a"})
        assert response.value["value"] == {"n": 1}

    def test_get_missing_404(self, store):
        with pytest.raises(RemoteServiceError) as excinfo:
            store.invoke("get", {"key": "missing"})
        assert excinfo.value.status == 404

    def test_delete(self, store):
        store.invoke("put", {"key": "a", "value": 1})
        assert store.invoke("delete", {"key": "a"}).value["deleted"] is True
        assert store.invoke("delete", {"key": "a"}).value["deleted"] is False

    def test_exists(self, store):
        assert store.invoke("exists", {"key": "a"}).value["exists"] is False
        store.invoke("put", {"key": "a", "value": 1})
        assert store.invoke("exists", {"key": "a"}).value["exists"] is True

    def test_keys_prefix(self, store):
        for key in ("pkb/a", "pkb/b", "other/c"):
            store.invoke("put", {"key": key, "value": 0})
        response = store.invoke("keys", {"prefix": "pkb/"})
        assert response.value["keys"] == ["pkb/a", "pkb/b"]

    def test_put_requires_key(self, store):
        with pytest.raises(RemoteServiceError):
            store.invoke("put", {"value": 1})

    def test_overwrite(self, store):
        store.invoke("put", {"key": "a", "value": 1})
        store.invoke("put", {"key": "a", "value": 2})
        assert store.invoke("get", {"key": "a"}).value["value"] == 2
        assert store.object_count == 1


class TestSizeDependentLatency:
    def test_put_latency_grows_with_value_size(self, store):
        small = store.invoke("put", {"key": "s", "value": "x"})
        large = store.invoke("put", {"key": "l", "value": "x" * 50_000})
        assert large.latency > small.latency * 5

    def test_get_latency_reflects_stored_size(self, store):
        store.invoke("put", {"key": "s", "value": "x"})
        store.invoke("put", {"key": "l", "value": "x" * 50_000})
        small = store.invoke("get", {"key": "s"})
        large = store.invoke("get", {"key": "l"})
        assert large.latency > small.latency

    def test_crossover_between_two_stores(self, transport):
        fast_small = CloudStoreService(
            "s1", transport,
            latency=SizeDependentLatency(base=0.02, slope=2e-5, noise_sigma=0.0))
        fast_large = CloudStoreService(
            "s2", transport,
            latency=SizeDependentLatency(base=0.25, slope=1e-6, noise_sigma=0.0))
        small_payload = {"key": "k", "value": "x" * 100}
        large_payload = {"key": "k", "value": "x" * 100_000}
        # s1 wins on small objects...
        assert (fast_small.invoke("put", small_payload).latency
                < fast_large.invoke("put", small_payload).latency)
        # ...and s2 wins on large ones — the paper's example.
        assert (fast_small.invoke("put", large_payload).latency
                > fast_large.invoke("put", large_payload).latency)


class TestStoresWhatCrossedTheWire:
    """A stored value is the service's own decoded copy: mutating the
    caller's object afterwards does not reach the store."""

    def test_caller_mutation_after_put_is_not_stored(self, client):
        value = {"items": [1, 2]}
        client.invoke("store-standard", "put", {"key": "k", "value": value})
        value["items"].append(3)
        value["extra"] = True
        got = client.invoke("store-standard", "get", {"key": "k"},
                            use_cache=False)
        assert got.value["value"] == {"items": [1, 2]}

    def test_a_tuple_is_stored_as_the_json_array_it_crossed_as(self, client):
        client.invoke("store-standard", "put", {"key": "t", "value": (1, 2)})
        service = client.registry.get("store-standard")
        assert service._data["t"] == [1, 2]
