"""Tests for monitor history persistence."""

import pytest

from repro.core.latency import LatencyPredictor
from repro.core.monitoring import InvocationRecord, ServiceMonitor
from repro.core.ranking import ServiceRanker
from repro.stores.kvstore import FileKeyValueStore, InMemoryKeyValueStore


def seeded_monitor():
    monitor = ServiceMonitor()
    for size in (100, 200, 400, 800, 1600):
        monitor.record(InvocationRecord(
            "store", "put", 0.0, 0.01 + 1e-5 * size, 0.001, True,
            latency_params={"size": float(size)}))
    monitor.record(InvocationRecord("store", "put", 1.0, None, 0.0, False,
                                    error="boom"))
    monitor.rate_quality("store", 0.8)
    return monitor


class TestSaveLoad:
    def test_roundtrip_preserves_statistics(self):
        original = seeded_monitor()
        store = InMemoryKeyValueStore()
        saved = original.save_to(store)
        assert saved == 6

        restored = ServiceMonitor()
        loaded = restored.load_from(store)
        assert loaded == 6
        assert restored.mean_latency("store") == original.mean_latency("store")
        assert restored.availability("store") == original.availability("store")
        assert restored.mean_quality("store") == pytest.approx(0.8)
        assert restored.latency_observations("store", "size") == \
            original.latency_observations("store", "size")

    def test_restored_history_drives_prediction(self):
        store = InMemoryKeyValueStore()
        seeded_monitor().save_to(store)
        restored = ServiceMonitor()
        restored.load_from(store)
        predictor = LatencyPredictor(restored)
        assert predictor.predict("store", {"size": 1000}) == pytest.approx(
            0.01 + 1e-5 * 1000, rel=1e-6)

    def test_file_backed_roundtrip(self, tmp_path):
        store = FileKeyValueStore(tmp_path / "monitor.json")
        seeded_monitor().save_to(store)
        restored = ServiceMonitor()
        assert restored.load_from(FileKeyValueStore(tmp_path / "monitor.json")) == 6

    def test_remote_history_older_than_the_hit_log(self):
        """Hits outnumber the bound; the remote history the ranker reads
        and the hit count both survive a restart."""
        original = ServiceMonitor(max_records=4)
        for at, latency in enumerate((0.1, 0.2, None)):
            original.record(InvocationRecord(
                "store", "get", float(at), latency, 0.002, latency is not None,
                latency_params={"size": 10.0 * at}))
        for _ in range(6):
            original.record_hit("store")
        original.record_hit("cache-only")

        store = InMemoryKeyValueStore()
        assert original.save_to(store) == 3  # hits are counts, not records
        restored = ServiceMonitor(max_records=4)
        assert restored.load_from(store) == 3
        assert restored.records("store") == original.records("store")
        assert restored.services() == ["cache-only", "store"]
        assert (restored.hit_count("store"), restored.hit_count("cache-only")) == (6, 1)
        assert restored.summary("store") == original.summary("store")
        assert restored.mean_latency("store") == pytest.approx(0.15)

    def test_a_payload_with_cached_records_still_loads(self):
        """A payload saved when hits were records, ``"cached"`` key and
        all: remote records come back exactly, each hit as a count."""
        remote = [InvocationRecord("alpha", "analyze", 0.0, 0.2, 0.003, True,
                                   latency_params={"size": 40.0}, quality=0.7,
                                   trace_id="t1"),
                  InvocationRecord("alpha", "analyze", 1.0, None, 0.0, False,
                                   error="boom"),
                  InvocationRecord("beta", "analyze", 2.0, 0.1, 0.001, True)]

        def saved(record, cached=False):
            return {"operation": record.operation, "timestamp": record.timestamp,
                    "latency": record.latency, "cost": record.cost,
                    "success": record.success, "error": record.error,
                    "latency_params": dict(record.latency_params),
                    "quality": record.quality, "cached": cached,
                    "trace_id": record.trace_id}

        hit = InvocationRecord("alpha", "analyze", 3.0, 0.0, 0.0, True)
        store = InMemoryKeyValueStore()
        store.put("monitor", {
            "records": {
                "alpha": [saved(remote[0]), saved(hit, cached=True),
                          saved(remote[1]), saved(hit, cached=True)],
                "beta": [saved(remote[2])],
                "gamma": [saved(hit._replace(service="gamma"), cached=True)],
            },
            "ratings": {"beta": [0.9]},
        })
        restored = ServiceMonitor()
        assert restored.load_from(store) == 3
        assert restored.records("alpha") == remote[:2]
        assert restored.records("beta") == remote[2:]
        assert restored.services() == ["alpha", "beta", "gamma"]
        assert [restored.hit_count(name) for name in ("alpha", "beta", "gamma")] \
            == [2, 0, 1]
        assert restored.records("gamma") == []
        assert restored.mean_quality("beta") == pytest.approx(0.9)

        # The rankings read the same as over the remote records alone.
        expected = ServiceMonitor()
        for record in remote:
            expected.record(record)
        expected.rate_quality("beta", 0.9)
        for formula in ("weighted", "normalized"):
            assert ServiceRanker(restored).rank(("alpha", "beta", "gamma"),
                                                formula=formula) == \
                ServiceRanker(expected).rank(("alpha", "beta", "gamma"),
                                             formula=formula)

    def test_load_from_empty_store(self):
        assert ServiceMonitor().load_from(InMemoryKeyValueStore()) == 0

    def test_client_restart_scenario(self, world):
        """A restarted client ranks correctly from the persisted history."""
        from repro import RichClient, Weights

        first = RichClient(world.registry)
        for provider in ("lexica-prime", "wordsmith-lite"):
            for doc in world.corpus.documents[:5]:
                first.invoke(provider, "analyze", {"text": doc.text},
                             use_cache=False)
        store = InMemoryKeyValueStore()
        first.monitor.save_to(store)
        first.close()

        reborn = RichClient(world.registry, monitor=ServiceMonitor())
        reborn.monitor.load_from(store)
        ranked = reborn.rank_services(
            "nlu", weights=Weights(response_time=1, cost=0, quality=0))
        assert ranked[0][0] == "wordsmith-lite"  # knowledge survived restart
        reborn.close()


class TestNamedTupleRecords:
    def test_default_latency_params_are_one_read_only_mapping(self):
        first = InvocationRecord("s", "op", 0.0, 0.1, 0.0, True)
        second = InvocationRecord("t", "op", 1.0, None, 0.0, False)
        assert first.latency_params is second.latency_params
        assert first.latency_params == {}
        with pytest.raises(TypeError):
            first.latency_params["size"] = 1.0

    def test_file_roundtrip_keeps_records_and_ranking(self, world, tmp_path):
        """Remote calls, hit counts and ratings saved to a file come back
        equal, and the ranker reads the same scores off them."""
        from repro import RichClient

        client = RichClient(world.registry)
        for provider in ("lexica-prime", "glotta", "wordsmith-lite"):
            for doc in world.corpus.documents[:4]:
                client.invoke(provider, "analyze", {"text": doc.text})
            client.invoke(provider, "analyze",
                          {"text": world.corpus.documents[0].text})
        client.monitor.rate_quality("glotta", 0.9)
        path = tmp_path / "monitor.json"
        client.monitor.save_to(FileKeyValueStore(path))

        restored = ServiceMonitor()
        restored.load_from(FileKeyValueStore(path))
        assert restored.services() == client.monitor.services()
        for service in client.monitor.services():
            records = restored.records(service)
            assert records == client.monitor.records(service)
            assert all(isinstance(record, InvocationRecord) for record in records)
            assert restored.hit_count(service) == client.monitor.hit_count(service) == 1
            assert restored.summary(service) == client.monitor.summary(service)
        reborn = RichClient(world.registry, monitor=restored)
        assert reborn.rank_services("nlu") == client.rank_services("nlu")
        reborn.close()
        client.close()
