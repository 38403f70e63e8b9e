"""Tests for the service monitor."""

import sys
import threading
from collections import deque

import pytest

from repro.core.monitoring import InvocationRecord, ServiceMonitor


def record(service="svc", latency=0.1, success=True, cost=0.01, quality=None,
           params=None, timestamp=0.0, error=None):
    return InvocationRecord(
        service=service, operation="op", timestamp=timestamp, latency=latency,
        cost=cost, success=success, error=error,
        latency_params=params or {}, quality=quality,
    )


@pytest.fixture
def monitor():
    return ServiceMonitor()


class TestRecording:
    def test_records_accumulate(self, monitor):
        monitor.record(record())
        monitor.record(record())
        assert monitor.call_count("svc") == 2
        assert monitor.services() == ["svc"]

    def test_bounded_history(self):
        monitor = ServiceMonitor(max_records=3)
        for index in range(10):
            monitor.record(record(latency=float(index)))
        latencies = monitor.latencies("svc")
        assert latencies == [7.0, 8.0, 9.0]

    def test_cached_records_excluded_by_default(self, monitor):
        """A hit is counted, not recorded: the history holds remote calls."""
        remote = record(latency=0.2)
        monitor.record(remote)
        monitor.record_hit("svc")
        assert monitor.call_count("svc") == 1
        assert monitor.hit_count("svc") == 1
        assert monitor.records("svc") == [remote]

    def test_cache_hits_do_not_evict_remote_history(self):
        """Any number of hits leaves the bounded history alone."""
        monitor = ServiceMonitor(max_records=3)
        monitor.record(record(latency=0.2, cost=0.01))
        monitor.record(record(latency=0.4, cost=0.03))
        for _ in range(5):
            monitor.record_hit("svc")
        assert monitor.call_count("svc") == 2
        assert monitor.hit_count("svc") == 5
        assert monitor.mean_latency("svc") == pytest.approx(0.3)
        assert monitor.mean_cost("svc") == pytest.approx(0.02)
        assert monitor.availability("svc") == 1.0

    def test_a_service_served_only_from_cache_is_listed(self, monitor):
        monitor.record_hit("svc")
        assert monitor.services() == ["svc"]
        assert monitor.records("svc") == []
        assert monitor.call_count("svc") == 0
        assert monitor.availability("svc") is None
        assert monitor.hit_count("ghost") == 0

    def test_one_history_per_service(self, monitor):
        monitor.record(record())
        monitor.record_hit("svc")
        monitor.record_hit("other")
        assert "cached" not in InvocationRecord._fields
        record_histories = [
            name for name, value in vars(monitor).items()
            if isinstance(value, dict) and any(
                isinstance(history, deque) and history
                and isinstance(history[0], InvocationRecord)
                for history in value.values())]
        assert record_histories == ["_records"]
        assert list(monitor._records) == ["svc"]

    def test_unknown_service_empty(self, monitor):
        assert monitor.records("ghost") == []
        assert monitor.mean_latency("ghost") is None
        assert monitor.availability("ghost") is None


    def test_concurrent_hits_are_all_counted(self):
        """No hit is lost to a race between threads."""
        monitor = ServiceMonitor()
        per_thread, workers = 5_000, 6

        class Name(str):
            # Hashing in Python gives the interpreter a point to switch
            # threads inside a read-modify-write of the count.
            def __hash__(self):
                return str.__hash__(self)

        def work():
            for _ in range(per_thread):
                monitor.record_hit(Name("svc"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert monitor.hit_count("svc") == per_thread * workers

class TestPerformance:
    def test_mean_latency(self, monitor):
        monitor.record(record(latency=0.1))
        monitor.record(record(latency=0.3))
        assert monitor.mean_latency("svc") == pytest.approx(0.2)

    def test_failures_excluded_from_latency(self, monitor):
        monitor.record(record(latency=0.1))
        monitor.record(record(latency=None, success=False, error="boom"))
        assert monitor.mean_latency("svc") == pytest.approx(0.1)

    def test_latency_stats_percentiles(self, monitor):
        for value in (0.1, 0.2, 0.3, 0.4, 1.0):
            monitor.record(record(latency=value))
        stats = monitor.latency_stats("svc")
        assert stats.count == 5
        assert stats.p95 > stats.p50

    def test_latency_observations_pair_params(self, monitor):
        monitor.record(record(latency=0.1, params={"size": 100.0}))
        monitor.record(record(latency=0.2, params={"size": 200.0}))
        monitor.record(record(latency=0.5))  # no param -> excluded
        assert monitor.latency_observations("svc", "size") == [
            (100.0, 0.1), (200.0, 0.2),
        ]


class TestAvailabilityCostQuality:
    def test_availability(self, monitor):
        monitor.record(record(success=True))
        monitor.record(record(success=False, latency=None))
        monitor.record(record(success=True))
        assert monitor.availability("svc") == pytest.approx(2 / 3)
        assert monitor.failure_count("svc") == 1

    def test_cost_tracking(self, monitor):
        monitor.record(record(cost=0.01))
        monitor.record(record(cost=0.03))
        assert monitor.mean_cost("svc") == pytest.approx(0.02)
        assert monitor.total_cost("svc") == pytest.approx(0.04)

    def test_quality_from_records(self, monitor):
        monitor.record(record(quality=0.8))
        monitor.record(record(quality=0.6))
        monitor.record(record())  # unrated
        assert monitor.mean_quality("svc") == pytest.approx(0.7)

    def test_standalone_ratings(self, monitor):
        monitor.record(record())
        monitor.rate_quality("svc", 0.9)
        monitor.rate_quality("svc", 0.7)
        assert monitor.mean_quality("svc") == pytest.approx(0.8)
        # Ratings do not distort availability or call counts.
        assert monitor.call_count("svc") == 1
        assert monitor.availability("svc") == 1.0

    def test_no_quality_is_none(self, monitor):
        monitor.record(record())
        assert monitor.mean_quality("svc") is None

    def test_summary_shape(self, monitor):
        monitor.record(record())
        summary = monitor.summary("svc")
        assert summary["service"] == "svc"
        assert summary["calls"] == 1
        assert summary["availability"] == 1.0
        assert summary["mean_latency"] == pytest.approx(0.1)
