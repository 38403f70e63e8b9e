"""Tests for the service monitor."""

import pytest

from repro.core.monitoring import InvocationRecord, ServiceMonitor


def record(service="svc", latency=0.1, success=True, cost=0.01, quality=None,
           params=None, cached=False, timestamp=0.0, error=None):
    return InvocationRecord(
        service=service, operation="op", timestamp=timestamp, latency=latency,
        cost=cost, success=success, error=error,
        latency_params=params or {}, quality=quality, cached=cached,
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
        monitor.record(record(latency=0.2))
        monitor.record(record(latency=0.0, cached=True))
        assert monitor.call_count("svc") == 1
        assert monitor.records("svc", include_cached=True)[1].cached

    def test_cache_hits_do_not_evict_remote_history(self):
        """Hits and remote observations are bounded separately."""
        monitor = ServiceMonitor(max_records=3)
        monitor.record(record(latency=0.2, cost=0.01))
        monitor.record(record(latency=0.4, cost=0.03))
        hits = [record(latency=0.0, cost=0.0, cached=True, timestamp=float(at))
                for at in range(3)]
        for hit in hits:
            monitor.record(hit)
        assert monitor.call_count("svc") == 2
        assert monitor.mean_latency("svc") == pytest.approx(0.3)
        assert monitor.mean_cost("svc") == pytest.approx(0.02)
        # The any-kind log: the most recent max_records, in arrival order.
        assert monitor.records("svc", include_cached=True) == hits

    def test_unknown_service_empty(self, monitor):
        assert monitor.records("ghost") == []
        assert monitor.mean_latency("ghost") is None
        assert monitor.availability("ghost") is None


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

    def test_latency_histogram(self, monitor):
        for value in (0.1, 0.1, 0.9):
            monitor.record(record(latency=value))
        histogram = monitor.latency_histogram("svc", bins=4)
        assert histogram.total == 3

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
