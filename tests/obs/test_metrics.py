"""Counters, gauges, histograms and the Prometheus-style exposition."""

import threading

import pytest

from repro.obs.metrics import Counter, Gauge, HistogramMetric, MetricsRegistry
from repro.util.errors import ConfigurationError


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("requests_total")
        counter.inc()
        counter.inc(2.0)
        assert counter.value() == 3.0

    def test_labels_partition_the_series(self):
        counter = Counter("calls_total")
        counter.inc(service="a")
        counter.inc(service="a")
        counter.inc(service="b")
        assert counter.value(service="a") == 2.0
        assert counter.value(service="b") == 1.0
        assert counter.total() == 3.0

    def test_label_order_is_canonical(self):
        counter = Counter("c_total")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2.0
        assert len(counter.series()) == 1

    def test_negative_increment_rejected(self):
        counter = Counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_bound_counter_hits_same_series(self):
        counter = Counter("c_total")
        bound = counter.bind(service="svc")
        bound.inc()
        bound.inc(4.0)
        assert counter.value(service="svc") == 5.0

    def test_render_includes_help_type_and_labels(self):
        counter = Counter("hits_total", "Cache hits.")
        counter.inc(3, service="svc")
        lines = counter.render_lines()
        assert "# HELP hits_total Cache hits." in lines
        assert "# TYPE hits_total counter" in lines
        assert 'hits_total{service="svc"} 3' in lines

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter("bad name!")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("pool_depth")
        gauge.set(5)
        gauge.inc()
        gauge.inc(-2)
        assert gauge.value() == 4.0


class TestHistogram:
    def test_cumulative_buckets_end_with_inf(self):
        histogram = HistogramMetric("latency_seconds", low=0.0, high=1.0, bins=4)
        for value in (0.1, 0.3, 0.6, 0.9, 5.0):
            histogram.observe(value)
        buckets = histogram.buckets()
        assert buckets[-1] == (float("inf"), 5)
        # Cumulative counts never decrease.
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        # 0.1 lands at or below the 0.25 edge; the overflow (5.0) only
        # appears in +Inf.
        assert buckets[0] == (0.25, 1)
        assert buckets[-2][1] == 4

    def test_underflow_folds_into_first_bucket(self):
        histogram = HistogramMetric("h", low=1.0, high=2.0, bins=2)
        histogram.observe(0.5)
        buckets = histogram.buckets()
        assert buckets[0][1] == 1

    def test_sum_and_count(self):
        histogram = HistogramMetric("h", low=0.0, high=1.0, bins=2)
        histogram.observe(0.25, service="a")
        histogram.observe(0.5, service="a")
        assert histogram.count(service="a") == 2
        assert histogram.sum(service="a") == pytest.approx(0.75)
        assert histogram.count(service="other") == 0

    def test_render_has_bucket_sum_count_lines(self):
        histogram = HistogramMetric("h", "desc", low=0.0, high=1.0, bins=2)
        histogram.observe(0.25)
        lines = histogram.render_lines()
        assert any(line.startswith('h_bucket{le="0.5"} ') for line in lines)
        assert any(line.startswith('h_bucket{le="+Inf"} ') for line in lines)
        assert any(line.startswith("h_sum") for line in lines)
        assert any(line.startswith("h_count") for line in lines)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "desc")
        second = registry.counter("c_total")
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ConfigurationError):
            registry.gauge("m")

    def test_render_concatenates_all_metrics(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "A.").inc()
        registry.gauge("b").set(2)
        text = registry.render()
        assert "# TYPE a_total counter" in text
        assert "# TYPE b gauge" in text
        assert text.endswith("\n")

    def test_snapshot_is_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.counter("a_total").inc(service="x")
        registry.histogram("h_seconds", low=0.0, high=1.0, bins=2).observe(0.3)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        assert "a_total" in snapshot
        assert "h_seconds" in snapshot

    def test_concurrent_increments_do_not_lose_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        bound = counter.bind(worker="w")

        def hammer():
            for _ in range(1000):
                bound.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(worker="w") == 8000.0
