"""The obs bundle wired through the RichClient, gateway and async path."""

import pytest

from repro import RichClient, build_world
from repro.core.gateway import SdkGateway
from repro.core.ratelimit import ServiceRateLimiter
from repro.obs import Observability
from repro.util.clock import ManualClock

TEXT = {"text": "Acme Corp shares rallied in Paris."}


@pytest.fixture
def gateway(client):
    return SdkGateway(client)


class TestInvokeTracing:
    def test_invoke_produces_span_and_trace_id_in_monitor(self, client):
        client.invoke("lexica-prime", "analyze", TEXT)
        spans = client.obs.collector.spans()
        invokes = [span for span in spans if span.name == "sdk.invoke"]
        assert len(invokes) == 1
        span = invokes[0]
        assert span.attributes["service"] == "lexica-prime"
        assert span.status == "ok"
        assert span.attributes["latency"] > 0.0
        record = client.monitor.records("lexica-prime")[-1]
        assert record.trace_id == span.trace_id

    def test_transport_span_nests_under_invoke(self, client):
        client.invoke("lexica-prime", "analyze", TEXT)
        spans = client.obs.collector.spans()
        transport = next(span for span in spans if span.name == "transport.call")
        invoke = next(span for span in spans if span.name == "sdk.invoke")
        assert transport.parent_id == invoke.span_id
        assert transport.trace_id == invoke.trace_id
        assert transport.attributes["obs.category"] == "transport"
        assert transport.duration == pytest.approx(
            invoke.attributes["latency"])

    def test_standalone_cache_hit_emits_no_span(self, client):
        client.invoke("lexica-prime", "analyze", TEXT)
        before = len(client.obs.collector)
        hit = client.invoke("lexica-prime", "analyze", TEXT)
        assert hit.cached
        assert len(client.obs.collector) == before
        # ...but the hit is still counted.
        assert client.obs.metrics.counter("cache_hits_total").total() == 1.0

    def test_cache_hit_inside_a_trace_becomes_instant_span(self, client):
        client.invoke("lexica-prime", "analyze", TEXT)
        with client.obs.tracer.span("app.request") as root:
            client.invoke("lexica-prime", "analyze", TEXT)
        cached = [span for span in client.obs.collector.spans()
                  if span.attributes.get("cached")]
        assert len(cached) == 1
        assert cached[0].trace_id == root.trace_id
        assert cached[0].duration == 0.0
        # The hit is a count in the monitor, not a record.
        assert client.monitor.hit_count("lexica-prime") == 1
        assert client.monitor.call_count("lexica-prime") == 1

    def test_failed_invoke_records_error_span(self, client, world):
        from repro.services.base import ScriptedFailures
        from repro.simnet.errors import RemoteServiceError

        world.registry.get("glotta").failures = ScriptedFailures({0})
        with pytest.raises(RemoteServiceError):
            client.invoke("glotta", "analyze", TEXT)
        span = next(span for span in client.obs.collector.spans()
                    if span.name == "sdk.invoke")
        assert span.status == "error"
        assert "glotta" in span.error

    def test_disabled_obs_collects_nothing(self, world):
        client = RichClient(world.registry, obs=Observability.disabled())
        try:
            client.invoke("lexica-prime", "analyze", TEXT)
            client.invoke("lexica-prime", "analyze", TEXT)
            assert len(client.obs.collector) == 0
            assert client.obs.metrics.names() == []
        finally:
            client.close()


class TestMetricsReconciliation:
    def test_counters_match_monitor_aggregates(self, client, world):
        from repro.services.base import ScriptedFailures
        from repro.simnet.errors import RemoteServiceError

        world.registry.get("glotta").failures = ScriptedFailures({0})
        client.invoke("lexica-prime", "analyze", TEXT)
        client.invoke("lexica-prime", "analyze", TEXT)  # cache hit
        with pytest.raises(RemoteServiceError):
            client.invoke("glotta", "analyze", TEXT)

        counter = client.obs.metrics.counter("sdk_invocations_total")
        monitor = client.monitor
        for service in monitor.services():
            records = monitor.records(service)
            expected = {
                "success": sum(1 for r in records if r.success),
                "failure": sum(1 for r in records if not r.success),
                "cached": monitor.hit_count(service),
            }
            for outcome, count in expected.items():
                assert counter.value(service=service, outcome=outcome) == count

        histogram = client.obs.metrics.get("sdk_invocation_latency_seconds")
        assert histogram.count(service="lexica-prime") == 1
        assert histogram.sum(service="lexica-prime") == pytest.approx(
            sum(monitor.latencies("lexica-prime")))

    def test_cache_counters_track_cache_stats(self, client):
        client.invoke("lexica-prime", "analyze", TEXT)
        client.invoke("lexica-prime", "analyze", TEXT)
        client.invoke("lexica-prime", "analyze", {"text": "other text"})
        metrics = client.obs.metrics
        stats = client.cache.stats
        assert metrics.counter("cache_hits_total").total() == stats.hits
        assert metrics.counter("cache_misses_total").total() == stats.misses

    def test_transport_counters_track_transport_stats(self, client, world):
        client.invoke("lexica-prime", "analyze", TEXT)
        client.invoke("goggle", "search", {"query": "acme"})
        metrics = client.obs.metrics
        stats = world.transport.stats
        calls = metrics.counter("transport_calls_total")
        assert calls.total() == stats.calls
        assert calls.value(endpoint="lexica-prime") == 1
        assert metrics.counter(
            "transport_bytes_sent_total").total() == stats.bytes_sent
        assert metrics.counter(
            "transport_bytes_received_total").total() == stats.bytes_received


class TestAsyncPropagation:
    def test_async_invoke_inherits_parent_span(self, client):
        """A span current at submit time parents the pool-thread spans."""
        with client.obs.tracer.span("app.request") as root:
            client.invoke_async("lexica-prime", "analyze", TEXT).get(timeout=10.0)
        invoke = next(span for span in client.obs.collector.spans()
                      if span.name == "sdk.invoke")
        assert invoke.trace_id == root.trace_id
        assert invoke.parent_id == root.span_id

    def test_raising_listener_does_not_poison_future_or_executor(self, client):
        future = client.invoke_async("lexica-prime", "analyze", TEXT)
        results = []

        def bad_listener(completed):
            raise RuntimeError("listener bug")

        def good_listener(completed):
            results.append(completed.get())

        future.add_listener(bad_listener)
        future.add_listener(good_listener)
        value = future.get(timeout=10.0)
        assert value.value is not None
        # The bad listener was quarantined, the good one still ran.
        assert len(future.listener_errors) == 1
        assert isinstance(future.listener_errors[0], RuntimeError)
        assert results and results[0] is value
        # The executor still works afterwards.
        again = client.invoke_async("glotta", "analyze", TEXT)
        assert again.get(timeout=10.0).service == "glotta"


class TestGateway:
    def test_metrics_method_returns_exposition_and_snapshot(self, client, gateway):
        client.invoke("lexica-prime", "analyze", TEXT)
        response = gateway.handle({"method": "metrics"})
        assert response["status"] == 200
        assert "sdk_invocations_total" in response["result"]["exposition"]
        assert "sdk_invocations_total" in response["result"]["metrics"]

    def test_traces_method_returns_collected_spans(self, client, gateway):
        client.invoke("lexica-prime", "analyze", TEXT)
        response = gateway.handle({"method": "traces"})
        assert response["status"] == 200
        traces = response["result"]["traces"]
        assert len(traces) == 1
        names = {span["name"] for span in traces[0]["spans"]}
        assert {"sdk.invoke", "transport.call"} <= names
        assert response["result"]["dropped_spans"] == 0

    def test_traces_method_honours_limit(self, client, gateway):
        client.invoke("lexica-prime", "analyze", TEXT)
        client.invoke("goggle", "search", {"query": "acme"})
        response = gateway.handle({"method": "traces", "params": {"limit": 1}})
        assert len(response["result"]["traces"]) == 1

    def test_attribution_method_reports_transport_share(self, client, gateway):
        client.invoke("lexica-prime", "analyze", TEXT)
        response = gateway.handle({"method": "attribution"})
        assert response["status"] == 200
        aggregate = response["result"]["aggregate"]
        assert aggregate["traces"] == 1
        assert aggregate["shares"]["transport"] == pytest.approx(1.0)

    def test_rate_limit_maps_to_429_with_retry_after(self, world):
        limiter = ServiceRateLimiter(world.clock)
        limiter.configure("lexica-prime", rate=0.5, burst=1)
        client = RichClient(world.registry, rate_limiter=limiter)
        gateway = SdkGateway(client)
        request = {"method": "invoke",
                   "params": {"service": "lexica-prime",
                              "operation": "analyze", "payload": TEXT,
                              "use_cache": False}}
        try:
            assert gateway.handle(request)["status"] == 200
            throttled = gateway.handle(request)
            assert throttled["status"] == 429
            assert throttled["error_type"] == "RateLimitExceededError"
            # The bucket refills at 0.5 permits/s, so the next permit is
            # strictly less than 2 simulated seconds away.
            assert 0.0 < throttled["retry_after"] <= 2.0
        finally:
            client.close()

    def test_circuit_open_maps_to_429_with_retry_after(self, client, gateway,
                                                       monkeypatch):
        from repro.core.circuitbreaker import CircuitOpenError

        def tripped(params):
            raise CircuitOpenError("lexica-prime",
                                   retry_at=client.clock.now() + 7.5)

        monkeypatch.setattr(gateway, "_method_invoke", tripped)
        response = gateway.handle({"method": "invoke", "params": {}})
        assert response["status"] == 429
        assert response["error_type"] == "CircuitOpenError"
        assert response["retry_after"] == pytest.approx(7.5)

    def test_budget_exceeded_still_429_without_retry_after(self, client, gateway):
        client.quota.set_budget("lexica-prime", max_calls=0)
        response = gateway.handle(
            {"method": "invoke",
             "params": {"service": "lexica-prime", "operation": "analyze",
                        "payload": TEXT}})
        assert response["status"] == 429
        assert "retry_after" not in response


class TestKbPipeline:
    def test_pipeline_spans_and_counters(self):
        from repro.kb.pipeline import AnalysisPipeline

        obs = Observability(clock=ManualClock())
        pipeline = AnalysisPipeline(obs=obs)
        pipeline.analyze_series(
            "acme", [0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0],
            series_name="revenue", entity_type="Company")
        derived = pipeline.infer()
        assert derived > 0
        names = [span.name for span in obs.collector.spans()]
        assert "kb.analyze_series" in names
        assert "kb.infer" in names
        infer_span = next(span for span in obs.collector.spans()
                          if span.name == "kb.infer")
        assert infer_span.attributes["facts_derived"] == derived
        assert obs.metrics.counter(
            "kb_series_analyzed_total").total() == 1.0
        assert obs.metrics.counter(
            "kb_facts_inferred_total").total() == derived
