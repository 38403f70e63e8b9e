"""Span lifecycle, context propagation and the bounded collector."""

import json

import pytest

from repro.obs.tracing import NULL_SPAN, SpanCollector, Tracer
from repro.util.clock import ManualClock


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock, collector=SpanCollector(capacity=100))


class TestSpanLifecycle:
    def test_span_times_off_the_clock(self, tracer, clock):
        with tracer.span("work") as span:
            clock.charge(0.25)
        assert span.duration == pytest.approx(0.25)
        assert span.status == "ok"
        assert not span.is_recording

    def test_nested_spans_share_trace_and_link_parent(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is None
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_roots_get_distinct_traces(self, tracer):
        with tracer.span("first") as first:
            pass
        with tracer.span("second") as second:
            pass
        assert first.trace_id != second.trace_id

    def test_exception_marks_error_and_reraises(self, tracer):
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("doomed") as span:
                raise ValueError("boom")
        assert span.status == "error"
        assert "boom" in span.error
        assert span.end_time is not None
        # The context is restored even on the error path.
        assert tracer.current_span() is None

    def test_events_carry_clock_timestamps(self, tracer, clock):
        with tracer.span("work") as span:
            clock.charge(0.1)
            span.add_event("checkpoint", {"n": 1})
        event = span.events[0]
        assert event.name == "checkpoint"
        assert event.timestamp == pytest.approx(0.1)
        assert event.attributes == {"n": 1}

    def test_add_event_outside_any_span_is_a_noop(self, tracer):
        tracer.add_event("orphan")  # must not raise
        assert len(tracer.collector) == 0

    def test_attributes_round_trip_in_to_dict(self, tracer):
        with tracer.span("work", {"service": "svc"}) as span:
            span.set_attribute("latency", 0.5)
        payload = span.to_dict()
        assert payload["attributes"] == {"service": "svc", "latency": 0.5}
        assert payload["name"] == "work"
        assert payload["trace_id"] == span.trace_id

    def test_start_end_span_manual_pairing(self, tracer, clock):
        span = tracer.start_span("manual")
        clock.charge(1.0)
        tracer.end_span(span)
        assert span.duration == pytest.approx(1.0)
        assert tracer.collector.spans() == [span]

    def test_manual_span_does_not_become_current(self, tracer):
        tracer.start_span("manual")
        assert tracer.current_span() is None

    def test_instant_span_is_zero_duration(self, tracer, clock):
        clock.charge(2.0)
        with tracer.span("parent") as parent:
            span = tracer.instant_span("hit", {"cached": True})
        assert span.duration == 0.0
        assert span.start_time == pytest.approx(2.0)
        assert span.parent_id == parent.span_id
        assert span.trace_id == parent.trace_id


class TestDisabledTracer:
    def test_disabled_span_yields_null_span(self, clock):
        tracer = Tracer(clock=clock, enabled=False)
        with tracer.span("work") as span:
            assert span is NULL_SPAN
            span.set_attribute("ignored", 1)
            span.add_event("ignored")
        assert len(tracer.collector) == 0

    def test_disabled_instant_span_returns_none(self, clock):
        tracer = Tracer(clock=clock, enabled=False)
        assert tracer.instant_span("hit") is None

    def test_disabled_start_and_end_record_nothing(self, clock):
        tracer = Tracer(clock=clock, enabled=False)
        span = tracer.start_span("work", {"ignored": 1})
        assert span is NULL_SPAN
        tracer.end_span(span)
        tracer.end_span(span, RuntimeError("boom"))
        assert len(tracer.collector) == 0

    def test_disabled_span_is_the_null_span_itself(self, clock):
        # No generator-based context manager on the null path.
        tracer = Tracer(clock=clock, enabled=False)
        assert tracer.span("work", {"ignored": 1}) is NULL_SPAN
        with pytest.raises(ValueError):
            with tracer.span("work"):
                raise ValueError("propagates")


class TestSpanCollector:
    def test_capacity_evicts_oldest_and_counts_drops(self, clock):
        collector = SpanCollector(capacity=3)
        tracer = Tracer(clock=clock, collector=collector)
        for index in range(5):
            with tracer.span(f"span-{index}"):
                pass
        assert len(collector) == 3
        assert collector.dropped == 2
        assert [span.name for span in collector.spans()] == [
            "span-2", "span-3", "span-4"]

    def test_traces_groups_by_trace_id(self, clock):
        tracer = Tracer(clock=clock)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        with tracer.span("lone"):
            pass
        traces = tracer.collector.traces()
        assert len(traces) == 2
        sizes = sorted(len(spans) for spans in traces.values())
        assert sizes == [1, 2]

    def test_export_jsonl(self, tmp_path, clock):
        tracer = Tracer(clock=clock)
        with tracer.span("root", {"k": "v"}):
            clock.charge(0.5)
        path = tmp_path / "spans.jsonl"
        written = tracer.collector.export_jsonl(path)
        assert written == 1
        lines = path.read_text().splitlines()
        payload = json.loads(lines[0])
        assert payload["name"] == "root"
        assert payload["duration"] == pytest.approx(0.5)

    def test_clear_resets_spans_and_dropped(self, clock):
        collector = SpanCollector(capacity=1)
        tracer = Tracer(clock=clock, collector=collector)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert collector.dropped == 1
        collector.clear()
        assert len(collector) == 0
        assert collector.dropped == 0

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            SpanCollector(capacity=0)


class TestContextPropagation:
    def test_span_survives_callback_executor(self):
        """A span open at ``invoke_async`` time parents the spans started
        on the client's loop thread."""
        from repro import RichClient, build_world

        world = build_world(seed=42, corpus_size=20)
        client = RichClient(world.registry)
        tracer = client.obs.tracer
        service = world.service("lexica-prime")
        original = service.ainvoke
        observed = {}

        async def on_loop_thread(operation, payload, timeout=None):
            with tracer.span("pooled") as span:
                observed["parent_id"] = span.parent_id
                observed["trace_id"] = span.trace_id
            return await original(operation, payload, timeout=timeout)

        service.ainvoke = on_loop_thread
        try:
            with tracer.span("submitting") as root:
                client.invoke_async("lexica-prime", "analyze",
                                    {"text": "IBM rose."}).get(timeout=5.0)
        finally:
            client.close()
        parents = {span.span_id: span.parent_id
                   for span in client.obs.collector.spans()}
        chain = [observed["parent_id"]]
        while chain[-1] in parents:
            chain.append(parents[chain[-1]])
        assert observed["trace_id"] == root.trace_id
        assert root.span_id in chain  # under sdk.invoke, under the root

    def test_ids_are_deterministic_counters(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("first") as first:
            pass
        assert first.trace_id == "t00000001"
        assert first.span_id == "s00000002"
