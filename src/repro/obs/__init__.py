"""repro.obs — tracing and metrics observability for the Rich SDK.

Three pieces, one bundle:

* :mod:`repro.obs.tracing` — :class:`Span`/:class:`Tracer` with
  parent/child context propagation (contextvars, surviving the hop to
  the client's loop thread) and a bounded :class:`SpanCollector` with JSONL export;
* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters, gauges and bucketed histograms with Prometheus-style text
  exposition;
* :mod:`repro.obs.attribution` — a :class:`TraceAnalyzer` that rolls
  completed traces into latency-attribution reports (share of wall
  time in cache / retry-backoff / transport / hedge-wait).

:class:`Observability` bundles one of each around a shared clock and
is what :class:`repro.core.invoker.RichClient` wires through the hot
path.  ``Observability.disabled()`` gives the null bundle for callers
that want zero telemetry overhead: its registry hands out
:data:`NULL_INSTRUMENT` and its tracer is :data:`NULL_TRACER`, so
"telemetry off" is decided here and nowhere else.  :data:`NULL_OBS`
is the one shared null bundle for callers that pass none, and every
instrumented class starts out holding null instruments.
"""

from __future__ import annotations

from repro.obs.attribution import (
    CATEGORY_BACKOFF,
    CATEGORY_CACHE,
    CATEGORY_HEDGE_WAIT,
    CATEGORY_OTHER,
    CATEGORY_TRANSPORT,
    EVENT_BACKOFF,
    EVENT_HEDGE_WAIT,
    TraceAnalyzer,
    TraceAttribution,
    attribute_trace,
)
from repro.obs.metrics import (
    NULL_INSTRUMENT,
    NULL_METRICS,
    BoundCounter,
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
)
from repro.obs.tracing import (
    CATEGORY_ATTRIBUTE,
    NULL_SPAN,
    NULL_TRACER,
    Span,
    SpanCollector,
    SpanEvent,
    Tracer,
)
from repro.util.clock import Clock


class Observability:
    """One tracer + one metrics registry + one span collector.

    All components share ``clock`` so traces, histograms and the
    simulated network agree on what a second is.
    """

    def __init__(self, clock: Clock | None = None, max_spans: int = 4096,
                 enabled: bool = True) -> None:
        self.collector = SpanCollector(capacity=max_spans)
        if enabled:
            self.metrics = MetricsRegistry()
            self.tracer = Tracer(clock=clock, collector=self.collector)
        else:
            # Shared by every disabled bundle, so binding one to a
            # first-binder-wins hook leaves the hook unclaimed.
            self.metrics = NULL_METRICS
            self.tracer = NULL_TRACER

    @classmethod
    def disabled(cls) -> "Observability":
        """The null bundle: its instruments and spans record nothing."""
        return cls(enabled=False)

    def analyzer(self) -> TraceAnalyzer:
        """A latency-attribution analyzer over the collected spans."""
        return TraceAnalyzer(self.collector)


#: The null bundle used where a caller passes none.
NULL_OBS = Observability.disabled()

__all__ = [
    "Observability",
    "NULL_OBS",
    "NULL_METRICS",
    "NULL_INSTRUMENT",
    "NULL_TRACER",
    "Tracer",
    "Span",
    "SpanEvent",
    "SpanCollector",
    "NULL_SPAN",
    "CATEGORY_ATTRIBUTE",
    "MetricsRegistry",
    "Counter",
    "BoundCounter",
    "Gauge",
    "HistogramMetric",
    "TraceAnalyzer",
    "TraceAttribution",
    "attribute_trace",
    "CATEGORY_TRANSPORT",
    "CATEGORY_CACHE",
    "CATEGORY_BACKOFF",
    "CATEGORY_HEDGE_WAIT",
    "CATEGORY_OTHER",
    "EVENT_BACKOFF",
    "EVENT_HEDGE_WAIT",
]
