"""Spans and tracing for the Rich SDK hot path.

A :class:`Span` is one timed operation (an SDK invocation, a failover
attempt, a transport round trip); spans nest into traces via
parent/child links so a slow call can be decomposed into *where* the
time went — cache probe, retry backoff, simulated wire, hedge wait.

Design points:

* **Timing comes from the SDK's** :class:`~repro.util.clock.Clock`
  abstraction, so spans measure *simulated* seconds under a
  :class:`ManualClock` (deterministic tests) and wall seconds under a
  :class:`RealClock` — the same units every other collector in the
  system reports.
* **Context propagation uses contextvars**, and
  :class:`repro.core.aio.runner.LoopRunner` starts each task inside a
  copied context, so a span started before ``invoke_async`` is still
  the parent of spans created on the client's loop thread.
* **Collection is bounded**: the :class:`SpanCollector` keeps the most
  recent ``capacity`` completed spans and counts what it dropped, so a
  long-running client cannot leak memory through its own telemetry.
* **Zero-latency cache hits are counted, not traced**, unless they
  occur inside an active trace (then they appear as zero-duration
  child spans).  This keeps the cache-hit fast path within the
  overhead budget asserted by ``benchmarks/test_obs_overhead.py``.

Span ids are small process-local counters (``t…`` for traces, ``s…``
for spans) rather than random UUIDs: deterministic under a seeded
single-threaded run and much cheaper to mint.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from collections.abc import Mapping
from contextlib import contextmanager
from contextvars import ContextVar

from repro.util.clock import Clock, SYSTEM_CLOCK

#: Attribute key marking what a span's time should be attributed to
#: (see :mod:`repro.obs.attribution`).
CATEGORY_ATTRIBUTE = "obs.category"

_CURRENT_SPAN: ContextVar["Span | None"] = ContextVar(
    "repro_obs_current_span", default=None)


class SpanEvent:
    """A timestamped point annotation inside a span."""

    __slots__ = ("name", "timestamp", "attributes")

    def __init__(self, name: str, timestamp: float,
                 attributes: Mapping[str, object] | None = None) -> None:
        self.name = name
        self.timestamp = timestamp
        self.attributes = dict(attributes) if attributes else {}

    def to_dict(self) -> dict:
        return {"name": self.name, "timestamp": self.timestamp,
                "attributes": self.attributes}


class Span:
    """One timed, attributed operation within a trace."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_time",
                 "end_time", "attributes", "events", "status", "error",
                 "_clock")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: str | None, start_time: float,
                 attributes: Mapping[str, object] | None = None,
                 clock: Clock | None = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_time = start_time
        self.end_time: float | None = None
        self.attributes = dict(attributes) if attributes else {}
        self.events: list[SpanEvent] = []
        self.status = "unset"
        self.error: str | None = None
        self._clock = clock

    @property
    def is_recording(self) -> bool:
        return self.end_time is None

    @property
    def duration(self) -> float | None:
        """Seconds between start and end, or None while still open."""
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    def set_attribute(self, key: str, value: object) -> "Span":
        self.attributes[key] = value
        return self

    def add_event(self, name: str, attributes: Mapping[str, object] | None = None,
                  timestamp: float | None = None) -> SpanEvent:
        if timestamp is None:
            timestamp = self._clock.now() if self._clock is not None else self.start_time
        event = SpanEvent(name, timestamp, attributes)
        self.events.append(event)
        return event

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "attributes": self.attributes,
            "events": [event.to_dict() for event in self.events],
        }


class NullSpan:
    """Shared no-op span handed out when tracing is disabled.

    It is its own context manager, so a disabled tracer's ``span()``
    returns it as is.
    """

    __slots__ = ()

    trace_id = None
    span_id = None
    parent_id = None
    status = "unset"
    error = None
    is_recording = False
    duration = None

    def set_attribute(self, key: str, value: object) -> "NullSpan":
        return self

    def add_event(self, name: str, attributes: Mapping[str, object] | None = None,
                  timestamp: float | None = None) -> None:
        return None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NULL_SPAN = NullSpan()


def _null_span(name: str, attributes: Mapping[str, object] | None = None,
               parent: Span | None | str = "inherit") -> NullSpan:
    return NULL_SPAN


def _record_nothing(*args, **kwargs) -> None:
    return None


class SpanCollector:
    """Bounded, thread-safe store of completed spans with JSONL export."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._spans: deque[Span] = deque()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def add(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.capacity:
                self._spans.popleft()
                self.dropped += 1
            self._spans.append(span)

    def spans(self) -> list[Span]:
        """Completed spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def traces(self) -> dict[str, list[Span]]:
        """Spans grouped by trace id, in collection order."""
        grouped: dict[str, list[Span]] = {}
        for span in self.spans():
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def trace(self, trace_id: str) -> list[Span]:
        return [span for span in self.spans() if span.trace_id == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def export_jsonl(self, path) -> int:
        """Write one JSON object per span to ``path``; returns the count."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")
        return len(spans)


class Tracer:
    """Creates, propagates and collects spans against one clock."""

    def __init__(self, clock: Clock | None = None,
                 collector: SpanCollector | None = None,
                 enabled: bool = True) -> None:
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.collector = collector if collector is not None else SpanCollector()
        self._id_lock = threading.Lock()
        self._next_id = 0
        if not enabled:
            # A disabled tracer records nothing: each entry point is
            # swapped for a no-op, so callers never ask whether tracing
            # is on, and span() returns NULL_SPAN without a generator.
            self.span = self.start_span = _null_span
            self.end_span = self.instant_span = self.add_event = _record_nothing

    def _new_id(self, prefix: str) -> str:
        with self._id_lock:
            self._next_id += 1
            serial = self._next_id
        return f"{prefix}{serial:08x}"

    # -- context ------------------------------------------------------------

    def current_span(self) -> Span | None:
        """The span active in this execution context, if any."""
        return _CURRENT_SPAN.get()

    # -- span lifecycle ------------------------------------------------------

    def start_span(self, name: str,
                   attributes: Mapping[str, object] | None = None,
                   parent: Span | None | str = "inherit") -> Span:
        """Start (but do not activate) a span; pair with :meth:`end_span`.

        By default the parent is the context's current span; pass
        ``parent=None`` to force a new root.
        """
        if parent == "inherit":
            parent = _CURRENT_SPAN.get()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = self._new_id("t"), None
        return Span(name, trace_id, self._new_id("s"), parent_id,
                    self.clock.now(), attributes, clock=self.clock)

    def end_span(self, span: Span, error: BaseException | None = None) -> None:
        """Close a span and hand it to the collector."""
        if error is not None:
            span.status = "error"
            span.error = repr(error)
        elif span.status == "unset":
            span.status = "ok"
        span.end_time = self.clock.now()
        self.collector.add(span)

    @contextmanager
    def span(self, name: str, attributes: Mapping[str, object] | None = None):
        """Context manager: start a span, make it current, end on exit.

        Exceptions mark the span's status ``error`` and re-raise."""
        span = self.start_span(name, attributes)
        token = _CURRENT_SPAN.set(span)
        try:
            yield span
        except BaseException as boom:  # noqa: BLE001 — recorded then re-raised
            span.status = "error"
            span.error = repr(boom)
            raise
        finally:
            _CURRENT_SPAN.reset(token)
            if span.status == "unset":
                span.status = "ok"
            span.end_time = self.clock.now()
            self.collector.add(span)

    def instant_span(self, name: str,
                     attributes: Mapping[str, object] | None = None,
                     timestamp: float | None = None,
                     parent: Span | None | str = "inherit") -> Span | None:
        """Record a zero-duration span (e.g. a cache hit inside a trace).

        Cheaper than :meth:`span`: one timestamp, no contextvar churn.
        Returns None when tracing is disabled.
        """
        if parent == "inherit":
            parent = _CURRENT_SPAN.get()
        if timestamp is None:
            timestamp = self.clock.now()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = self._new_id("t"), None
        span = Span(name, trace_id, self._new_id("s"), parent_id,
                    timestamp, attributes, clock=self.clock)
        span.end_time = timestamp
        span.status = "ok"
        self.collector.add(span)
        return span

    def add_event(self, name: str,
                  attributes: Mapping[str, object] | None = None) -> None:
        """Attach an event to the current span (no-op outside a span)."""
        span = _CURRENT_SPAN.get()
        if span is not None:
            span.add_event(name, attributes)


#: The disabled bundle's tracer, shared: a hook holding it is unbound.
NULL_TRACER = Tracer(enabled=False)
