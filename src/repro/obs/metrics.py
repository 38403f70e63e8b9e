"""Fleet-level metrics: counters, gauges and bucketed histograms.

The Rich SDK "collect[s] data on services related to performance,
availability, and the quality and accuracy of responses"; the
:class:`ServiceMonitor` keeps the per-call records, and this module
keeps the *aggregate* view a fleet operator scrapes: monotonic
counters, point-in-time gauges and bucketed latency histograms, all
thread-safe and renderable as Prometheus-style text exposition.

Histogram buckets are built on :class:`repro.analytics.histogram.Histogram`
(equal-width bins plus under/overflow), so the same distribution a user
compares interactively is what gets exported.

Hot-path note: ``Counter.bind`` / ``Histogram`` label resolution happens
once, up front; the per-call cost of an increment is one small lock and
one float add, which is what lets the SDK keep its cache-hit fast path
within the observability overhead budget (see
``benchmarks/test_obs_overhead.py``).
"""

from __future__ import annotations

import threading
from collections.abc import Mapping

from repro.analytics.histogram import Histogram
from repro.util.errors import ConfigurationError

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonical, hashable form of a label set."""
    if not labels:
        return ()
    return tuple(sorted((str(name), str(value)) for name, value in labels.items()))


def _format_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{name}="{value}"' for name, value in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Metric:
    """Common naming/locking for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, description: str = "") -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ConfigurationError(f"invalid metric name {name!r}")
        self.name = name
        self.description = description
        self._lock = threading.Lock()

    def header_lines(self) -> list[str]:
        lines = []
        if self.description:
            lines.append(f"# HELP {self.name} {self.description}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class BoundCounter:
    """A counter pre-resolved to one label set — the hot-path handle.

    ``inc`` is a single ``list.append`` (atomic under the GIL, no lock):
    increments accumulate in a pending cell that the owning counter
    drains lazily on any read.  This is what keeps counted-but-untraced
    cache hits inside the SDK's observability overhead budget.
    """

    __slots__ = ("_pending",)

    def __init__(self, counter: "Counter", key: LabelKey) -> None:
        self._pending = counter._pending_cell(key)

    def inc(self, amount: float = 1.0) -> None:
        self._pending.append(amount)


class Counter(Metric):
    """Monotonically increasing count, optionally partitioned by labels."""

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self._values: dict[LabelKey, float] = {}
        # One shared append-only cell per label set for BoundCounters.
        self._pending: dict[LabelKey, list[float]] = {}

    def _pending_cell(self, key: LabelKey) -> list[float]:
        with self._lock:
            return self._pending.setdefault(key, [])

    def _drain(self) -> None:
        """Fold pending bound increments into _values.  Caller holds the
        lock; appends racing this are safe (they only extend the tail,
        and exactly the summed prefix is deleted)."""
        for key, cell in self._pending.items():
            count = len(cell)
            if count:
                self._values[key] = self._values.get(key, 0.0) + sum(cell[:count])
                del cell[:count]

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative, got {amount}")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def bind(self, **labels: object) -> BoundCounter:
        """Pre-resolve one label set for cheap repeated increments."""
        return BoundCounter(self, _label_key(labels))

    def value(self, **labels: object) -> float:
        key = _label_key(labels)
        with self._lock:
            self._drain()
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        with self._lock:
            self._drain()
            return sum(self._values.values())

    def series(self) -> dict[LabelKey, float]:
        with self._lock:
            self._drain()
            return dict(self._values)

    def render_lines(self) -> list[str]:
        lines = self.header_lines()
        series = self.series()
        for key in sorted(series):
            lines.append(f"{self.name}{_format_labels(key)} {series[key]:g}")
        if not series:
            lines.append(f"{self.name} 0")
        return lines


class Gauge(Metric):
    """A value that can go up and down (pool depth, open circuits, ...)."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def series(self) -> dict[LabelKey, float]:
        with self._lock:
            return dict(self._values)

    def render_lines(self) -> list[str]:
        lines = self.header_lines()
        series = self.series()
        for key in sorted(series):
            lines.append(f"{self.name}{_format_labels(key)} {series[key]:g}")
        if not series:
            lines.append(f"{self.name} 0")
        return lines


class _HistogramCell:
    """One label set's distribution: an analytics Histogram plus a sum."""

    __slots__ = ("histogram", "sum")

    def __init__(self, low: float, high: float, bins: int) -> None:
        self.histogram = Histogram(low, high, bins)
        self.sum = 0.0


class HistogramMetric(Metric):
    """Bucketed distribution with Prometheus cumulative-bucket exposition.

    Buckets reuse :class:`repro.analytics.histogram.Histogram`: equal-width
    bins over ``[low, high]``; values below ``low`` land in the first
    cumulative bucket, values above ``high`` only in ``+Inf``.
    """

    kind = "histogram"

    def __init__(self, name: str, description: str = "",
                 low: float = 0.0, high: float = 1.0, bins: int = 20) -> None:
        super().__init__(name, description)
        self.low = low
        self.high = high
        self.bins = bins
        self._cells: dict[LabelKey, _HistogramCell] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                cell = _HistogramCell(self.low, self.high, self.bins)
                self._cells[key] = cell
            cell.histogram.add(value)
            cell.sum += value

    def count(self, **labels: object) -> int:
        with self._lock:
            cell = self._cells.get(_label_key(labels))
            return cell.histogram.total if cell else 0

    def sum(self, **labels: object) -> float:
        with self._lock:
            cell = self._cells.get(_label_key(labels))
            return cell.sum if cell else 0.0

    def buckets(self, **labels: object) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending with +Inf."""
        with self._lock:
            cell = self._cells.get(_label_key(labels))
            if cell is None:
                return [(float("inf"), 0)]
            return self._cumulative(cell)

    @staticmethod
    def _cumulative(cell: _HistogramCell) -> list[tuple[float, int]]:
        histogram = cell.histogram
        edges = histogram.bin_edges()[1:]
        running = histogram.underflow
        pairs = []
        for edge, count in zip(edges, histogram.counts):
            running += count
            pairs.append((edge, running))
        pairs.append((float("inf"), histogram.total))
        return pairs

    def series(self) -> dict[LabelKey, _HistogramCell]:
        with self._lock:
            return dict(self._cells)

    def render_lines(self) -> list[str]:
        lines = self.header_lines()
        for key in sorted(self.series()):
            with self._lock:
                cell = self._cells[key]
                pairs = self._cumulative(cell)
                total, observed_sum = cell.histogram.total, cell.sum
            for edge, cumulative in pairs:
                label = "+Inf" if edge == float("inf") else f"{edge:g}"
                le = f'le="{label}"'
                lines.append(
                    f"{self.name}_bucket"
                    f"{_format_labels(key, extra=le)} {cumulative}")
            lines.append(f"{self.name}_sum{_format_labels(key)} {observed_sum:g}")
            lines.append(f"{self.name}_count{_format_labels(key)} {total}")
        return lines


class NullInstrument:
    """What an unbound hook holds: every update is a no-op.

    One shared instance stands in for a counter, a bound counter, a
    gauge and a histogram, so instrumented code increments, sets and
    observes without asking whether telemetry is on.
    """

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def bind(self, **labels: object) -> "NullInstrument":
        return self


NULL_INSTRUMENT = NullInstrument()


class MetricsRegistry:
    """Named instruments, created on first use and scraped as one page."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind: str) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {kind}")
            return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, description), "counter")

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(
            name, lambda: Gauge(name, description), "gauge")

    def histogram(self, name: str, description: str = "",
                  low: float = 0.0, high: float = 1.0,
                  bins: int = 20) -> HistogramMetric:
        return self._get_or_create(
            name, lambda: HistogramMetric(name, description, low, high, bins),
            "histogram")

    def get(self, name: str) -> Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def render(self) -> str:
        """Prometheus-style text exposition of every registered metric."""
        lines: list[str] = []
        for name in self.names():
            metric = self.get(name)
            lines.extend(metric.render_lines())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-safe dump: the gateway's ``metrics`` method returns this."""
        out: dict[str, dict] = {}
        for name in self.names():
            metric = self.get(name)
            entry: dict[str, object] = {
                "kind": metric.kind, "description": metric.description}
            if isinstance(metric, (Counter, Gauge)):
                entry["values"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(metric.series().items())
                ]
            elif isinstance(metric, HistogramMetric):
                entry["values"] = [
                    {
                        "labels": dict(key),
                        "count": cell.histogram.total,
                        "sum": cell.sum,
                        "buckets": [
                            {"le": ("+Inf" if edge == float("inf") else edge),
                             "count": cumulative}
                            for edge, cumulative in metric._cumulative(cell)
                        ],
                    }
                    for key, cell in sorted(metric.series().items())
                ]
            out[name] = entry
        return out


class NullMetricsRegistry(MetricsRegistry):
    """The disabled bundle's registry: it registers nothing and hands
    out :data:`NULL_INSTRUMENT` for every name, so it always scrapes
    empty."""

    def _get_or_create(self, name: str, factory, kind: str) -> NullInstrument:
        return NULL_INSTRUMENT


NULL_METRICS = NullMetricsRegistry()
