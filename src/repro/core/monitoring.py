"""Service monitoring and data collection.

"Our rich SDK can collect data on services related to performance,
availability, and the quality and accuracy of responses."  The monitor
records one :class:`InvocationRecord` per remote call — latency,
monetary cost, success/failure, the request's latency parameters, and
an optional user-assigned quality rating — and answers the aggregate
questions the ranking and prediction layers ask: mean/percentile
latency, availability, mean cost, mean quality, latency histograms,
and (parameter, latency) histories for regression.  A cache hit or a
stale serve never reaches the service, so it is no observation of it:
the monitor only counts those.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from repro.analytics.stats import DescriptiveStats, describe
from repro.obs import NULL_METRICS, names


#: The latency parameters of a record that has none: one shared,
#: read-only empty mapping instead of a new dict per record.
_NO_LATENCY_PARAMS: Mapping[str, float] = MappingProxyType({})


class InvocationRecord(NamedTuple):
    """One observed service invocation.

    A named tuple: one is built per served item, so it must be cheap.
    """

    service: str
    operation: str
    timestamp: float
    latency: float | None  # None when the call failed before completing
    cost: float
    success: bool
    error: str | None = None
    latency_params: Mapping[str, float] = _NO_LATENCY_PARAMS
    quality: float | None = None
    trace_id: str | None = None  # cross-reference into repro.obs traces


def _saved(record: InvocationRecord) -> dict:
    """A record as :meth:`ServiceMonitor.save_to` stores it: every field
    but the service, which keys its history."""
    fields = record._asdict()
    del fields["service"]
    fields["latency_params"] = dict(record.latency_params)
    return fields


class ServiceMonitor:
    """Bounded per-service history of remote invocation records.

    ``max_records`` bounds each service's history, evicting its oldest
    record first (the recent past predicts better anyway); every
    aggregate, the ranker and the predictor read it.  Answers served
    locally — cache hits and stale serves — are counts beside it
    (:meth:`record_hit`), so they never evict an observation of the
    service and an aggregate never scans one.
    """

    def __init__(self, max_records: int = 10_000) -> None:
        if max_records <= 0:
            raise ValueError(f"max_records must be positive, got {max_records}")
        self.max_records = max_records
        self._records: dict[str, deque[InvocationRecord]] = {}
        self._hits: Counter[str] = Counter()
        self._ratings: dict[str, deque[float]] = {}
        self._lock = threading.Lock()
        # Metrics mirroring (bind_metrics): record() and record_hit() are
        # the choke points every invocation passes through, so
        # incrementing here is what guarantees monitor and metrics can
        # never disagree.
        self._bound_counters: dict[tuple[str, str], object] = {}
        self.bind_metrics(NULL_METRICS)

    def bind_metrics(self, registry) -> None:
        """Mirror per-service success/failure/cached counts and latency
        histograms into a MetricsRegistry."""
        self._metric_invocations = registry.counter(
            names.SDK_INVOCATIONS_TOTAL,
            "SDK invocations by service and outcome (success/failure/cached).")
        self._metric_latency = registry.histogram(
            names.SDK_INVOCATION_LATENCY_SECONDS,
            "Observed latency of successful remote invocations.",
            low=0.0, high=2.0, bins=20)
        self._bound_counters.clear()  # drop binds into any previous registry

    def _outcome_counter(self, service: str, outcome: str):
        key = (service, outcome)
        bound = self._bound_counters.get(key)
        if bound is None:
            bound = self._metric_invocations.bind(service=service, outcome=outcome)
            self._bound_counters[key] = bound
        return bound

    def record(self, record: InvocationRecord) -> None:
        """Append one observation of a remote call."""
        with self._lock:
            history = self._records.get(record.service)
            if history is None:  # one bounded deque per service, not per record
                history = self._records[record.service] = deque(
                    maxlen=self.max_records)
            history.append(record)
        self._outcome_counter(
            record.service, "success" if record.success else "failure").inc()
        if record.success and record.latency is not None:
            self._metric_latency.observe(record.latency, service=record.service)

    def record_hit(self, service: str) -> None:
        """Count one answer served locally (a cache hit or a stale serve)."""
        with self._lock:
            self._hits[service] += 1
        self._outcome_counter(service, "cached").inc()

    def services(self) -> list[str]:
        """Names of every service with a record or a hit."""
        with self._lock:
            return sorted(self._records.keys() | self._hits.keys())

    def records(self, service: str) -> list[InvocationRecord]:
        """This service's remote history, in arrival order."""
        with self._lock:
            return list(self._records.get(service, ()))

    def call_count(self, service: str) -> int:
        """Remote calls recorded (cache hits excluded)."""
        return len(self.records(service))

    def hit_count(self, service: str) -> int:
        """Answers served locally: cache hits and stale serves."""
        with self._lock:
            return self._hits[service]

    # -- performance --------------------------------------------------------

    def latencies(self, service: str) -> list[float]:
        """Observed latencies of successful calls."""
        return [
            record.latency
            for record in self.records(service)
            if record.success and record.latency is not None
        ]

    def mean_latency(self, service: str) -> float | None:
        """Average observed latency, or None with no successful calls."""
        values = self.latencies(service)
        return sum(values) / len(values) if values else None

    def latency_stats(self, service: str) -> DescriptiveStats | None:
        """Descriptive stats over observed latencies, or None."""
        values = self.latencies(service)
        return describe(values) if values else None

    def latency_observations(
        self, service: str, param: str
    ) -> list[tuple[float, float]]:
        """(parameter value, latency) pairs for regression."""
        pairs = []
        for record in self.records(service):
            if record.success and record.latency is not None and param in record.latency_params:
                pairs.append((float(record.latency_params[param]), record.latency))
        return pairs

    # -- availability ---------------------------------------------------------

    def availability(self, service: str) -> float | None:
        """Fraction of calls that succeeded, or None with no history."""
        history = self.records(service)
        if not history:
            return None
        return sum(1 for record in history if record.success) / len(history)

    def failure_count(self, service: str) -> int:
        """Failed remote calls recorded."""
        return sum(1 for record in self.records(service) if not record.success)

    # -- cost and quality -------------------------------------------------------

    def mean_cost(self, service: str) -> float | None:
        """Average cost of successful calls, or None."""
        history = [record for record in self.records(service) if record.success]
        if not history:
            return None
        return sum(record.cost for record in history) / len(history)

    def total_cost(self, service: str) -> float:
        """Total spend recorded for this service."""
        return sum(record.cost for record in self.records(service))

    def mean_quality(self, service: str) -> float | None:
        """Average quality rating (per-call and standalone), or None."""
        ratings = [
            record.quality for record in self.records(service) if record.quality is not None
        ]
        with self._lock:
            ratings.extend(self._ratings.get(service, ()))
        if not ratings:
            return None
        return sum(ratings) / len(ratings)

    def rate_quality(self, service: str, quality: float) -> None:
        """Record a standalone quality rating.

        Users can rate responses after the fact (e.g. once gold labels
        or human judgments are available); standalone ratings feed the
        ranker's ``q`` without distorting latency or availability.
        """
        with self._lock:
            self._ratings.setdefault(service, deque(maxlen=self.max_records)).append(
                float(quality)
            )

    # -- persistence ----------------------------------------------------------

    def save_to(self, store, namespace: str = "monitor") -> int:
        """Persist the collected histories into a key-value store.

        The paper's SDK "can store past latency measurements along with
        the latency parameters"; persisting the monitor means a
        restarted client ranks and predicts from day one instead of
        re-learning every service.  Returns the record count saved.
        """
        with self._lock:
            payload = {
                "records": {service: [_saved(record) for record in history]
                            for service, history in self._records.items()},
                "hits": dict(self._hits),
                "ratings": {service: list(ratings)
                            for service, ratings in self._ratings.items()},
            }
        store.put(namespace, payload)
        return sum(len(records) for records in payload["records"].values())

    def load_from(self, store, namespace: str = "monitor") -> int:
        """Restore histories saved with :meth:`save_to`; returns the
        record count restored.

        A payload written before hits became counts holds them as
        records marked ``"cached": true``: each becomes one hit.
        """
        payload = store.get(namespace, default=None)
        if not isinstance(payload, dict):
            return 0
        hits = Counter(payload.get("hits", {}))
        loaded = 0
        for service, records in payload.get("records", {}).items():
            for fields in records:
                fields = dict(fields)
                if fields.pop("cached", False):
                    hits[service] += 1
                else:
                    self.record(InvocationRecord(service=service, **fields))
                    loaded += 1
        with self._lock:
            self._hits.update(hits)
            for service, ratings in payload.get("ratings", {}).items():
                bucket = self._ratings.setdefault(
                    service, deque(maxlen=self.max_records))
                bucket.extend(float(value) for value in ratings)
        for service, count in hits.items():
            self._outcome_counter(service, "cached").inc(count)
        return loaded

    def summary(self, service: str) -> dict:
        """One-look overview used by examples and benchmark output."""
        stats = self.latency_stats(service)
        return {
            "service": service,
            "calls": self.call_count(service),
            "availability": self.availability(service),
            "mean_latency": stats.mean if stats else None,
            "p95_latency": stats.p95 if stats else None,
            "mean_cost": self.mean_cost(service),
            "mean_quality": self.mean_quality(service),
        }
