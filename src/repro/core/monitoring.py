"""Service monitoring and data collection.

"Our rich SDK can collect data on services related to performance,
availability, and the quality and accuracy of responses."  The monitor
records one :class:`InvocationRecord` per call — latency, monetary
cost, success/failure, the request's latency parameters, and an
optional user-assigned quality rating — and answers the aggregate
questions the ranking and prediction layers ask: mean/percentile
latency, availability, mean cost, mean quality, latency histograms,
and (parameter, latency) histories for regression.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from repro.analytics.histogram import Histogram
from repro.analytics.stats import DescriptiveStats, describe
from repro.obs import names


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
    cached: bool = False
    trace_id: str | None = None  # cross-reference into repro.obs traces


class ServiceMonitor:
    """Bounded per-service history of invocation records.

    ``max_records`` bounds two histories per service, each evicting its
    oldest first (the recent past predicts better anyway): the remote
    observations every aggregate, the ranker and the predictor read, and
    the log of records of any kind (cache hits included) behind
    ``records(include_cached=True)``.  Hits never evict an observation
    of the service itself, and an aggregate never scans a hit.
    """

    def __init__(self, max_records: int = 10_000) -> None:
        if max_records <= 0:
            raise ValueError(f"max_records must be positive, got {max_records}")
        self.max_records = max_records
        self._records: dict[str, deque[InvocationRecord]] = {}
        self._remote: dict[str, deque[InvocationRecord]] = {}
        self._ratings: dict[str, deque[float]] = {}
        self._lock = threading.Lock()
        # Metrics mirroring (bind_metrics): record() is the single choke
        # point every invocation passes through, so incrementing here is
        # what guarantees monitor and metrics can never disagree.
        self._metric_invocations = None
        self._metric_latency = None
        self._bound_counters: dict[tuple[str, str], object] = {}

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
        """Append one observation."""
        with self._lock:
            self._append(self._records, record)
            if not record.cached:
                self._append(self._remote, record)
        if self._metric_invocations is not None:
            outcome = ("cached" if record.cached
                       else "success" if record.success else "failure")
            self._outcome_counter(record.service, outcome).inc()
            if record.success and not record.cached and record.latency is not None:
                self._metric_latency.observe(record.latency, service=record.service)

    def _append(self, histories: dict[str, deque[InvocationRecord]],
                record: InvocationRecord) -> None:
        """Append to the record's service history (caller holds the lock);
        the bounded deque is built once per service, not once per record."""
        history = histories.get(record.service)
        if history is None:
            history = histories[record.service] = deque(maxlen=self.max_records)
        history.append(record)

    def services(self) -> list[str]:
        """Names of every service with at least one record."""
        with self._lock:
            return sorted(self._records)

    def records(self, service: str, include_cached: bool = False) -> list[InvocationRecord]:
        """This service's remote history (cache hits say nothing about
        the *service*), or with ``include_cached`` its most recent
        ``max_records`` records of any kind, in arrival order."""
        view = self._records if include_cached else self._remote
        with self._lock:
            return list(view.get(service, ()))

    def call_count(self, service: str) -> int:
        """Remote calls recorded (cache hits excluded)."""
        return len(self.records(service))

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

    def latency_histogram(self, service: str, bins: int = 20) -> Histogram | None:
        """The latency distribution §2 says users can compare."""
        values = self.latencies(service)
        return Histogram.from_values(values, bins=bins) if values else None

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

    def _history_locked(self, service: str) -> list[InvocationRecord]:
        """Everything held for ``service`` in arrival order: the remote
        observations the any-kind log has already evicted (hits pushed
        them out), then that log.  Replaying it rebuilds both."""
        log = self._records[service]
        remote = self._remote.get(service, ())
        evicted = len(remote) - sum(1 for record in log if not record.cached)
        return list(remote)[:evicted] + list(log)

    def save_to(self, store, namespace: str = "monitor") -> int:
        """Persist the collected histories into a key-value store.

        The paper's SDK "can store past latency measurements along with
        the latency parameters"; persisting the monitor means a
        restarted client ranks and predicts from day one instead of
        re-learning every service.  Returns the record count saved.
        """
        with self._lock:
            payload = {
                "records": {
                    service: [
                        {
                            "operation": record.operation,
                            "timestamp": record.timestamp,
                            "latency": record.latency,
                            "cost": record.cost,
                            "success": record.success,
                            "error": record.error,
                            "latency_params": dict(record.latency_params),
                            "quality": record.quality,
                            "cached": record.cached,
                            "trace_id": record.trace_id,
                        }
                        for record in self._history_locked(service)
                    ]
                    for service in self._records
                },
                "ratings": {service: list(ratings)
                            for service, ratings in self._ratings.items()},
            }
        store.put(namespace, payload)
        return sum(len(records) for records in payload["records"].values())

    def load_from(self, store, namespace: str = "monitor") -> int:
        """Restore histories saved with :meth:`save_to`; returns count."""
        payload = store.get(namespace, default=None)
        if not isinstance(payload, dict):
            return 0
        loaded = 0
        for service, records in payload.get("records", {}).items():
            for fields in records:
                self.record(InvocationRecord(service=service, **fields))
                loaded += 1
        with self._lock:
            for service, ratings in payload.get("ratings", {}).items():
                bucket = self._ratings.setdefault(
                    service, deque(maxlen=self.max_records))
                bucket.extend(float(value) for value in ratings)
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
