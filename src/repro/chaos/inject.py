"""Live fault injection: the machinery a :class:`FaultPlan` arms.

:class:`ChaosInjector` is consulted by
:meth:`repro.simnet.transport.Transport._call` at four points —
partition check, error burst, latency shaping and payload corruption —
and keeps per-kind counts so scenarios can assert on exactly what was
injected.  Its randomness comes from a child rng derived from the
plan's seed, **separate** from the transport's latency rng: arming a
plan never perturbs the latency stream an unfaulted run would sample,
which is what keeps protections-on and protections-off runs of the
same scenario comparable.

Two further injection points live outside the transport:

* :class:`SkewedClock` — wraps a clock so a peer (e.g. a second writer
  in a sync scenario) observes skewed timestamps;
* :class:`FaultyStore` — wraps a :class:`KeyValueStore` so a *local*
  storage backend can fail on schedule too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.plan import (
    ErrorBurst,
    FaultPlan,
    FlappingLink,
    LatencySpike,
    Partition,
    PayloadCorruption,
    Window,
)
from repro.obs import NULL_INSTRUMENT, NULL_OBS, names
from repro.simnet.errors import RemoteServiceError
from repro.stores.kvstore import KeyValueStore
from repro.util.clock import Clock
from repro.util.rng import SeededRng, derive_seed

#: Marker key the corruptor leaves in mangled payloads (handy in tests).
CORRUPTION_MARKER = "x-chaos-corrupted"


@dataclass
class InjectionStats:
    """How many faults of each kind actually fired."""

    errors: int = 0
    latency_spikes: int = 0
    partitions: int = 0
    corruptions: int = 0

    @property
    def total(self) -> int:
        """All injected faults, regardless of kind."""
        return (self.errors + self.latency_spikes + self.partitions
                + self.corruptions)


class ChaosInjector:
    """Consults a :class:`FaultPlan` on every transport call.

    Install on a transport with
    :meth:`repro.simnet.transport.Transport.install_injector` (or the
    :meth:`install` convenience).  All decision methods take the
    endpoint and the current simulated time so the injector itself
    stays stateless apart from counters and its private rng stream.
    """

    def __init__(self, plan: FaultPlan, obs=None) -> None:
        self.plan = plan
        self.stats = InjectionStats()
        self._rng = SeededRng(derive_seed(plan.seed, "chaos-inject"))
        self._metric_faults = NULL_INSTRUMENT
        self.bind_metrics((obs if obs is not None else NULL_OBS).metrics)

    def bind_metrics(self, registry) -> None:
        """Mirror injected-fault counts into a MetricsRegistry (by kind).

        First binder wins: a disabled bundle's registry claims nothing."""
        if self._metric_faults is NULL_INSTRUMENT:
            self._metric_faults = registry.counter(
                names.CHAOS_FAULTS_INJECTED_TOTAL,
                "Faults injected by the chaos harness, by kind.")

    def install(self, transport) -> "ChaosInjector":
        """Arm ``transport`` with this injector; returns self."""
        transport.install_injector(self)
        return self

    def _count(self, field_name: str, kind: str) -> None:
        setattr(self.stats, field_name, getattr(self.stats, field_name) + 1)
        self._metric_faults.inc(kind=kind)

    def _drew(self, probability: float) -> bool:
        # probability == 1.0 skips the draw so solid faults do not
        # advance the rng stream (keeps flaky faults independent).
        return probability >= 1.0 or self._rng.bernoulli(probability)

    # -- decision points (called by Transport._call) -------------------------

    def offline(self, endpoint: str, now: float) -> bool:
        """Whether a partition or flapping outage blocks this call."""
        for spec in self.plan.specs:
            if isinstance(spec, (Partition, FlappingLink)) and spec.active(
                    endpoint, now):
                self._count("partitions", "partition")
                return True
        return False

    def error_status(self, endpoint: str, now: float) -> int | None:
        """The injected error status for this call, or None."""
        for spec in self.plan.specs:
            if isinstance(spec, ErrorBurst) and spec.active(endpoint, now):
                if self._drew(spec.probability):
                    self._count("errors", "error")
                    return spec.status
        return None

    def shape_latency(self, endpoint: str, now: float, seconds: float) -> float:
        """Sampled wire latency after any active spikes are applied."""
        shaped = seconds
        spiked = False
        for spec in self.plan.specs:
            if isinstance(spec, LatencySpike) and spec.active(endpoint, now):
                shaped = shaped * spec.factor + spec.extra
                spiked = True
        if spiked:
            self._count("latency_spikes", "latency")
        return shaped

    def corrupt(self, endpoint: str, now: float, payload: dict) -> dict:
        """The (possibly mangled) response payload for this call."""
        for spec in self.plan.specs:
            if isinstance(spec, PayloadCorruption) and spec.active(
                    endpoint, now):
                if self._drew(spec.probability):
                    self._count("corruptions", "corruption")
                    return {CORRUPTION_MARKER: True, "endpoint": endpoint}
        return payload


class SkewedClock(Clock):
    """A clock that reads ``offset`` seconds apart from its inner clock.

    Models one peer's skewed view of time (e.g. the writer on another
    machine in a sync scenario).  Charges delegate to the inner clock —
    skew shifts what a peer *observes*, not how fast simulated time
    advances.
    """

    def __init__(self, inner: Clock, offset: float) -> None:
        self.inner = inner
        self.offset = offset

    def now(self) -> float:
        """The skewed observation of the shared simulated time."""
        return self.inner.now() + self.offset

    def charge(self, seconds: float) -> None:
        """Spend time on the shared (inner) clock."""
        self.inner.charge(seconds)


class StorageFaultError(RemoteServiceError):
    """A storage backend failed on schedule (503 analogue).

    Derives from :class:`~repro.simnet.errors.RemoteServiceError` so
    existing retry/queue paths classify it as a transient network-side
    failure.
    """

    def __init__(self, endpoint: str) -> None:
        super().__init__(endpoint, "injected storage fault", status=503)


class FaultyStore(KeyValueStore):
    """A :class:`KeyValueStore` that fails during scheduled windows.

    The storage-backend injection point: wraps any store and raises
    :class:`StorageFaultError` on every operation whose time falls in
    one of ``fault_windows`` on ``clock``.
    """

    def __init__(self, inner: KeyValueStore, clock: Clock,
                 fault_windows: list[Window],
                 name: str = "faulty-store") -> None:
        self.inner = inner
        self.clock = clock
        self.fault_windows = list(fault_windows)
        self.name = name
        self.faults_raised = 0

    def _gate(self) -> None:
        now = self.clock.now()
        for window in self.fault_windows:
            if window.contains(now):
                self.faults_raised += 1
                raise StorageFaultError(self.name)

    def put(self, key: str, value: object) -> None:
        """Store ``value`` under ``key`` (unless a fault window is active)."""
        self._gate()
        self.inner.put(key, value)

    def get(self, key: str, *args, **kwargs) -> object:
        """Read ``key`` (unless a fault window is active).

        Forwards ``default`` untouched so the inner store's
        missing-key semantics (raise vs. default) are preserved.
        """
        self._gate()
        return self.inner.get(key, *args, **kwargs)

    def delete(self, key: str) -> bool:
        """Delete ``key`` (unless a fault window is active)."""
        self._gate()
        return self.inner.delete(key)

    def keys(self, prefix: str = "") -> list[str]:
        """List keys (unless a fault window is active)."""
        self._gate()
        return self.inner.keys(prefix)


class SqliteWriteBurst:
    """A mid-transaction write fault for the SQLite triple backend.

    Pass as ``fault_hook`` to
    :class:`~repro.stores.backends.sqlite.SqliteTripleStore`: the
    backend consults the hook *between chunks of one open batch
    transaction*.  Each consultation charges ``chunk_cost`` simulated
    seconds on ``clock`` and raises :class:`StorageFaultError` if time
    has entered one of ``fault_windows`` — so the failure lands with
    earlier chunks already executed, exactly where a partial-write bug
    would surface.  The backend's contract under this fault is total
    rollback: no triple from the failed batch (and no interned term)
    may ever become visible, which
    ``tests/chaos/test_sqlite_faults.py`` asserts.
    """

    def __init__(self, clock: Clock, fault_windows: list[Window],
                 chunk_cost: float = 0.01,
                 name: str = "sqlite-shard") -> None:
        self.clock = clock
        self.fault_windows = list(fault_windows)
        self.chunk_cost = chunk_cost
        self.name = name
        self.faults_raised = 0
        self.chunks_seen = 0

    def __call__(self, chunk_index: int) -> None:
        """Charge one chunk's write time, then fail if inside a window."""
        self.chunks_seen += 1
        self.clock.charge(self.chunk_cost)
        now = self.clock.now()
        for window in self.fault_windows:
            if window.contains(now):
                self.faults_raised += 1
                raise StorageFaultError(self.name)
