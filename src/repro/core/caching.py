"""Client-side response caching.

"The rich SDK can cache data from remote services locally to improve
performance and avoid the need to make redundant service calls.
Caching can also help an application to continue executing if the
application has poor connectivity ... Caching will not be applicable
for all remote services" — mutating operations (``put``, ``delete``)
must always reach the service, and "consistency issues may arise in
which a cached value is obsolete", which the TTL bounds.

:class:`ServiceCache` is an LRU cache with optional TTL keyed by
(service, operation, canonicalized payload).  It can persist through
any :class:`repro.stores.kvstore.KeyValueStore`, giving the PKB a
cache that survives restarts and disconnections.

A stored value is treated as immutable (every hit shares the one
object), so once the gateway has served an entry it keeps the value's
JSON text (:meth:`ServiceCache.json_text`), which lives and dies with it.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass

from repro.obs import names
from repro.stores.kvstore import KeyValueStore
from repro.util.clock import Clock
from repro.util.errors import SerializationError

#: Operations that are safe to serve from cache: they read remote state
#: without changing it.  Mutations (put/delete) and anything unknown
#: always cross the network.
DEFAULT_CACHEABLE_OPERATIONS = frozenset(
    {
        "analyze", "analyze_url", "disambiguate",
        "search", "fetch",
        "lookup", "entities_of_type", "property_names",
        "quote", "history", "locate", "climate",
        "classify", "suggest", "correct",
        "get", "exists", "keys",
    }
)

_SENTINEL = object()


@dataclass(frozen=True)
class StaleEntry:
    """An expired-but-retained entry served in degraded mode.

    ``age`` is seconds since the entry was stored — by construction at
    most ``ttl + stale_grace``, which is the bounded-staleness
    guarantee the chaos harness checks.
    """

    value: object
    age: float


@dataclass
class CacheStats:
    """Hit/miss accounting (the caching benchmarks report these).

    The removal counters are disjoint and precise:

    * ``evictions`` — entries pushed out by LRU **capacity pressure**
      only (on :meth:`ServiceCache.put` or when :meth:`~ServiceCache.load_from`
      overfills the cache).  TTL plays no part in this number.
    * ``expirations`` — entries dropped because their **TTL passed**,
      wherever that is detected (currently on read; see
      ``expired_reads``).
    * ``expired_reads`` — the subset of ``expirations`` discovered by a
      read probe: :meth:`~ServiceCache.get` found the key but the entry
      was stale, so the probe *also* counts as a miss.  Earlier
      versions folded these into ``evictions``/``expirations``
      interchangeably in the docs; they are distinct events and are
      now counted separately.
    * ``invalidations`` — entries dropped explicitly
      (:meth:`~ServiceCache.invalidate` / consistency-driven
      :meth:`~ServiceCache.invalidate_service`).

    ``hits + misses`` equals the number of :meth:`~ServiceCache.get`
    probes; :meth:`~ServiceCache.peek` and ``in`` checks touch neither.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    expirations: int = 0
    expired_reads: int = 0
    invalidations: int = 0
    stale_serves: int = 0

    @property
    def hit_ratio(self) -> float:
        """hits / (hits + misses), 0.0 before any probe."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: The key's one encoder.  A cycle makes it recurse until
#: ``RecursionError`` (no circular-reference marker walk), which
#: :func:`cache_key` reports like any other unserializable payload.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                check_circular=False)


def cache_key(service: str, operation: str, payload: Mapping[str, object],
              tenant: str | None = None) -> str:
    """Canonical cache key: sorted-key JSON of the full request.

    ``tenant`` namespaces the key for multi-tenant isolation — two
    tenants issuing the identical request get distinct entries, so one
    can never read a response cached for the other.  Untenanted keys
    (the default) are byte-identical to the historical format.

    The key is ``json.dumps({"service", "operation", "payload"[,
    "tenant"]}, sort_keys=True, separators=(",", ":"))``, spliced
    around the payload's own canonical text: the top-level names
    already sort as ``operation < payload < service < tenant``.
    Raises :class:`~repro.util.errors.SerializationError` when the
    payload cannot cross the wire (an unserializable value, a cycle,
    nesting too deep to encode).
    """
    encode = _KEY_ENCODER.encode
    try:
        body = encode(payload if type(payload) is dict else dict(payload))
    except (TypeError, ValueError, RecursionError) as exc:
        raise SerializationError(
            f"payload is not JSON-serializable: {exc}") from exc
    key = (f'{{"operation":{encode(operation)},"payload":{body},'
           f'"service":{encode(service)}')
    if tenant is not None:
        return f'{key},"tenant":{encode(tenant)}}}'
    return key + "}"


class ServiceCache:
    """LRU + TTL cache over service responses."""

    def __init__(
        self,
        capacity: int = 1024,
        ttl: float | None = None,
        clock: Clock | None = None,
        stale_grace: float | None = None,
    ) -> None:
        """Build the cache.

        ``stale_grace`` (simulated seconds) opts in to graceful
        degradation: expired entries are *retained* for that long past
        their TTL and can be served via :meth:`get_stale` when the
        upstream service is failing.  ``None`` (the default) keeps the
        strict behaviour — expired entries are dropped on first probe.
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive (or None), got {ttl}")
        if ttl is not None and clock is None:
            raise ValueError("a clock is required when ttl is set")
        if stale_grace is not None and stale_grace <= 0:
            raise ValueError(
                f"stale_grace must be positive (or None), got {stale_grace}")
        if stale_grace is not None and ttl is None:
            raise ValueError("stale_grace requires a ttl")
        self.capacity = capacity
        self.ttl = ttl
        self.clock = clock
        self.stale_grace = stale_grace
        self.stats = CacheStats()
        # key -> [value, stored_at, JSON text or None]; insertion order
        # tracks recency.
        self._entries: OrderedDict[str, list] = OrderedDict()
        # Pre-bound metric counters (see bind_metrics); None = unmirrored.
        self._metric_hits = None
        self._metric_misses = None
        self._metric_evictions = None
        self._metric_expirations = None
        self._metric_invalidations = None
        self._metric_stale_serves = None

    def bind_metrics(self, registry) -> None:
        """Mirror hit/miss/eviction accounting into a MetricsRegistry.

        The counters are pre-bound so the per-probe cost is one lock and
        one add — :class:`CacheStats` stays the source of truth and the
        registry can never disagree with it from this point on.
        """
        self._metric_hits = registry.counter(
            names.CACHE_HITS_TOTAL, "Service responses served from the local cache.").bind()
        self._metric_misses = registry.counter(
            names.CACHE_MISSES_TOTAL, "Cache probes that had to go remote.").bind()
        self._metric_evictions = registry.counter(
            names.CACHE_EVICTIONS_TOTAL, "Entries evicted by LRU capacity pressure.").bind()
        self._metric_expirations = registry.counter(
            names.CACHE_EXPIRATIONS_TOTAL, "Entries dropped because their TTL passed.").bind()
        self._metric_invalidations = registry.counter(
            names.CACHE_INVALIDATIONS_TOTAL, "Entries dropped by explicit invalidation.").bind()
        self._metric_stale_serves = registry.counter(
            names.CACHE_STALE_SERVES_TOTAL,
            "Expired entries served in degraded mode within the grace window.").bind()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Live-entry membership; stat-free (an earlier version routed
        through :meth:`get`, inflating hit/miss counts on every ``in``
        check).  A stored ``None`` counts as present; an expired entry,
        even one retained for ``stale_grace``, does not."""
        entry = self._entries.get(key)
        return entry is not None and not self._expired(entry[1])

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def _expired(self, stored_at: float) -> bool:
        return self.ttl is not None and self._now() - stored_at > self.ttl

    def _beyond_grace(self, stored_at: float) -> bool:
        """Expired *and* past the stale-grace window (drop it)."""
        if self.stale_grace is None:
            return True
        return self._now() - stored_at > self.ttl + self.stale_grace

    def get(self, key: str, default: object = _SENTINEL) -> object:
        """Cached value, refreshing recency; counts a miss when absent/expired.

        With ``stale_grace`` set, an expired-but-in-grace entry still
        misses here (fresh reads never see stale data) but is retained
        so :meth:`get_stale` can serve it in degraded mode.
        """
        entry = self._entries.get(key)
        if entry is not None:
            value, stored_at, _ = entry
            if self._expired(stored_at):
                self.stats.expired_reads += 1
                if self._beyond_grace(stored_at):
                    del self._entries[key]
                    self.stats.expirations += 1
                    if self._metric_expirations is not None:
                        self._metric_expirations.inc()
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                if self._metric_hits is not None:
                    self._metric_hits.inc()
                return value
        self.stats.misses += 1
        if self._metric_misses is not None:
            self._metric_misses.inc()
        if default is _SENTINEL:
            return None
        return default

    def peek(self, key: str) -> object | None:
        """Like :meth:`get` but without touching stats or recency."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        value, stored_at, _ = entry
        return None if self._expired(stored_at) else value

    def json_text(self, key: str, value: object) -> str | None:
        """``json.dumps(value)``, encoded on first ask and kept in the
        live entry at ``key``; None unless that entry still holds
        ``value`` itself.  Writing into an entry a ``put`` has since
        replaced re-inserts nothing.  Stat- and recency-free."""
        entry = self._entries.get(key)
        if entry is None or entry[0] is not value or self._expired(entry[1]):
            return None
        if entry[2] is None:
            entry[2] = json.dumps(value)
        return entry[2]

    def get_stale(self, key: str) -> StaleEntry | None:
        """Serve an entry in degraded mode, fresh or stale.

        Returns a :class:`StaleEntry` for any retained entry — fresh,
        or expired but within ``stale_grace`` — and ``None`` otherwise.
        Serving an actually-stale entry counts on ``stats.stale_serves``
        (and the ``cache_stale_serves_total`` metric); fresh serves do
        not, so the counter measures degradation, not traffic.  This is
        the serve-stale-on-error read path used by
        :class:`repro.core.invoker.RichClient`.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        value, stored_at, _ = entry
        age = self._now() - stored_at
        if not self._expired(stored_at):
            return StaleEntry(value, age)
        if self._beyond_grace(stored_at):
            del self._entries[key]
            self.stats.expirations += 1
            if self._metric_expirations is not None:
                self._metric_expirations.inc()
            return None
        self.stats.stale_serves += 1
        if self._metric_stale_serves is not None:
            self._metric_stale_serves.inc()
        return StaleEntry(value, age)

    def put(self, key: str, value: object) -> None:
        """Insert/refresh an entry, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = [value, self._now(), None]
        self.stats.puts += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            if self._metric_evictions is not None:
                self._metric_evictions.inc()

    def invalidate(self, key: str) -> bool:
        """Drop one entry (consistency hook); returns whether it existed."""
        existed = self._entries.pop(key, None) is not None
        if existed:
            self.stats.invalidations += 1
            if self._metric_invalidations is not None:
                self._metric_invalidations.inc()
        return existed

    def invalidate_service(self, service: str) -> int:
        """Drop every entry belonging to one service.

        Keys are sorted (``payload`` before ``service``) and string
        values escaped, so the last ``"service":`` is the top-level one.
        """
        field = '"service":'
        name = json.dumps(service)
        doomed = [key for key in self._entries
                  if (at := key.rfind(field)) >= 0
                  and key.startswith(name, at + len(field))]
        for key in doomed:
            del self._entries[key]
        self.stats.invalidations += len(doomed)
        if doomed and self._metric_invalidations is not None:
            self._metric_invalidations.inc(len(doomed))
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        self._entries.clear()

    # -- persistence -------------------------------------------------------

    def save_to(self, store: KeyValueStore, namespace: str = "cache") -> int:
        """Persist all live entries into a key-value store."""
        snapshot = {
            key: [value, stored_at]
            for key, (value, stored_at, _) in self._entries.items()
            if not self._expired(stored_at)
        }
        store.put(namespace, snapshot)
        return len(snapshot)

    def load_from(self, store: KeyValueStore, namespace: str = "cache") -> int:
        """Restore entries previously saved with :meth:`save_to`."""
        snapshot = store.get(namespace, default=None)
        if not isinstance(snapshot, dict):
            return 0
        loaded = 0
        for key, (value, stored_at) in snapshot.items():
            if not self._expired(stored_at):
                self._entries[key] = [value, stored_at, None]
                loaded += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            if self._metric_evictions is not None:
                self._metric_evictions.inc()
        return loaded
