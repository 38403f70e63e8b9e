"""Incrementally maintained materialized views over the triple store.

Full re-materialization — rerunning every reasoner over the whole
graph — is what made "add one regression result, re-infer" scale with
graph size instead of change size.  :class:`MaterializedGraph` keeps a
graph *closed under its reasoners at all times*: every ``add`` seeds
the rule engine's semi-naive ``derive`` with the new triples, so only
consequences of the change are derived.  Deletion falls back to
rebuild-from-base (exact truth maintenance under deletes needs full
DRed bookkeeping; the PKB's write mix is overwhelmingly additive).

Reads are served through a bounded, graph-version-keyed query-result
cache: the graph's monotonic ``version`` is part of every entry, so
any mutation — direct or derived — invalidates stale results without
bookkeeping; an LRU bound keeps memory flat.  Queries carrying filter
callables bypass the cache (callables have no stable identity).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence

from repro.obs import NULL_OBS, names
from repro.stores.rdf.graph import Graph, Term, Triple
from repro.stores.rdf.query import Binding, Pattern, run_select
from repro.stores.rdf.reasoner import RdfsReasoner
from repro.stores.rdf.rules import GenericRuleReasoner
from repro.stores.rdf.stats import TripleStoreBase


class QueryResultCache:
    """A bounded LRU cache of query results keyed by graph version.

    An entry is only a hit when its recorded version equals the
    caller's current version; stale entries are dropped on sight.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, tuple[int, list[Binding]]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, version: int, key: tuple) -> list[Binding] | None:
        """The cached result for ``key`` at ``version``, or None."""
        entry = self._entries.get(key)
        if entry is None or entry[0] != version:
            if entry is not None:
                del self._entries[key]
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[1]

    def put(self, version: int, key: tuple, result: list[Binding]) -> None:
        """Store a result, evicting least-recently-used entries."""
        self._entries[key] = (version, result)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()


class MaterializedGraph(TripleStoreBase):
    """A graph kept closed under a set of reasoners, incrementally.

    Wraps a base :class:`Graph` (shared, not copied) plus reasoners —
    any mix of :class:`RdfsReasoner`, :class:`TransitiveReasoner` and
    :class:`GenericRuleReasoner`.  A reasoner is a rule list, so their
    joint fixpoint is the fixpoint of one reasoner over all their rules
    (:attr:`reasoner`):

    * construction runs a full materialization;
    * :meth:`add` / :meth:`add_many` / :meth:`add_all` derive only the
      consequences of the new triples (semi-naive), once per batch;
    * :meth:`remove` / :meth:`discard` rebuild from the recorded base
      facts (derived triples are never explicitly stored anywhere
      else, so deletion must re-derive);
    * :meth:`select` answers queries through a bounded cache keyed by
      the graph version.

    Reads may keep going through the wrapped graph directly; writes
    must come through this wrapper to stay materialized.
    """

    def __init__(
        self,
        base: Graph | None = None,
        reasoners: Sequence[GenericRuleReasoner] | None = None,
        cache_size: int = 128,
        obs=None,
    ) -> None:
        self.graph = base if base is not None else Graph()
        self.reasoner = GenericRuleReasoner([
            rule
            for reasoner in (reasoners if reasoners is not None
                             else [RdfsReasoner()])
            for rule in reasoner.rules
        ])
        self._base: set[Triple] = set(self.graph)
        self._cache = QueryResultCache(capacity=cache_size)
        metrics = (obs if obs is not None else NULL_OBS).metrics
        self._metric_delta = metrics.counter(
            names.RDF_MATERIALIZE_DELTA_TOTAL,
            "Incremental (semi-naive) materialization runs.")
        self._metric_full = metrics.counter(
            names.RDF_MATERIALIZE_FULL_TOTAL,
            "Full re-materialization runs.")
        self._metric_cache_hits = metrics.counter(
            names.RDF_QUERY_CACHE_HITS_TOTAL,
            "Materialized-view query cache hits.")
        self._metric_cache_misses = metrics.counter(
            names.RDF_QUERY_CACHE_MISSES_TOTAL,
            "Materialized-view query cache misses.")
        self.refresh()

    # -- delegation --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.graph)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.graph)

    def __contains__(self, triple: Triple | tuple) -> bool:
        return triple in self.graph

    @property
    def version(self) -> int:
        """The wrapped graph's monotonic version counter."""
        return self.graph.version

    @property
    def additions(self) -> int | None:
        """The wrapped graph's count of added triples, derived ones
        included (None when the backend does not count them)."""
        return getattr(self.graph, "additions", None)

    def match(self, subject: str | None = None, predicate: str | None = None,
              obj: Term | None = None) -> list[Triple]:
        """Pattern match over the materialized graph."""
        return self.graph.match(subject, predicate, obj)

    # What the shared surface derives from index primitives is the
    # wrapped store's to answer; the rest works over this class's own
    # ``match`` / ``__iter__`` / ``add_many`` / ``remove``.

    def predicates(self) -> set[str]:
        """Every predicate present in the materialized graph."""
        return self.graph.predicates()

    def estimate_cardinality(self, subject: object = None,
                             predicate: object = None,
                             obj: object = None) -> float:
        """Planner cardinality estimate over the materialized triples."""
        return self.graph.estimate_cardinality(subject, predicate, obj)

    def predicate_statistics(self):
        """Per-predicate statistics over the materialized triples."""
        return self.graph.predicate_statistics()

    def base_facts(self) -> set[Triple]:
        """The explicitly asserted (non-derived) triples."""
        return set(self._base)

    @property
    def inferred_count(self) -> int:
        """How many currently held triples are derived, not asserted."""
        return len(self.graph) - len(self._base)

    # -- mutation ----------------------------------------------------------

    def add(self, triple: Triple | tuple) -> bool:
        """Insert a triple and derive its consequences incrementally."""
        return self.add_many([triple])[0]

    def add_many(self, triples: Iterable[Triple | tuple]) -> list[bool]:
        """Insert a batch — one ``add_many`` on the wrapped store — then
        derive from its new triples once; per-triple newness flags.

        The base facts are recorded only after the store took the batch:
        if it raises, the view is as it was.
        """
        rows = [Graph._coerce(triple) for triple in triples]
        flags = self.graph.add_many(rows)
        # One already present (possibly as a derived fact) is still a
        # base assertion from now on, so deletes keep it.
        self._base.update(rows)
        fresh = {triple for triple, new in zip(rows, flags) if new}
        if fresh:
            self._derive(fresh)
        return flags

    def remove(self, triple: Triple | tuple) -> bool:
        """Retract a base fact; rebuilds the materialization."""
        triple = Graph._coerce(triple)
        if triple not in self._base:
            return False
        self._base.discard(triple)
        self._rebuild()
        return True

    def clear(self) -> None:
        """Drop every triple, asserted and derived (version advances)."""
        self.graph.clear()
        self._base.clear()
        self._cache.clear()

    # -- materialization ---------------------------------------------------

    def refresh(self) -> int:
        """Run every rule to the joint fixpoint; returns new triples."""
        added = self.reasoner.forward(self.graph)
        self._metric_full.inc()
        return added

    def _derive(self, frontier: set[Triple]) -> int:
        """The joint fixpoint's extension by ``frontier``'s consequences."""
        added = len(self.reasoner.derive(self.graph, frontier))
        self._metric_delta.inc()
        return added

    def _rebuild(self) -> None:
        self.graph.clear()
        self.graph.add_many(self._base)
        self.refresh()

    # -- cached queries ----------------------------------------------------

    @property
    def cache(self) -> QueryResultCache:
        """The bounded, version-keyed query-result cache."""
        return self._cache

    @staticmethod
    def _cache_key(
        patterns: Sequence[Pattern],
        variables: Sequence[str] | None,
        distinct: bool,
        order_by: str | None,
        descending: bool,
        limit: int | None,
        optional: Sequence[Pattern],
    ) -> tuple:
        return (
            tuple(tuple(pattern) for pattern in patterns),
            tuple(variables) if variables is not None else None,
            distinct,
            order_by,
            descending,
            limit,
            tuple(tuple(pattern) for pattern in optional),
        )

    def select(
        self,
        patterns: Sequence[Pattern],
        variables: Sequence[str] | None = None,
        filters: Sequence = (),
        distinct: bool = False,
        order_by: str | None = None,
        descending: bool = False,
        limit: int | None = None,
        optional: Sequence[Pattern] = (),
        optimize: bool = True,
    ) -> list[Binding]:
        """A planned SELECT with version-keyed result caching.

        Queries with ``filters`` bypass the cache: a callable has no
        stable identity to key on.  Cached results are returned as
        fresh copies, so callers may mutate them safely.
        """
        cacheable = not filters and optimize
        key = None
        if cacheable:
            key = self._cache_key(patterns, variables, distinct, order_by,
                                  descending, limit, optional)
            cached = self._cache.get(self.graph.version, key)
            if cached is not None:
                self._metric_cache_hits.inc()
                return [dict(binding) for binding in cached]
            self._metric_cache_misses.inc()
        result = run_select(
            self.graph, patterns, variables=variables, filters=filters,
            distinct=distinct, order_by=order_by, descending=descending,
            limit=limit, optional=optional, optimize=optimize,
        )
        if cacheable:
            self._cache.put(self.graph.version, key,
                            [dict(binding) for binding in result])
        return result
