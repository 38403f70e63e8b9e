"""Hash-sharded triple storage: a router over N storage backends.

One store caps how many triples a KB can hold (one process's memory,
or one file).  A :class:`ShardedGraph` splits the triple set across N
independent :class:`~repro.stores.backends.base.StorageBackend` shards
keyed by a **stable subject hash** (CRC-32, so placement survives
restarts and file-backed shards reopen onto the same data), and turns
queries into scatter/gather plans.  Sharding is a capacity and
persistence feature, not a speed-up: per-shard work runs in shard
order on the caller's thread (a thread pool under the GIL measured no
gain over one store — see EXPERIMENTS.md, A13), so the router owns no
threads and nothing it starts outlives a call.

* **Routing** — a pattern with a concrete subject touches exactly one
  shard; everything else visits every shard.  Because a subject's
  triples are colocated, *star queries* (every pattern sharing one
  subject variable) decompose perfectly: each shard answers the whole
  query over its slice and the union of slices is the global answer.
* **Scatter execution** — the router plans a colocated query once,
  against its global statistics, and every shard runs that plan through
  the body ``select`` itself runs
  (:func:`~repro.stores.rdf.query.join_and_filter`); the rows
  concatenate in shard order and take the one SELECT tail
  (:func:`~repro.stores.rdf.query.finish`), whose stable sort keeps
  ties in shard order.
* **Pushdown is the shard's job** — the one protocol is the optional
  ``execute_plan(plan, filters, top)`` hook behind
  :func:`~repro.stores.rdf.plan.execute_plan`: a :class:`Graph` shard
  joins in id space, a SQLite shard answers a range scan and its top-k
  inside its C engine, any other shard is joined by the generic loop.
  The router has no pushdown of its own.
* **Broadcast joins** — cross-shard joins fall back to the cost-based
  planner over the router itself: each join step's pattern scan is
  scattered across shards and the bindings join at the router (the
  "broadcast" side of the broadcast-vs-colocate decision).

The router maintains **global cardinality statistics** (predicate
counts plus distinct subject/object multiplicities) and answers the
primitives of the shared estimate
(:class:`~repro.stores.rdf.stats.TripleStoreBase`) from them, so
``estimate_cardinality`` returns bit-identical floats to a single
:class:`~repro.stores.rdf.graph.Graph` holding the same triples —
which keeps planner ``explain()`` output byte-stable across shard
counts.

Thread-safety matches :class:`Graph`: concurrent reads are fine,
concurrent writers need external synchronization.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import nullcontext
from itertools import chain

from repro.obs import names
from repro.stores.rdf import plan as _plan
from repro.stores.rdf.graph import Graph, Term, Triple
from repro.stores.rdf.query import (
    Binding,
    Pattern,
    check_select,
    finish,
    is_variable,
    join_and_filter,
    select as _select,
)
from repro.stores.rdf.stats import GraphStatistics, TripleStoreBase, reject_nan
from repro.util.clock import SYSTEM_CLOCK, Clock

#: Route labels (also used by ``FanoutPlan.explain()``).
ROUTE_SINGLE = "single-shard"
ROUTE_SCATTER = "scatter"
ROUTE_BROADCAST = "broadcast"

#: The one key the all-predicate distinct counts are recorded under.
_ANY_PREDICATE = None


def shard_of(subject: str, shards: int) -> int:
    """The stable shard index for a subject (CRC-32 of its UTF-8)."""
    return zlib.crc32(subject.encode("utf-8")) % shards


class ShardedGraph(TripleStoreBase):
    """N independent storage shards behind one Graph-shaped surface.

    ``backend_factory(index)`` builds each shard (default: an
    in-memory :class:`Graph`).  To keep the store closed under
    reasoners, wrap the whole router in a
    :class:`~repro.stores.rdf.materialize.MaterializedGraph` (the KB's
    ``enable_materialization`` does): rules such as ``rdfs:subClassOf``
    chains span subjects, hence shards.
    """

    def __init__(self, shards: int = 4,
                 backend_factory: Callable[[int], object] | None = None,
                 *,
                 obs=None,
                 clock: Clock | None = None) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shard_count = shards
        factory = backend_factory if backend_factory is not None else (
            lambda index: Graph())
        self._shards = [factory(index) for index in range(shards)]
        self._clock = clock if clock is not None else SYSTEM_CLOCK
        # Router-global statistics, exact mirrors of a single Graph's
        # (keyed by term, not id): per predicate in ``_stats``, and
        # once more under one key in ``_overall`` for the distinct
        # subject / object counts over all predicates.
        self._stats = GraphStatistics()
        self._overall = GraphStatistics()
        # First-seen representation of every non-string object: equal
        # terms (``1``, ``1.0``, ``True``) are one term on every shard,
        # as they are inside one store.
        self._literals: dict[Term, Term] = {}
        # File-backed shards may reopen with existing triples; hydrate
        # the router's global state from them (one O(n) pass).
        for triple in self:
            self._count(self._coerce(triple))
        if obs is not None and obs.enabled:
            self._tracer = obs.tracer
            self._metric_scans = obs.metrics.counter(
                names.KB_SHARD_SCANS_TOTAL,
                "Per-shard scans issued by fan-out query execution.")
            self._metric_fanout = obs.metrics.histogram(
                names.KB_SHARD_FANOUT_MS,
                "Wall milliseconds spent in scatter/gather fan-outs.")
        else:
            self._tracer = None
            self._metric_scans = None
            self._metric_fanout = None

    # -- infrastructure ----------------------------------------------------

    def _fan_out(self, function) -> list:
        """``function(shard)`` for every shard, on the caller's thread;
        results come back in shard order."""
        if self._metric_scans is not None and self.shard_count > 1:
            self._metric_scans.inc(self.shard_count)
        return [function(shard) for shard in self._shards]

    def close(self) -> None:
        """Close the shards that can be closed (file-backed stores)."""
        for shard in self._shards:
            closer = getattr(shard, "close", None)
            if callable(closer):
                closer()

    def shard_for(self, subject: str):
        """The shard backend holding ``subject``'s triples."""
        return self._shards[shard_of(subject, self.shard_count)]

    @property
    def shards(self) -> list:
        """The shard backends, in index order (read-only use)."""
        return list(self._shards)

    def _coerce(self, triple: Triple | tuple) -> Triple:
        """The triple to write: its object as first seen by the router.

        A NaN object raises ``ValueError`` before the router or any
        shard records it.
        """
        triple = Graph._coerce(triple)
        obj = triple.object
        if isinstance(obj, str):
            return triple
        first = self._literals.get(obj)
        if first is None:
            reject_nan((triple,))
            first = self._literals[obj] = obj
        return (triple if first is obj
                else Triple(triple.subject, triple.predicate, first))

    def _count(self, triple: Triple) -> None:
        """Account for one triple a shard reported as new."""
        self._stats.record_add(triple.subject, triple.predicate, triple.object)
        self._overall.record_add(triple.subject, _ANY_PREDICATE, triple.object)

    # -- mutation ----------------------------------------------------------

    def add(self, triple: Triple | tuple) -> bool:
        """Insert a triple on its subject's shard."""
        triple = self._coerce(triple)
        added = self.shard_for(triple.subject).add(triple)
        if added:
            self._count(triple)
        return added

    def add_many(self, triples: Iterable[Triple | tuple]) -> list[bool]:
        """Bulk insert reporting per-triple newness in input order.

        Triples are grouped per shard and each group is one
        ``add_many`` on its shard — one transaction on a batching
        backend.  When a shard raises, its group is not counted (the
        backend rolled it back) and earlier shards keep theirs.
        """
        rows = [self._coerce(triple) for triple in triples]
        reject_nan(rows)  # before any shard writes a row of the batch
        groups: dict[int, list[int]] = {}
        for position, triple in enumerate(rows):
            groups.setdefault(shard_of(triple.subject, self.shard_count),
                              []).append(position)
        flags = [False] * len(rows)
        for index in sorted(groups):
            positions = groups[index]
            fresh = self._shards[index].add_many(
                [rows[position] for position in positions])
            for position, new in zip(positions, fresh):
                if new:
                    flags[position] = True
                    self._count(rows[position])
        return flags

    def remove(self, triple: Triple | tuple) -> bool:
        """Delete a triple from its subject's shard."""
        triple = Graph._coerce(triple)
        removed = self.shard_for(triple.subject).remove(triple)
        if removed:
            self._stats.record_remove(triple.subject, triple.predicate,
                                      triple.object)
            self._overall.record_remove(triple.subject, _ANY_PREDICATE,
                                        triple.object)
        return removed

    def clear(self) -> None:
        """Clear every shard; versions still advance."""
        for shard in self._shards:
            shard.clear()
        self._stats.clear()
        self._overall.clear()
        self._literals.clear()

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return self._stats.total

    def __iter__(self) -> Iterator[Triple]:
        return chain.from_iterable(self._shards)

    def __contains__(self, triple: Triple | tuple) -> bool:
        triple = Graph._coerce(triple)
        return triple in self.shard_for(triple.subject)

    @property
    def version(self) -> int:
        """Sum of shard versions — monotonic, bumps on any mutation."""
        return sum(shard.version for shard in self._shards)

    @property
    def additions(self) -> int:
        """Sum of shard insert counts (see :attr:`Graph.additions`)."""
        return sum(shard.additions for shard in self._shards)

    def match(self, subject: str | None = None, predicate: str | None = None,
              obj: Term | None = None) -> list[Triple]:
        """Prefix scan: routed when the subject is bound, else scattered.

        Shard triple sets are disjoint, so the concatenation (in shard
        order) needs no dedup.
        """
        if subject is not None:
            return self.shard_for(subject).match(subject, predicate, obj)
        results = self._fan_out(lambda shard: shard.match(subject, predicate,
                                                          obj))
        return [triple for rows in results for triple in rows]

    # -- what the shared estimates and statistics read ---------------------
    # The router keys its statistics by the terms themselves.  A subject's
    # triples are colocated, so its shard's exact count is global; an
    # object's are summed over the shards' *public* estimates (exact for a
    # concrete-or-None pattern), which any StorageBackend has.

    def _term_key(self, term: Term) -> Term:
        return term

    def _matching(self, subject: str | None, predicate: str | None,
                  obj: Term | None) -> float:
        if subject is not None:
            return self.shard_for(subject).estimate_cardinality(
                subject, predicate, obj)
        if obj is not None:
            return sum(shard.estimate_cardinality(None, predicate, obj)
                       for shard in self._shards)
        if predicate is not None:
            return self._stats.predicate_count(predicate)
        return self._stats.total

    def _distinct(self, position: str, predicate: str | None) -> int:
        if position == "p":
            return len(self._stats.predicate_ids())
        # ``_overall`` records every triple under the one key None.
        stats = self._overall if predicate is None else self._stats
        return (stats.distinct_subjects(predicate) if position == "s"
                else stats.distinct_objects(predicate))

    def _predicate_terms(self) -> list[str]:
        return self._stats.predicate_ids()

    # -- query routing -----------------------------------------------------

    def route_select(self, patterns: Sequence[Pattern],
                     optional: Sequence[Pattern] = ()) -> tuple[str, int | None]:
        """The broadcast-vs-colocate decision for one SELECT.

        * every subject concrete and on one shard → ``single-shard``;
        * every pattern sharing one subject *variable* that appears in
          no other position → ``scatter`` (per-shard answers union to
          the global answer);
        * anything else → ``broadcast`` (router-level join; each
          pattern scan still routes or scatters individually).
        """
        all_patterns = [tuple(p) for p in patterns] + [tuple(p) for p in optional]
        if not all_patterns:
            return ROUTE_BROADCAST, None
        subjects = {pattern[0] for pattern in all_patterns}
        if all(isinstance(s, str) and not is_variable(s) for s in subjects):
            targets = {shard_of(s, self.shard_count) for s in subjects}
            if len(targets) == 1:
                return ROUTE_SINGLE, targets.pop()
            return ROUTE_BROADCAST, None
        if len(subjects) == 1:
            star = next(iter(subjects))
            if is_variable(star):
                for pattern in all_patterns:
                    if pattern[1] == star or pattern[2] == star:
                        return ROUTE_BROADCAST, None
                return ROUTE_SCATTER, None
        return ROUTE_BROADCAST, None

    # -- scatter execution -------------------------------------------------

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
        """A SELECT with scatter/gather execution — same results as
        the single-store engine, different evaluation topology.

        A colocated query is planned once, against the router's global
        statistics, and every shard runs that plan through
        :func:`~repro.stores.rdf.query.join_and_filter` — the body
        ``select`` itself runs, so a shard with the ``execute_plan``
        hook pushes filters and the top-k down; the rows then take the
        one tail.  Cross-shard joins broadcast through the router's
        pattern scans.  See :meth:`route_select`.
        """
        check_select(patterns, optional, limit)
        route, target = self.route_select(patterns, optional)
        if route != ROUTE_SCATTER:
            # One shard holds every subject named, or the router itself
            # is the store the planner joins over (broadcast).
            store = self._shards[target] if route == ROUTE_SINGLE else self
            return _select(store, patterns, variables=variables,
                           filters=filters, distinct=distinct,
                           order_by=order_by, descending=descending,
                           limit=limit, optional=optional, optimize=optimize)
        filters = list(filters)
        # Resolved through the module on every call, as ``select`` does.
        plan = (_plan.build_plan(self, patterns, filters)
                if optimize and patterns else None)
        # With no order the first ``limit`` rows of the concatenation
        # lie within the first ``limit`` of each shard.
        cut = limit if order_by is None and not distinct else None

        def per_shard(shard) -> list[Binding]:
            return join_and_filter(shard, patterns, filters, distinct,
                                   order_by, descending, limit, optional,
                                   optimize, plan)[:cut]

        span = (self._tracer.span(names.SPAN_KB_SHARD_SCAN,
                                  {"route": ROUTE_SCATTER,
                                   "shards": self.shard_count,
                                   "patterns": len(patterns)})
                if self._tracer is not None else nullcontext())
        with span:
            started = self._clock.now()
            # Per-shard runs (sorted ones, from a hook given the top-k
            # hint) concatenated in shard order: the tail's stable sort
            # / top-k is then a stable k-way merge.
            rows = list(chain.from_iterable(self._fan_out(per_shard)))
            merged = finish(rows, variables, distinct, order_by,
                            descending, limit)
            if self._metric_fanout is not None:
                self._metric_fanout.observe(
                    (self._clock.now() - started) * 1000.0)
        return merged
