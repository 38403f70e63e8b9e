"""Per-predicate cardinality statistics and the surface every store shares.

The query planner (:mod:`repro.stores.rdf.plan`) needs to know, before
touching any data, roughly how many triples a pattern will match.  The
classic answer is per-predicate statistics maintained *incrementally*
on every ``Graph.add`` / ``Graph.discard`` — never recomputed by
scanning — so planning stays O(patterns²) regardless of graph size:

* ``count(p)`` — how many triples use predicate ``p``;
* ``distinct_subjects(p)`` / ``distinct_objects(p)`` — how many
  different subjects / objects appear with ``p``, which give the
  average fan-out used to discount patterns whose subject or object is
  a join variable already bound by an earlier pattern.

:class:`GraphStatistics` counts over any hashable keys; the sharded
router (:mod:`repro.stores.rdf.shard`) feeds it the terms themselves.
A :class:`repro.stores.rdf.graph.Graph` needs no multiplicity maps: it
reads the same numbers off its own indexes.

:class:`TripleStoreBase` is the one place the planner's cardinality
model, and everything else a store *derives* from its indexes, is
written down; ``Graph``, ``SqliteTripleStore`` and ``ShardedGraph``
inherit it and supply four primitives over their own term keys.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass


class _BoundMarker:
    """Sentinel: a pattern position held by an already-bound variable.

    Its concrete value is unknown at planning time, so the estimator
    discounts by the average fan-out instead of an index lookup.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "<bound>"


BOUND = _BoundMarker()


@dataclass(frozen=True)
class PredicateStats:
    """A read-only snapshot of one predicate's statistics."""

    predicate: str
    count: int
    distinct_subjects: int
    distinct_objects: int

    @property
    def subject_fanout(self) -> float:
        """Average triples per distinct subject (``count / distinct_subjects``)."""
        return self.count / self.distinct_subjects if self.distinct_subjects else 0.0

    @property
    def object_fanout(self) -> float:
        """Average triples per distinct object (``count / distinct_objects``)."""
        return self.count / self.distinct_objects if self.distinct_objects else 0.0


class GraphStatistics:
    """Incrementally-maintained cardinality statistics over term ids.

    The owning store calls :meth:`record_add` / :meth:`record_remove`
    from its own mutation path, once per triple that really was added
    or removed, so the counters can never drift from the indexes.
    Multiplicity maps (term id → how many triples reference it) make
    removal exact: a subject only stops being "distinct" for a
    predicate when its last triple with that predicate goes away.
    """

    __slots__ = ("total", "_count", "_subjects", "_objects")

    def __init__(self) -> None:
        self.total = 0
        self._count: dict[int, int] = {}
        self._subjects: dict[int, dict[int, int]] = {}
        self._objects: dict[int, dict[int, int]] = {}

    # -- maintenance (called by the owning store only) --------------------

    def record_add(self, subject_id: int, predicate_id: int, object_id: int) -> None:
        """Account for one newly inserted triple."""
        self.total += 1
        self._count[predicate_id] = self._count.get(predicate_id, 0) + 1
        subjects = self._subjects.setdefault(predicate_id, {})
        subjects[subject_id] = subjects.get(subject_id, 0) + 1
        objects = self._objects.setdefault(predicate_id, {})
        objects[object_id] = objects.get(object_id, 0) + 1

    def record_remove(self, subject_id: int, predicate_id: int, object_id: int) -> None:
        """Account for one removed triple."""
        self.total -= 1
        remaining = self._count[predicate_id] - 1
        if remaining:
            self._count[predicate_id] = remaining
        else:
            del self._count[predicate_id]

        def decrement(table: dict[int, dict[int, int]], key: int) -> None:
            bucket = table[predicate_id]
            left = bucket[key] - 1
            if left:
                bucket[key] = left
            else:
                del bucket[key]
            if not bucket:
                del table[predicate_id]

        decrement(self._subjects, subject_id)
        decrement(self._objects, object_id)

    def clear(self) -> None:
        """Reset every counter (the graph was cleared)."""
        self.total = 0
        self._count.clear()
        self._subjects.clear()
        self._objects.clear()

    # -- queries ------------------------------------------------------------

    def predicate_count(self, predicate_id: int) -> int:
        """Triples whose predicate has this id (0 when unseen)."""
        return self._count.get(predicate_id, 0)

    def distinct_subjects(self, predicate_id: int) -> int:
        """Distinct subjects appearing with this predicate id."""
        return len(self._subjects.get(predicate_id, ()))

    def distinct_objects(self, predicate_id: int) -> int:
        """Distinct objects appearing with this predicate id."""
        return len(self._objects.get(predicate_id, ()))

    def predicate_ids(self) -> list[int]:
        """Every predicate id with at least one triple."""
        return list(self._count)


def reject_nan(triples: Iterable) -> None:
    """Raise ``ValueError`` when any term of ``triples`` is NaN.

    NaN equals nothing, itself included, so a stored NaN could never be
    found, removed or deduplicated again: every store calls this before
    a write can intern a new term.
    """
    for triple in triples:
        subject, predicate, obj = triple
        if obj != obj or subject != subject or predicate != predicate:
            raise ValueError(f"NaN is not a storable term: {tuple(triple)!r}")


def canonical_triple_list(triples: Iterable) -> list[list]:
    """The shared deterministic dump order every backend uses.

    Sort by subject, predicate, object type name, then stringified
    object (objects mix numeric and string literals, which do not
    compare directly).
    """
    ordered = sorted(
        triples,
        key=lambda t: (t.subject, t.predicate, type(t.object).__name__,
                       str(t.object)),
    )
    return [[t.subject, t.predicate, t.object] for t in ordered]


class TripleStoreBase:
    """What every store derives from its indexes, written once.

    A subclass supplies ``add_many`` / ``remove`` / ``match`` /
    ``__iter__`` and four primitives over whatever keys it indexes
    terms by (interned ids, or the terms themselves):

    * ``_term_key(term)`` — the key of a concrete term, ``None`` when
      the store has never seen it;
    * ``_matching(s, p, o)`` — the *exact* number of triples matching
      the keys, ``None`` being a wildcard;
    * ``_distinct(position, predicate_key)`` — how many distinct terms
      stand at ``position`` (``"s"``, ``"p"`` or ``"o"``), among the
      triples of one predicate or, with ``None``, of the whole store;
    * ``_predicate_terms()`` — every predicate with at least one triple.
    """

    def estimate_cardinality(self, subject: object = None,
                             predicate: object = None,
                             obj: object = None) -> float:
        """Estimated rows for a pattern, from indexes and statistics.

        Each position is a concrete term, ``None`` (free variable) or
        :data:`BOUND` (a variable whose value will be supplied by
        earlier join steps but is unknown at planning time).  Concrete
        positions use exact index counts; BOUND positions discount by
        the average fan-out.  For identical content every store
        returns bit-identical floats, which keeps planner ``explain()``
        output byte-stable across backends and shard counts.
        """
        # Spelled out per position, not looped: the planner asks nine
        # times per three-pattern plan and a loop cost it ~15% of a plan.
        term_key = self._term_key
        s = p = o = None
        if subject is not None and subject is not BOUND:
            s = term_key(subject)
            if s is None:
                return 0.0  # a term the store never saw matches nothing
        if predicate is not None and predicate is not BOUND:
            p = term_key(predicate)
            if p is None:
                return 0.0
        if obj is not None and obj is not BOUND:
            o = term_key(obj)
            if o is None:
                return 0.0
        base = self._matching(s, p, o)
        if base == 0:
            return 0.0
        # Divide in this order — subject, object, predicate — always:
        # float division does not commute bit for bit.
        estimate = float(base)
        if subject is BOUND:
            estimate /= max(1, self._distinct("s", p))
        if obj is BOUND:
            estimate /= max(1, self._distinct("o", p))
        if predicate is BOUND:
            estimate /= max(1, self._distinct("p", None))
        return estimate

    def predicate_statistics(self) -> dict[str, PredicateStats]:
        """A snapshot of per-predicate statistics, keyed by predicate term."""
        snapshot = {}
        for predicate in self._predicate_terms():
            key = self._term_key(predicate)
            snapshot[predicate] = PredicateStats(
                predicate=predicate,
                count=self._matching(None, key, None),
                distinct_subjects=self._distinct("s", key),
                distinct_objects=self._distinct("o", key),
            )
        return snapshot

    def add_all(self, triples: Iterable) -> int:
        """Insert many triples (one ``add_many``); returns how many were new."""
        return sum(self.add_many(triples))

    def discard(self, triple) -> bool:
        """Alias of :meth:`remove` (set-like naming)."""
        return self.remove(triple)

    def objects(self, subject: str, predicate: str) -> set:
        """All objects of ``(subject, predicate, ?)``."""
        return {t.object for t in self.match(subject, predicate, None)}

    def subjects(self, predicate: str, obj: object) -> set[str]:
        """All subjects of ``(?, predicate, object)``."""
        return {t.subject for t in self.match(None, predicate, obj)}

    def predicates(self) -> set[str]:
        """Every predicate with at least one triple."""
        return set(self._predicate_terms())

    def to_list(self) -> list[list]:
        """JSON-friendly dump in the shared deterministic order."""
        return canonical_triple_list(self)

    @classmethod
    def from_list(cls, payload: Iterable[list], **kwargs):
        """Build a store (``kwargs`` go to ``__init__``) from a dumped list."""
        store = cls(**kwargs)
        store.add_all(tuple(item) for item in payload)
        return store
