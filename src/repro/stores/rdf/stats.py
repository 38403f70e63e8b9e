"""Per-predicate cardinality statistics for the triple store.

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

:class:`GraphStatistics` counts over any hashable keys: a
:class:`repro.stores.rdf.graph.Graph` feeds it interned integer term
ids (decoded for :meth:`Graph.predicate_statistics`), the sharded
router (:mod:`repro.stores.rdf.shard`) the terms themselves.
"""

from __future__ import annotations

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
