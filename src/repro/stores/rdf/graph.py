"""Triples and the indexed, dictionary-encoded RDF graph.

A statement has a subject, predicate and object (the paper's "The Java
HashMap class implements the Java Map interface" example).  Subjects
and predicates are strings (URIs or names); objects may be strings or
numbers — numeric literals matter because the PKB stores regression
results as statements.

Internally the graph *interns* every term into a small integer id
(dictionary encoding, the layout production triple stores use): the
SPO / POS / OSP hash indexes then store ints, which hash faster,
compare faster during joins, and keep each index entry a machine word
instead of a repeated string.  Terms are decoded back only at the API
boundary, so callers still see plain :class:`Triple` values.

Joins stay in id space too: :meth:`Graph.execute_plan` is the optional
backend hook :func:`repro.stores.rdf.plan.execute_plan` dispatches to.
It runs a whole query plan set-at-a-time over the three indexes — no
``Triple``, no per-row ``dict`` — and returns exactly the rows, in
exactly the order, that the generic one-``match``-per-binding loop
returns for the same plan.  Three things keep a ranked range query off
the per-row path.  A ``RangeFilter`` on the object of a ``(?s p ?o)``
scan is answered from a per-predicate *numeric column* (the numeric
object ids sorted by value): built lazily by the first such scan,
bisected by every later one, and dropped — never maintained — by the
next ``add`` / ``remove`` of a triple with that predicate and by
``clear()``.  An unranked scan still walks the POS index in its own
order and only asks the column which objects are in range, so row
order is untouched.  When ``select`` says only a top-k will be read,
the heap runs on the id rows and only the survivors are decoded.  And
when that top-k ranks the scanned object itself, there is no scan and
no heap: the column is walked from the asked-for end, each object's
subjects in index order, until ``limit`` rows — the heap's own order,
because no two column values share an ``_order_key`` rank (a column
where ``float()`` collapses two of them keeps the scan and the heap).

The planner's per-predicate statistics come from the indexes
themselves: the distinct objects of a predicate are its POS bucket's
size, and two counters per predicate — its triples, and its distinct
subjects (moved when an SPO ``(s, p)`` bucket is created or emptied) —
are kept by ``add`` / ``remove``.  A monotonically increasing
``version`` is what the incremental materializer keys on.

NaN is not a storable term: it equals nothing, itself included, so a
stored NaN could never be found, removed or deduplicated again.  A write
holding one raises ``ValueError`` before anything is written.  ``add``
checks only when a term is new to the dictionary, so a write of known
terms pays nothing for it; ``add_many`` checks its batch up front.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, islice, repeat
from operator import itemgetter, lt
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from repro.stores.rdf.stats import TripleStoreBase, reject_nan

if TYPE_CHECKING:  # pragma: no cover — import cycle (plan imports us)
    from repro.stores.rdf.plan import QueryPlan
    from repro.stores.rdf.query import RangeFilter

Term = str | int | float | bool

#: A predicate's numeric column: object ids by value, their values, the
#: cumulative subject-bucket sizes, and whether the ``_order_key`` ranks
#: are strictly increasing (see :meth:`Graph._in_range`).
_Column = tuple[list[int], list[Term], list[int], bool]

#: What probing an index for a key it does not hold yields: no second
#: level, no members, nothing to iterate.
_NOTHING = MappingProxyType({})


class _Namespace:
    """Attribute-style URI factory: ``RDFS.subClassOf`` etc."""

    def __init__(self, prefix: str) -> None:
        self._prefix = prefix

    def __getattr__(self, name: str) -> str:
        if name.startswith("_"):
            raise AttributeError(name)
        return self._prefix + name

    def __call__(self, name: str) -> str:
        return self._prefix + name


RDF = _Namespace("rdf:")
RDFS = _Namespace("rdfs:")
REPRO = _Namespace("repro:")


class Triple(NamedTuple):
    """One RDF statement: a 3-tuple with named fields, so it equals,
    hashes, unpacks and indexes exactly like ``(subject, predicate,
    object)``."""

    subject: str
    predicate: str
    object: Term


def _probe(index: dict, rows: list, first, second) -> list[tuple[int, ...]]:
    """Every row extended by each member of its ``index[first][second]``."""
    return [row + (member,) for row, a, b in zip(rows, first, second)
            for member in index.get(a, _NOTHING).get(b, _NOTHING)]


def _scan(index: dict, rows: list, first) -> list[tuple[int, ...]]:
    """Every row extended by each ``(second, member)`` under its ``index[first]``."""
    return [row + (b, member) for row, a in zip(rows, first)
            for b, members in index.get(a, _NOTHING).items()
            for member in members]


def _prune(index: dict, first: int, second: int, third: int) -> bool:
    """Drop ``third`` from ``index[first][second]``, and the buckets it
    empties; returns whether the ``(first, second)`` bucket went."""
    by_second = index[first]
    members = by_second[second]
    members.discard(third)
    if members:
        return False
    del by_second[second]
    if not by_second:
        del index[first]
    return True


def _decrement(counts: dict[int, int], key: int) -> None:
    """One less under ``key``; a count that reaches zero is dropped."""
    left = counts[key] - 1
    if left:
        counts[key] = left
    else:
        del counts[key]


def _column_test(accepts, decode, column: int):
    """A row test: ``accepts`` on the decoded term of one column."""
    return lambda row: accepts(decode(row[column]))


def _binding_test(predicate, decode, names: tuple[str, ...]):
    """A row test: ``predicate`` on the row decoded into a full binding."""
    return lambda row: predicate(dict(zip(names, map(decode, row))))


class Graph(TripleStoreBase):
    """A set of triples with interned terms and SPO / POS / OSP indexes."""

    def __init__(self, triples: Iterable[Triple | tuple] = ()) -> None:
        # Term dictionary: term -> id and id -> term.  The first-seen
        # representation of equal terms wins (1, 1.0 and True hash and
        # compare equal in Python, exactly as the previous set-of-Triples
        # storage collapsed them).
        self._term_ids: dict[Term, int] = {}
        self._terms: list[Term] = []
        self._triples: set[tuple[int, int, int]] = set()
        self._spo: dict[int, dict[int, set[int]]] = {}
        self._pos: dict[int, dict[int, set[int]]] = {}
        self._osp: dict[int, dict[int, set[int]]] = {}
        # predicate id -> its numeric column: built by the first range
        # scan, dropped by the next write to that predicate.
        self._numeric: dict[int, _Column] = {}
        # predicate id -> its triples, and its distinct subjects (SPO
        # (s, p) buckets); its distinct objects are ``len(_pos[p])``.
        self._predicate_triples: dict[int, int] = {}
        self._predicate_subjects: dict[int, int] = {}
        self._version = 0
        self._additions = 0
        for triple in triples:
            self.add(triple)

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        terms = self._terms
        for subject_id, predicate_id, object_id in self._triples:
            yield Triple(terms[subject_id], terms[predicate_id], terms[object_id])

    def __contains__(self, triple: Triple | tuple) -> bool:
        ids = self._term_ids
        subject, predicate, obj = triple
        # A term never interned gets None, and no stored key holds one.
        return (ids.get(subject), ids.get(predicate), ids.get(obj)) in self._triples

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumps on every successful change.

        Never decreases (not even on :meth:`clear`), so it is safe as a
        cache-invalidation key.
        """
        return self._version

    @property
    def additions(self) -> int:
        """How many triples were ever inserted; removals leave it alone.

        What a delta-maintained closure syncs on: while this has not
        moved past the adds a reasoner was told of, nothing it has not
        seen can have new consequences.
        """
        return self._additions

    @staticmethod
    def _coerce(triple: Triple | tuple) -> Triple:
        if isinstance(triple, Triple):
            return triple
        subject, predicate, obj = triple
        return Triple(subject, predicate, obj)

    # -- interning ---------------------------------------------------------

    def _intern(self, term: Term) -> int:
        term_id = self._term_ids.get(term)
        if term_id is None:
            term_id = len(self._terms)
            self._term_ids[term] = term_id
            self._terms.append(term)
        return term_id

    def _intern_triple(self, subject: Term, predicate: Term,
                       obj: Term) -> tuple[int, int, int]:
        """Ids for a triple holding a term new to the dictionary, interned
        in s, p, o order — after checking that none of them is NaN."""
        reject_nan(((subject, predicate, obj),))
        return self._intern(subject), self._intern(predicate), self._intern(obj)

    # -- mutation ----------------------------------------------------------

    def add(self, triple: Triple | tuple) -> bool:
        """Insert a triple; returns False when it was already present.

        Raises ``ValueError``, writing nothing, when a term is NaN.
        """
        ids = self._term_ids
        subject, predicate, obj = triple
        subject_id = ids.get(subject)
        predicate_id = ids.get(predicate)
        object_id = ids.get(obj)
        if subject_id is None or predicate_id is None or object_id is None:
            subject_id, predicate_id, object_id = self._intern_triple(
                subject, predicate, obj)
        key = (subject_id, predicate_id, object_id)
        if key in self._triples:
            return False
        self._triples.add(key)
        # Buckets are got-or-created by hand: ``setdefault`` would build
        # a throwaway dict / set on every call.
        by_predicate = self._spo.get(subject_id)
        if by_predicate is None:
            by_predicate = self._spo[subject_id] = {}
        objects = by_predicate.get(predicate_id)
        if objects is None:
            by_predicate[predicate_id] = {object_id}
            counts = self._predicate_subjects
            counts[predicate_id] = counts.get(predicate_id, 0) + 1
        else:
            objects.add(object_id)
        by_object = self._pos.get(predicate_id)
        if by_object is None:
            by_object = self._pos[predicate_id] = {}
        subjects = by_object.get(object_id)
        if subjects is None:
            by_object[object_id] = {subject_id}
        else:
            subjects.add(subject_id)
        by_subject = self._osp.get(object_id)
        if by_subject is None:
            by_subject = self._osp[object_id] = {}
        predicates = by_subject.get(subject_id)
        if predicates is None:
            by_subject[subject_id] = {predicate_id}
        else:
            predicates.add(predicate_id)
        counts = self._predicate_triples
        counts[predicate_id] = counts.get(predicate_id, 0) + 1
        if self._numeric:
            self._numeric.pop(predicate_id, None)
        self._version += 1
        self._additions += 1
        return True

    def add_many(self, triples: Iterable[Triple | tuple]) -> list[bool]:
        """Insert many triples; returns per-triple newness flags.

        The sharded router writes through this so it can maintain its
        global statistics from exactly the triples that were new.
        Batching backends make the call one transaction.  A batch
        holding a NaN term raises ``ValueError`` and writes nothing.
        """
        rows = list(triples)
        reject_nan(rows)
        return [self.add(triple) for triple in rows]

    def remove(self, triple: Triple | tuple) -> bool:
        """Delete a triple; returns whether it was present.

        Term-dictionary entries are kept even when their last triple
        goes away (standard interning behavior; ids stay stable).
        """
        ids = self._term_ids
        subject, predicate, obj = triple
        key = (ids.get(subject), ids.get(predicate), ids.get(obj))
        if key not in self._triples:
            return False
        self._triples.discard(key)
        subject_id, predicate_id, object_id = key
        if _prune(self._spo, subject_id, predicate_id, object_id):
            _decrement(self._predicate_subjects, predicate_id)
        _prune(self._pos, predicate_id, object_id, subject_id)
        _prune(self._osp, object_id, subject_id, predicate_id)
        _decrement(self._predicate_triples, predicate_id)
        if self._numeric:
            self._numeric.pop(predicate_id, None)
        self._version += 1
        return True

    def clear(self) -> None:
        """Drop every triple and the term dictionary; version still advances."""
        self._term_ids.clear()
        self._terms.clear()
        self._triples.clear()
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._numeric.clear()
        self._predicate_triples.clear()
        self._predicate_subjects.clear()
        self._version += 1

    # -- matching ----------------------------------------------------------

    def match(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: Term | None = None,
    ) -> list[Triple]:
        """All triples matching the pattern; ``None`` is a wildcard.

        Dispatches to the index that binds the most components, so even
        single-wildcard patterns avoid a full scan.
        """
        ids = self._term_ids
        terms = self._terms
        subject_id = predicate_id = object_id = None
        if subject is not None:
            subject_id = ids.get(subject)
            if subject_id is None:
                return []
        if predicate is not None:
            predicate_id = ids.get(predicate)
            if predicate_id is None:
                return []
        if obj is not None:
            object_id = ids.get(obj)
            if object_id is None:
                return []
        if subject is not None and predicate is not None and obj is not None:
            present = (subject_id, predicate_id, object_id) in self._triples
            return [Triple(subject, predicate, obj)] if present else []
        if subject is not None and predicate is not None:
            objects = self._spo.get(subject_id, {}).get(predicate_id, set())
            return [Triple(subject, predicate, terms[item]) for item in objects]
        if predicate is not None and obj is not None:
            subjects = self._pos.get(predicate_id, {}).get(object_id, set())
            return [Triple(terms[item], predicate, obj) for item in subjects]
        if subject is not None and obj is not None:
            predicates = self._osp.get(object_id, {}).get(subject_id, set())
            return [Triple(subject, terms[item], obj) for item in predicates]
        if subject is not None:
            return [
                Triple(subject, terms[predicate_key], terms[item])
                for predicate_key, objects in self._spo.get(subject_id, {}).items()
                for item in objects
            ]
        if predicate is not None:
            return [
                Triple(terms[item], predicate, terms[object_key])
                for object_key, subjects in self._pos.get(predicate_id, {}).items()
                for item in subjects
            ]
        if obj is not None:
            return [
                Triple(terms[subject_key], terms[item], obj)
                for subject_key, predicates in self._osp.get(object_id, {}).items()
                for item in predicates
            ]
        return list(self)

    # -- set-at-a-time joins -------------------------------------------------

    def execute_plan(self, plan: QueryPlan, filters: Sequence = (),
                     top: tuple[str, bool, int] | None = None) -> list[dict[str, Term]]:
        """Run a :class:`~repro.stores.rdf.plan.QueryPlan`'s join in id space.

        The running solutions are int tuples, one slot per variable in
        first-appearance order.  Each step interns its constants once
        and extends *all* rows in one comprehension over the index
        :meth:`match` would have picked, iterating the same containers
        in the same order and filtering by membership — so the rows are
        exactly the generic loop's, in its order.  Terms are decoded
        for pushed-down filters and for the result only: with ``top =
        (order_by, descending, limit)`` only for the ``limit`` rows that
        ``select``'s stable top-k would keep, returned in its order.  A
        one-step range scan ranked by its own object skips the scan and
        the heap: it walks the numeric column from the asked-for end and
        stops after ``limit`` rows (``actual_rows`` still counts the
        whole range, from the column's cumulative bucket sizes).
        """
        # Imported here: query.py imports this module.
        from repro.stores.rdf.query import RangeFilter, _order_key, is_variable

        ids = self._term_ids
        decode = self._terms.__getitem__
        slots: dict[str, int] = {}
        rows: list[tuple[int, ...]] = [()]
        counts = plan.actual_rows = [0] * len(plan.steps)
        for position, step in enumerate(plan.steps):
            # Per component: its id for every row (a constant's, or the
            # slot of a variable bound earlier), None when the step binds it.
            known = []
            fresh = []
            for component in step.pattern:
                if not is_variable(component):
                    term_id = ids.get(component)
                    if term_id is None:
                        return []  # a term the graph never saw matches nothing
                    known.append(repeat(term_id))
                elif component in slots:
                    known.append(map(itemgetter(slots[component]), rows))
                else:
                    known.append(None)
                    fresh.append(component)
            subject, predicate, obj = known
            pushed = [filters[index] for index in step.filter_indexes]
            accepted = None
            if (len(pushed) == 1 and type(pushed[0]) is RangeFilter
                    and subject is None and obj is None and type(predicate) is repeat
                    and pushed[0].variable == step.pattern[2] != step.pattern[0]):
                # A range over the object of a (?s p ?o) scan is read off
                # the predicate's sorted numeric column, before the scan.
                predicate_id = next(predicate)
                column, start, stop = self._in_range(predicate_id, pushed.pop())
                objects, _, sizes, strict = column
                in_range = objects[start:stop]
                if (top is not None and top[0] == step.pattern[2]
                        and strict and len(plan.steps) == 1):
                    # A top-k over the scanned variable alone is walked
                    # off the column from the end it asks for.  Ranks
                    # strictly increase along it, so the only ties are
                    # one object's subjects, emitted in bucket order as
                    # the scan emits them and the stable heap keeps them.
                    counts[0] = sizes[stop] - sizes[start]
                    _, descending, limit = top
                    bucket = self._pos.get(predicate_id, _NOTHING)
                    walk = reversed(in_range) if descending else in_range
                    names = (step.pattern[0], step.pattern[2])
                    return [dict(zip(names, (decode(s), decode(o))))
                            for s, o in islice(((s, o) for o in walk
                                                for s in bucket[o]), limit)]
                accepted = set(in_range)
            rows = self._extend(rows, subject, predicate, obj, accepted)
            width = len(slots)
            for variable in fresh:
                slots.setdefault(variable, len(slots))
            if len(slots) - width < len(fresh):
                # A variable repeated inside the pattern: its columns
                # must agree, and only the first is kept.
                first = [width + fresh.index(variable) for variable in fresh]
                keep = sorted(set(first))
                rows = [
                    row[:width] + tuple(row[column] for column in keep)
                    for row in rows
                    if all(row[width + offset] == row[column]
                           for offset, column in enumerate(first))
                ]
            if pushed:
                # Per row, every filter in order — what the generic loop
                # does, so the first filter to raise is the same one.
                names = tuple(slots)
                tests = [
                    _column_test(test.accepts, decode, slots[test.variable])
                    if type(test) is RangeFilter
                    else _binding_test(test, decode, names)
                    for test in pushed
                ]
                rows = [row for row in rows if all(test(row) for test in tests)]
            counts[position] = len(rows)
            if not rows:
                return []
        if top is not None:
            order_by, descending, limit = top
            if order_by in slots:
                column = slots[order_by]
                chooser = heapq.nlargest if descending else heapq.nsmallest
                rows = chooser(limit, rows,
                               key=lambda row: _order_key(decode(row[column])))
            else:
                rows = rows[:limit]  # every key alike: a stable top-k keeps the first
        names = tuple(slots)
        return [dict(zip(names, map(decode, row))) for row in rows]

    def _in_range(self, predicate_id: int,
                  test: RangeFilter) -> tuple[_Column, int, int]:
        """The predicate's numeric column and the ``[start, stop)`` of its
        object ids that a ``RangeFilter`` accepts.

        The column — built here on first use — holds the predicate's
        non-NaN numeric object ids sorted by value (Python's exact bool
        / int / float comparison, no coercion), those values, the
        cumulative sizes of their subject buckets (``sizes[i]`` rows lie
        before ``ids[i]``) and whether ``_order_key`` ranks the values
        strictly increasing (False when ``float()`` collapses two of
        them).  It is bisected for the closed interval; ``test.accepts``
        then decides the two end points, so inclusivity is defined there
        only, and a bound is compared (and may raise) exactly when
        ``accepts`` would compare it with some object.
        """
        column = self._numeric.get(predicate_id)
        if column is None:
            from repro.stores.rdf.query import _order_key

            terms = self._terms
            bucket = self._pos.get(predicate_id, _NOTHING)
            ids = [o for o in bucket
                   if isinstance(terms[o], (bool, int, float))
                   and terms[o] == terms[o]]
            ids.sort(key=terms.__getitem__)
            values = [terms[o] for o in ids]
            try:
                # _order_key ranks a number by its float; mapped in C here
                # because a write drops the column and a rebuild pays this.
                ranks = list(map(float, values))
            except OverflowError:  # an int beyond float range
                ranks = list(map(_order_key, values))
            column = self._numeric[predicate_id] = (
                ids, values,
                list(accumulate(map(len, map(bucket.__getitem__, ids)),
                                initial=0)),
                all(map(lt, ranks, ranks[1:])))
        ids, values, _, _ = column  # distinct terms: strictly increasing values
        stop = len(ids)
        start = 0 if test.low is None else bisect_left(values, test.low)
        if start < stop and not test.accepts(values[start]):
            start += 1  # an exclusive low bound's own value
        if start < stop and test.high is not None:
            stop = bisect_right(values, test.high, start)
            if start < stop and not test.accepts(values[stop - 1]):
                stop -= 1
        return column, start, stop

    def _extend(self, rows, subject, predicate, obj, accepted) -> list[tuple[int, ...]]:
        """Every row extended by the triples one pattern matches for it.

        ``subject`` / ``predicate`` / ``obj`` are per-row id columns, or
        None for the components the pattern binds (appended to the row
        in that order).  ``accepted`` optionally names the object ids a
        ``(?s p ?o)`` scan keeps.
        """
        if subject is not None:
            if predicate is not None:
                if obj is not None:
                    if type(predicate) is repeat and type(obj) is repeat:
                        # One (p, o) for every row: probe its subject
                        # bucket rather than the whole triple set.
                        bucket = self._pos.get(next(predicate), _NOTHING).get(
                            next(obj), _NOTHING)
                        return [row for row, s in zip(rows, subject)
                                if s in bucket]
                    triples = self._triples
                    return [row for row, key
                            in zip(rows, zip(subject, predicate, obj))
                            if key in triples]
                return _probe(self._spo, rows, subject, predicate)
            if obj is not None:
                return _probe(self._osp, rows, obj, subject)
            return _scan(self._spo, rows, subject)
        if predicate is not None:
            if obj is not None:
                return _probe(self._pos, rows, predicate, obj)
            pos = self._pos
            return [row + (s, o) for row, p in zip(rows, predicate)
                    for o, subjects in pos.get(p, _NOTHING).items()
                    if accepted is None or o in accepted
                    for s in subjects]
        if obj is not None:
            return _scan(self._osp, rows, obj)
        triples = self._triples
        return [row + triple for row in rows for triple in triples]

    # -- what the shared estimates and statistics read ---------------------

    def _term_key(self, term: Term) -> int | None:
        return self._term_ids.get(term)

    def _matching(self, subject_id: int | None, predicate_id: int | None,
                  object_id: int | None) -> int:
        """Exact triple count for id-or-None keys: O(1), except that
        subject-only / object-only patterns sum one small index bucket."""
        s_const = subject_id is not None
        p_const = predicate_id is not None
        o_const = object_id is not None
        if s_const and p_const and o_const:
            return int((subject_id, predicate_id, object_id) in self._triples)
        if s_const and p_const:
            return len(self._spo.get(subject_id, _NOTHING).get(predicate_id, ()))
        if p_const and o_const:
            return len(self._pos.get(predicate_id, _NOTHING).get(object_id, ()))
        if s_const and o_const:
            return len(self._osp.get(object_id, _NOTHING).get(subject_id, ()))
        if s_const:
            return sum(map(len, self._spo.get(subject_id, _NOTHING).values()))
        if p_const:
            return self._predicate_triples.get(predicate_id, 0)
        if o_const:
            return sum(map(len, self._osp.get(object_id, _NOTHING).values()))
        return len(self._triples)

    def _distinct(self, position: str, predicate_id: int | None) -> int:
        if position == "p":
            return len(self._pos)
        if predicate_id is None:
            return len(self._spo if position == "s" else self._osp)
        if position == "s":
            return self._predicate_subjects.get(predicate_id, 0)
        return len(self._pos.get(predicate_id, _NOTHING))

    def _predicate_terms(self) -> list[str]:
        return [self._terms[predicate_id] for predicate_id in self._pos]
