"""Test-only oracles for the shared store surface (PR 23).

``reference_estimate`` / ``reference_predicate_statistics`` are the
bodies of ``Graph.estimate_cardinality`` / ``Graph.predicate_statistics``
as they stood before the cardinality model moved into
:class:`repro.stores.rdf.stats.TripleStoreBase`, kept over a ``Graph``'s
indexes (``self`` renamed ``graph``).  Every engine now runs the one
shared model, so comparing engines with each other would let a wrong
model agree with itself; these do not share a line with it.  Where the
old bodies read the graph's incrementally kept per-predicate statistics,
they now take them from :func:`predicate_scan`, one pass over
``iter(graph)``, so the counters ``Graph`` keeps on ``add`` / ``remove``
are checked too.  ``reference_estimate`` scans on every call unless it
is handed the scan (A16 times the estimate alone that way).

``reference_merge_scatter`` is the router's old gather step
(``ShardedGraph._merge_scatter``), the oracle for what concatenating
per-shard runs into ``query.finish`` must keep returning.
"""

import heapq
from itertools import islice

from repro.stores.rdf.query import distinct_bindings, project_bindings
from repro.stores.rdf.stats import BOUND, PredicateStats


#: What a predicate term the graph interned but holds no triple of counts.
_NO_TRIPLES = PredicateStats("", 0, 0, 0)


def predicate_scan(graph):
    """Per-predicate statistics, counted by one pass over ``iter(graph)``."""
    rows = {}
    for triple in graph:
        rows.setdefault(triple.predicate, []).append(triple)
    return {
        predicate: PredicateStats(
            predicate, len(triples), len({triple.subject for triple in triples}),
            len({triple.object for triple in triples}))
        for predicate, triples in rows.items()
    }


def reference_predicate_statistics(graph):
    return predicate_scan(graph)


def reference_estimate(graph, subject=None, predicate=None, obj=None,
                       scan=None):
    total = len(graph)
    if total == 0:
        return 0.0
    subject_id = predicate_id = object_id = None
    if subject is not None and subject is not BOUND:
        subject_id = graph._term_ids.get(subject)
        if subject_id is None:
            return 0.0
    if predicate is not None and predicate is not BOUND:
        predicate_id = graph._term_ids.get(predicate)
        if predicate_id is None:
            return 0.0
    if obj is not None and obj is not BOUND:
        object_id = graph._term_ids.get(obj)
        if object_id is None:
            return 0.0

    s_const = subject_id is not None
    p_const = predicate_id is not None
    o_const = object_id is not None
    if p_const:
        scan = predicate_scan(graph) if scan is None else scan
        stats = scan.get(graph._terms[predicate_id], _NO_TRIPLES)
    if s_const and p_const and o_const:
        return 1.0 if (subject, predicate, obj) in graph else 0.0
    if s_const and p_const:
        base = len(graph._spo.get(subject_id, {}).get(predicate_id, ()))
    elif p_const and o_const:
        base = len(graph._pos.get(predicate_id, {}).get(object_id, ()))
    elif s_const and o_const:
        base = len(graph._osp.get(object_id, {}).get(subject_id, ()))
    elif s_const:
        base = sum(len(objs) for objs in graph._spo.get(subject_id, {}).values())
    elif p_const:
        base = stats.count
    elif o_const:
        base = sum(len(preds) for preds in graph._osp.get(object_id, {}).values())
    else:
        base = total
    if base == 0:
        return 0.0

    estimate = float(base)
    if subject is BOUND:
        distinct = (
            stats.distinct_subjects
            if p_const
            else len(graph._spo)
        )
        estimate /= max(1, distinct)
    if obj is BOUND:
        distinct = (
            stats.distinct_objects
            if p_const
            else len(graph._osp)
        )
        estimate /= max(1, distinct)
    if predicate is BOUND:
        estimate /= max(1, len(graph._pos))
    return estimate


def reference_merge_scatter(results, merge_key, variables, distinct,
                            descending, limit):
    """Gather per-shard solutions: stable merge, project, distinct, trim."""
    if merge_key is not None:
        merged_iter = heapq.merge(*results, key=merge_key,
                                  reverse=descending)
        if limit is not None and not distinct:
            merged = list(islice(merged_iter, limit))
        else:
            merged = list(merged_iter)
    else:
        merged = [binding for rows in results for binding in rows]
        if limit is not None and not distinct:
            merged = merged[:limit]
    if variables is not None:
        merged = project_bindings(merged, variables)
    if distinct:
        merged = distinct_bindings(merged)
    if limit is not None:
        merged = merged[:limit]
    return merged
