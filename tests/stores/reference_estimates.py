"""Test-only oracles for the shared store surface (PR 23).

``reference_estimate`` / ``reference_predicate_statistics`` are the
bodies of ``Graph.estimate_cardinality`` / ``Graph.predicate_statistics``
as they stood before the cardinality model moved into
:class:`repro.stores.rdf.stats.TripleStoreBase`, kept verbatim over a
``Graph``'s indexes (``self`` renamed ``graph``).  Every engine now runs
the one shared model, so comparing engines with each other would let a
wrong model agree with itself; these do not share a line with it.

``reference_merge_scatter`` is the router's old gather step
(``ShardedGraph._merge_scatter``), the oracle for what concatenating
per-shard runs into ``query.finish`` must keep returning.
"""

import heapq
from itertools import islice

from repro.stores.rdf.query import distinct_bindings, project_bindings
from repro.stores.rdf.stats import BOUND, PredicateStats


def reference_predicate_statistics(graph):
    stats = graph._stats
    return {
        graph._terms[predicate_id]: PredicateStats(
            predicate=graph._terms[predicate_id],
            count=stats.predicate_count(predicate_id),
            distinct_subjects=stats.distinct_subjects(predicate_id),
            distinct_objects=stats.distinct_objects(predicate_id),
        )
        for predicate_id in stats.predicate_ids()
    }


def reference_estimate(graph, subject=None, predicate=None, obj=None):
    total = len(graph._triples)
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
    if s_const and p_const and o_const:
        key = (subject_id, predicate_id, object_id)
        return 1.0 if key in graph._triples else 0.0
    if s_const and p_const:
        base = len(graph._spo.get(subject_id, {}).get(predicate_id, ()))
    elif p_const and o_const:
        base = len(graph._pos.get(predicate_id, {}).get(object_id, ()))
    elif s_const and o_const:
        base = len(graph._osp.get(object_id, {}).get(subject_id, ()))
    elif s_const:
        base = sum(len(objs) for objs in graph._spo.get(subject_id, {}).values())
    elif p_const:
        base = graph._stats.predicate_count(predicate_id)
    elif o_const:
        base = sum(len(preds) for preds in graph._osp.get(object_id, {}).values())
    else:
        base = total
    if base == 0:
        return 0.0

    estimate = float(base)
    if subject is BOUND:
        distinct = (
            graph._stats.distinct_subjects(predicate_id)
            if p_const
            else len(graph._spo)
        )
        estimate /= max(1, distinct)
    if obj is BOUND:
        distinct = (
            graph._stats.distinct_objects(predicate_id)
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
