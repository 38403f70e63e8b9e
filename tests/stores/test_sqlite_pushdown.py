"""``SqliteTripleStore.execute_plan`` ≡ the generic loop + ``finish``.

SQLite answers plans through the same optional hook ``Graph`` has.  It
compiles one shape — a one-step ``(?s p ?o)`` plan whose one pushed
filter is a ``RangeFilter`` on ``?o`` — to one ``scan_numeric``
statement (with ``ORDER BY onum … LIMIT`` when the ``top`` hint orders
by ``?o``) and hands every other plan to ``plan.join_by_match``.  Rows
**and their order** must be what that loop followed by ``select``'s tail
returns; the one documented exception (ints beyond float range have no
``onum``) is pinned at the bottom.  The NaN rank of ``_order_key``,
which both top-k executors share, is checked here as well because
SQLite is the store that never sorts one (a NaN ``onum`` is NULL).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stores.backends.sqlite import SqliteTripleStore
from repro.stores.rdf.graph import Graph
from repro.stores.rdf.plan import build_plan, execute_plan, join_by_match
from repro.stores.rdf.query import (
    RangeFilter,
    _order_key,
    finish,
    run_select,
    select,
)
from repro.stores.rdf.shard import ShardedGraph
from tests.stores.test_join_executors import GenericOnly

NAN = float("nan")
INF = float("inf")
# 1 / 1.0 / True and 0 / -0.0 / False are one term each (first seen
# wins), few values over many subjects give ties, and strings and
# infinities share the column with the numbers (a store refuses NaN).
OBJECTS = [0, -0.0, False, 1, 1.0, True, 2.5, -3, 7, 2 ** 53, INF, -INF,
           "x", "10"]
BOUNDS = [None, 0, 1, 1.0, True, 2.5, -3, 7, INF, -INF]

triples_strategy = st.lists(
    st.tuples(st.sampled_from([f"s{n}" for n in range(8)]),
              st.sampled_from(["p", "q"]), st.sampled_from(OBJECTS)),
    max_size=40)

ranges = st.builds(
    RangeFilter, st.just("?v"), st.sampled_from(BOUNDS),
    st.sampled_from(BOUNDS), low_inclusive=st.booleans(),
    high_inclusive=st.booleans())

SCAN = [("?s", "p", "?v")]
#: (patterns, filter makers) the hook must hand to the generic loop.
NOT_COMPILED = [
    (SCAN, []),
    (SCAN, [lambda test: test, lambda test: RangeFilter("?v", None, 7)]),
    (SCAN, [lambda test: RangeFilter("?s", test.low, test.high)]),
    (SCAN, [lambda test: (lambda b: test(b))]),  # not a RangeFilter: residual
    ([("?v", "p", "?v")], [lambda test: test]),
    ([("s1", "p", "?v")], [lambda test: test]),
    ([("?s", "?p", "?v")], [lambda test: test]),
    ([("?s", "p", "?v"), ("?s", "q", "?w")], [lambda test: test]),
]

tops = st.one_of(st.none(), st.tuples(
    st.sampled_from(["?v", "?v", "?s", "?w", "?absent"]), st.booleans(),
    st.sampled_from([0, 1, 3, 1000])))


def run_both(triples, patterns, filters, top):
    """(hook rows, its actual_rows, generic rows, its actual_rows, scans)."""
    store = SqliteTripleStore()
    store.add_all(triples)
    scans = []
    real = store.scan_numeric
    # On the instance, where benchmarks/e2e/layers.py installs its probe.
    store.scan_numeric = lambda *args, **kw: scans.append(kw) or real(*args, **kw)
    plan = build_plan(store, patterns, filters)
    rows = execute_plan(store, plan, filters, top)
    oracle = build_plan(store, patterns, filters)
    want = join_by_match(store, oracle, filters)
    store.close()
    return rows, plan.actual_rows, want, oracle.actual_rows, scans


def same_rows(rows, want):
    """``==`` with NaN-free rows, and the same key order in each row."""
    return rows == want and [list(r) for r in rows] == [list(r) for r in want]


@settings(max_examples=300, deadline=None)
@given(triples=triples_strategy, test=ranges, top=tops)
def test_a_range_scan_is_one_statement_with_the_generic_loops_rows(
        triples, test, top):
    rows, counts, want, want_counts, scans = run_both(triples, SCAN, [test], top)
    assert len(scans) == 1
    if top is not None and top[0] == "?v":
        # The cut ran in SQL: exactly select's stable top-k, in its order.
        _, descending, limit = top
        assert scans[0]["limit"] == limit
        assert same_rows(rows, finish(want, None, False, "?v", descending,
                                      limit))
        assert counts == [len(rows)]
    else:
        # Index order, uncut: select's own tail does the rest.
        assert scans[0]["limit"] is None
        assert same_rows(rows, want)
        assert counts == want_counts


@settings(max_examples=150, deadline=None)
@given(triples=triples_strategy, test=ranges, top=tops,
       shape=st.sampled_from(NOT_COMPILED))
def test_every_other_plan_goes_to_the_generic_loop(triples, test, top, shape):
    patterns, makers = shape
    filters = [make(test) for make in makers]
    rows, counts, want, want_counts, scans = run_both(
        triples, patterns, filters, top)
    assert scans == []
    assert same_rows(rows, want)
    assert counts == want_counts


@settings(max_examples=150, deadline=None)
@given(triples=triples_strategy, test=ranges, top=tops,
       variables=st.sampled_from([None, ["?v"], ["?s", "?v"]]))
def test_select_is_the_same_with_and_without_the_hook(
        triples, test, top, variables):
    store = SqliteTripleStore()
    store.add_all(triples)
    order_by, descending, limit = top or (None, False, None)
    query = dict(patterns=SCAN, filters=[test], variables=variables,
                 order_by=order_by, descending=descending, limit=limit)
    assert same_rows(select(store, **query),
                     select(GenericOnly(store), **query))
    store.close()


def test_ints_beyond_float_range_are_left_out_of_onum_scans():
    """The documented exclusion: such an int has no ``float()``, so no
    ``onum``; it stays reachable by equality and by the generic loop."""
    store = SqliteTripleStore()
    store.add_all([("a", "p", 10 ** 400), ("b", "p", 5)])
    query = dict(patterns=SCAN, filters=[RangeFilter("?v", 0, None)])
    assert select(GenericOnly(store), **query) == [
        {"?s": "a", "?v": 10 ** 400}, {"?s": "b", "?v": 5}]
    assert select(store, **query) == [{"?s": "b", "?v": 5}]
    assert select(store, [("?s", "p", 10 ** 400)]) == [{"?s": "a"}]
    store.close()


# -- NaN has one rank ----------------------------------------------------------

def shown(rows):
    """The ordered column, with NaN spelled so that lists compare."""
    return ["nan" if row["?v"] != row["?v"] else row["?v"] for row in rows]


def test_nan_sorts_below_every_number_and_ties_with_itself():
    assert _order_key(None) < _order_key(NAN) < _order_key(-INF)
    assert _order_key(NAN) == _order_key(float("nan"))
    assert _order_key(-INF) < _order_key(False) < _order_key(2.5) < _order_key("")


NAN_COLUMN = [3, NAN, 1, 2.5, float("nan"), -INF, 7, "x"]
NAN_TAILS = [(descending, limit) for descending in (False, True)
             for limit in (None, 3, 5)]


ASCENDING = ["nan", "nan", -INF, 1, 2.5, 3, 7, "x"]


def test_finish_gives_one_answer_whatever_order_nan_rows_arrive_in():
    want = [(ASCENDING[::-1] if descending else ASCENDING)[:limit]
            for descending, limit in NAN_TAILS]
    for seed in range(20):
        rows = [{"?v": value} for value in NAN_COLUMN]
        random.Random(seed).shuffle(rows)
        assert [shown(finish(list(rows), None, False, "?v", descending, limit))
                for descending, limit in NAN_TAILS] == want, seed


@pytest.mark.parametrize("make", [
    Graph, SqliteTripleStore, lambda: ShardedGraph(shards=4),
    lambda: ShardedGraph(shards=4,
                         backend_factory=lambda index: SqliteTripleStore()),
], ids=["graph", "sqlite", "sharded-memory", "sharded-sqlite"])
def test_an_ordered_column_with_nan_has_one_answer_on_every_store(make):
    # The one answer to a column holding NaN is a refusal that writes
    # nothing; without the NaNs every store orders it one way.
    triples = [(f"s{n}", "p", value) for n, value in enumerate(NAN_COLUMN)]
    answers = []
    for seed in range(12):
        random.Random(seed).shuffle(triples)
        store = make()
        with pytest.raises(ValueError):
            store.add_all(triples)
        assert len(store) == 0
        store.add_all(triple for triple in triples if triple[2] == triple[2])
        answers.append([shown(run_select(store, SCAN, order_by="?v",
                                         descending=descending, limit=limit))
                        for descending, limit in NAN_TAILS])
        getattr(store, "close", lambda: None)()
    assert all(answer == answers[0] for answer in answers)
    assert answers[0][0] == ASCENDING[2:]
    assert answers[0][3] == answers[0][0][::-1]
