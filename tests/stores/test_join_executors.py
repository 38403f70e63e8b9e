"""Differential tests: ``Graph.execute_plan`` ≡ the generic join loop.

``plan.execute_plan`` hands a plan to the store's own ``execute_plan``
hook when it has one (the in-memory :class:`Graph` joins set-at-a-time
in id space; SQLite's hook has its own differential in
``test_sqlite_pushdown.py``) and otherwise joins it itself, one
``match`` per binding.
The two must return ``==`` lists — same rows, same order, same
exception — and record the same ``actual_rows``.  The generic loop is
reached the way production reaches it: through a wrapper store that
has no hook.
"""

import math
import random
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads import KbChurn, KbQuery, query_kwargs
from repro.stores.backends.sqlite import SqliteTripleStore
from repro.stores.rdf import plan as plan_module
from repro.stores.rdf.graph import Graph, Triple
from repro.stores.rdf.plan import bound_filter, build_plan, execute_plan
from repro.stores.rdf.query import RangeFilter, _order_key, finish, select
from repro.stores.rdf.stats import BOUND
from tests.stores.test_equivalence_backends import (
    build_query,
    query_strategy,
    triples_strategy as backend_triples,
)


class GenericOnly:
    """A wrapper store: what the planner and the generic loop read, no hook."""

    def __init__(self, graph: Graph) -> None:
        self.match = graph.match
        self.estimate_cardinality = graph.estimate_cardinality


def outcome(function):
    """The call's result, or the type of what it raised."""
    try:
        return function()
    except Exception as error:  # noqa: BLE001 — the type is the assertion
        return type(error)


def both_executors(graph, patterns, filters):
    """(rows, actual_rows) from the hook and from the generic loop."""
    results = []
    for store in (graph, GenericOnly(graph)):
        plan = build_plan(graph, patterns, filters)
        rows = outcome(lambda: execute_plan(store, plan, filters))
        results.append((rows, plan.actual_rows))
    return results


# -- (a) random graphs, random plans ------------------------------------------

# A small, dense vocabulary so that joins find rows: subjects recur as
# objects (chains), one predicate recurs as a subject and an object
# (variable-predicate joins), 1 / 1.0 / True are one term, and "?lit"
# is a stored term, not a variable.
SUBJECTS = ["s0", "s1", "s2", "p0"]
PREDICATES = ["p0", "p1"]
OBJECTS = ["s0", "s1", "p0", "?lit", 0, 1, 1.0, True, 2.5]
VARIABLES = ["?a", "?b", "?c"]

triples_strategy = st.lists(
    st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES),
              st.sampled_from(OBJECTS)),
    min_size=8, max_size=40)

# Variable predicates, a variable repeated inside one pattern and
# constants the graph never saw ("nope") all come out of these; the
# weights keep most joins connected and most plans non-empty.
pattern_strategy = st.lists(
    st.tuples(
        st.sampled_from(["?a", "?a", "?a", "?b", "?b", "?c",
                         "s0", "s1", "p0", "nope"]),
        st.sampled_from(["p0", "p0", "p0", "p1", "p1", "p1",
                         "?a", "?b", "?c", "nope"]),
        st.sampled_from(["?a", "?b", "?b", "?b", "?c", "?c", "?c",
                         "s0", "p0", 1, 2.5, "?lit", "nope"])),
    min_size=1, max_size=3)


def _raises(binding):
    return 1 // (binding["?a"] == "never")


FILTERS = [
    RangeFilter("?c", 0, 3),
    RangeFilter("?b", 1, None, low_inclusive=False),
    RangeFilter("?c", None, 2.5, high_inclusive=False),
    RangeFilter("?c", "low", 3),  # a bound no number compares with
    lambda b: b["?a"] != "s1",
    lambda b: isinstance(b["?b"], str) and b["?a"] != b["?b"],
    bound_filter(["?b"], lambda b: next(iter(b)) != "?c"),  # key order
    bound_filter(["?a", "?c"], lambda b: b["?a"] != b["?c"]),
    bound_filter(["?a"], lambda b: b["?a"] < "s2"),  # True, False or TypeError
    bound_filter(["?b"], _raises),
    lambda b: len(b) > 1,  # no variable named: stays residual
]


@settings(max_examples=400, deadline=None)
@given(triples=triples_strategy, patterns=pattern_strategy,
       filters=st.lists(st.sampled_from(FILTERS), max_size=3))
def test_hook_equals_generic_loop(triples, patterns, filters):
    graph = Graph(triples)
    (rows, counts), (want_rows, want_counts) = both_executors(
        graph, patterns, filters)
    assert rows == want_rows
    assert counts == want_counts
    if isinstance(rows, list):
        assert [list(row) for row in rows] == [list(row) for row in want_rows]


@settings(max_examples=150, deadline=None)
@given(triples=backend_triples, spec=query_strategy,
       variables=st.sampled_from([None, ["?s"], ["?v", "?s"], ["?w"]]))
def test_select_is_the_same_over_either_executor(triples, spec, variables):
    graph = Graph(triples)
    query = build_query(spec)
    assert (select(graph, variables=variables, **query)
            == select(GenericOnly(graph), variables=variables, **query))


def test_shapes_the_strategies_might_miss():
    graph = Graph([("a", "a", "a"), ("a", "p", "a"), ("a", "p", "b"),
                   ("b", "p", "b"), ("b", "q", 1), ("c", "q", 1.0),
                   ("c", "q", True), ("c", "r", 2)])
    cases = [
        [],
        [("?x", "?x", "?x")],
        [("?x", "p", "?x")],
        [("?x", "?p", "?x"), ("?x", "?p", "?y")],
        [("?s", "?p", "?o")],
        [("?s", "q", 1.0), ("?s", "?p", True)],
        [("a", "?p", "b"), ("?s", "?p", "?o")],
        [("?s", "q", "?v"), ("?t", "q", "?v")],
        [("nope", "?p", "?o"), ("?s", "?p", "?o")],
    ]
    for patterns in cases:
        (rows, counts), (want_rows, want_counts) = both_executors(
            graph, patterns, [])
        assert rows == want_rows, patterns
        assert counts == want_counts, patterns
    assert execute_plan(graph, build_plan(graph, []), []) == [{}]


def test_pushed_filters_agree_with_the_generic_loop():
    graph = Graph([("a", "r", "x"), ("b", "r", 3), ("a", "p", 1),
                   ("b", "p", 2.5), ("c", "p", "x"), ("d", "p", 7),
                   ("a", "p", "a"), ("a", "q", 2), ("b", "q", "a"),
                   ("d", "q", 1.0)])
    boom = bound_filter(["?s"], lambda b: 1 // 0)
    cases = [
        # One range over the object of a (?s p ?o) scan: decided in the scan.
        ([("?s", "p", "?v")], [RangeFilter("?v", 1, 5)], 2),
        ([("?s", "p", "?v")], [RangeFilter("?v", "low", 5)], TypeError),
        # Two ranges, and a range on a probe step: per row, on one column.
        ([("?s", "p", "?v")],
         [RangeFilter("?v", 1, 9),
          RangeFilter("?v", None, 7, high_inclusive=False)], 2),
        ([("?s", "q", "?w"), ("?s", "p", "?v")], [RangeFilter("?v", 2, 9)], 2),
        # A repeated variable: the range sees consistent rows only, and
        # those hold strings, which a bad bound never gets compared with.
        ([("?v", "p", "?v")], [RangeFilter("?v", "low", 5)], 0),
        # The first row passes the first filter and the second one raises,
        # before the first filter meets the number it cannot compare.
        ([("?s", "r", "?v")],
         [bound_filter(["?v"], lambda b: b["?v"] < "y"), boom],
         ZeroDivisionError),
    ]
    for patterns, filters, expected in cases:
        (rows, counts), (want_rows, want_counts) = both_executors(
            graph, patterns, filters)
        assert rows == want_rows, patterns
        assert counts == want_counts, patterns
        assert (len(rows) if isinstance(rows, list) else rows) == expected


def test_actual_rows_are_zero_past_the_step_that_emptied_the_join():
    graph = Graph([("a", "p", 1), ("b", "p", 5)])
    patterns = [("?s", "p", "?v"), ("?s", "q", "?w"), ("?w", "r", "?z")]
    for _, counts in both_executors(graph, patterns, []):
        assert counts == [0, 0, 0]
    filters = [RangeFilter("?v", 2, 9)]
    patterns = [("?s", "p", "?v"), ("?s", "p", 5)]
    (rows, counts), (want_rows, want_counts) = both_executors(
        graph, patterns, filters)
    assert rows == want_rows == [{"?s": "b", "?v": 5}]
    assert counts == want_counts == [1, 1]


# -- (b) the benchmark's read suites, smoke size ------------------------------

def _read_steps(workload_class, seed):
    state = workload_class("smoke").setup(seed)
    reads = [step for step in state.steps if "patterns" in step]
    return state.kb.graph, reads


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("workload_class", [KbQuery, KbChurn])
def test_benchmark_read_suites_row_for_row(workload_class, seed):
    graph, reads = _read_steps(workload_class, seed)
    assert reads
    generic = GenericOnly(graph)
    kinds = set()
    for step in reads:
        kinds.add(step["kind"])
        assert (select(graph, step["patterns"], **query_kwargs(step))
                == select(generic, step["patterns"], **query_kwargs(step)))
        filters = query_kwargs(step).get("filters", [])
        (rows, counts), (want_rows, want_counts) = both_executors(
            graph, step["patterns"], filters)
        assert rows == want_rows
        assert counts == want_counts
    expected = ({"join-topk", "range-topk", "point", "three-hop"}
                if workload_class is KbQuery else {"point", "two-pattern"})
    assert kinds == expected


def test_graph_and_sqlite_have_the_hook_the_router_and_the_view_do_not():
    from repro.stores.backends.base import StorageBackend
    from repro.stores.rdf.materialize import MaterializedGraph
    from repro.stores.rdf.shard import ShardedGraph

    sqlite = SqliteTripleStore()
    for store in (Graph(), sqlite):
        assert callable(store.execute_plan)
    # The router hands its shards the plan; the view asks its store.
    for store in (ShardedGraph(shards=2), MaterializedGraph(Graph())):
        assert not hasattr(store, "execute_plan")
    # The hook is optional: not a member of the storage protocol.
    assert isinstance(sqlite, StorageBackend)
    assert isinstance(ShardedGraph(shards=2), StorageBackend)
    assert "execute_plan" not in dir(StorageBackend)
    sqlite.close()


def test_scatter_and_single_shard_routes_reach_the_hook(monkeypatch):
    from repro.stores.rdf.shard import ShardedGraph

    sharded = ShardedGraph(shards=3)
    rng = random.Random(5)
    sharded.add_all((f"s{i}", "p", rng.randrange(10)) for i in range(30))
    calls = []
    real = Graph.execute_plan

    def spy(self, plan, filters=(), top=None):
        calls.append(top)
        return real(self, plan, filters, top)

    monkeypatch.setattr(Graph, "execute_plan", spy)
    sharded.select([("?s", "p", "?v")], order_by="?v", limit=5)
    # scatter: every shard joins its own slice, and cuts it to its own top 5
    assert calls == [("?v", False, 5)] * 3
    del calls[:]
    sharded.select([("s1", "p", "?v")])
    assert calls == [None]  # single-shard
    del calls[:]
    sharded.select([("?s", "p", "?v"), ("?t", "p", "?v")], limit=3)
    assert calls == []  # broadcast: the generic loop over the router


# -- (c) top-k before decode: the ``top`` hint ---------------------------------

def select_observed(store, **query):
    """``select``'s outcome, the plans it built and every ``top`` the
    graph's hook was handed on the way."""
    plans, hints = [], []
    real_build, real_hook = plan_module.build_plan, Graph.execute_plan

    def build(*args):
        plans.append(real_build(*args))
        return plans[-1]

    def hook(self, plan, filters=(), top=None):
        hints.append(top)
        return real_hook(self, plan, filters, top)

    with mock.patch.object(plan_module, "build_plan", build), \
            mock.patch.object(Graph, "execute_plan", hook):
        rows = outcome(lambda: select(store, **query))
    return rows, plans, hints


# Few distinct values over many subjects, so that a limit cuts through
# ties; 1 / 1.0 / True are one term, and strings, bools, ints and
# floats share the ordered column.
TOPK_VALUES = [0, 1, 1.0, True, False, 2.5, -3, "s1", "x", 7]

topk_triples = st.lists(
    st.tuples(st.sampled_from([f"s{n}" for n in range(8)]),
              st.sampled_from(["p", "q"]), st.sampled_from(TOPK_VALUES)),
    min_size=4, max_size=40)

topk_patterns = st.sampled_from([
    [("?s", "p", "?v")],
    [("?s", "p", "?v"), ("?s", "q", "?w")],
    [("?s", "?p", "?v")],
    [("?s", "q", "?w"), ("?t", "p", "?w")],
])

topk_extras = st.sampled_from([
    {},
    {"variables": ["?v"]},
    {"filters": [RangeFilter("?v", 0, 3)]},
    {"filters": [bound_filter(["?v", "?s"], lambda b: b["?v"] != b["?s"])]},
    # The hint must be off: rows are merged, added or dropped after the join.
    {"distinct": True, "variables": ["?v"]},
    {"optional": [("?s", "q", "?o")]},
    {"filters": [lambda b: len(b) > 1]},
])


@settings(max_examples=200, deadline=None)
@given(triples=topk_triples, patterns=topk_patterns, extras=topk_extras,
       order_by=st.sampled_from(["?v", "?s", "?w", "?absent"]),
       descending=st.booleans(), limit=st.sampled_from([0, 1, 3, 1000]))
def test_top_k_before_decode_equals_top_k_after(
        triples, patterns, extras, order_by, descending, limit):
    graph = Graph(triples)
    query = dict(patterns=patterns, order_by=order_by, descending=descending,
                 limit=limit, **extras)
    rows, (plan,), hints = select_observed(graph, **query)
    want_rows, (want_plan,), _ = select_observed(GenericOnly(graph), **query)
    assert rows == want_rows
    # Rows alive after each join step, before the top-k.
    assert plan.actual_rows == want_plan.actual_rows
    if isinstance(rows, list):
        assert [list(row) for row in rows] == [list(row) for row in want_rows]
    hinted = not ({"distinct", "optional"} & set(extras)
                  or plan.residual_filters)
    assert hints == [(order_by, descending, limit) if hinted else None]


def test_the_hint_alone_cuts_and_orders_the_rows():
    graph = Graph([(f"s{n}", "p", n % 3) for n in range(9)])
    patterns = [("?s", "p", "?v")]
    everything = execute_plan(graph, build_plan(graph, patterns))
    for descending in (False, True):
        plan = build_plan(graph, patterns)
        top = execute_plan(graph, plan, (), ("?v", descending, 4))
        # Stable: ties stay in join order, as sort + slice leaves them.
        assert top == sorted(everything, key=lambda b: b["?v"],
                             reverse=descending)[:4]
        assert plan.actual_rows == [9]
        # The generic loop ignores the hint: select cuts what it returns.
        plan = build_plan(graph, patterns)
        assert execute_plan(GenericOnly(graph), plan, (),
                            ("?v", descending, 4)) == everything
    assert execute_plan(graph, build_plan(graph, patterns), (),
                        ("?absent", True, 2)) == everything[:2]


# -- (d) the numeric column behind a range scan --------------------------------

NAN = float("nan")
BIG = 2 ** 53
# No NaN object: every store refuses one (test_store_surface.py).
COLUMN_OBJECTS = ["x", "10", True, False, 0, 1, -1, 2.5, -0.0, BIG, BIG + 1,
                  float(BIG), -BIG - 1, 10 ** 30, float("inf"), float("-inf")]
COLUMN_BOUNDS = [None, 0, 1, 1.0, True, 2.5, -1, BIG, BIG + 1, float(BIG),
                 10 ** 30, float("inf"), float("-inf"), NAN, "low", "10"]


def scan_answers(triples, test):
    """One range scan over ``p`` on every store and engine there is."""
    from repro.stores.rdf.shard import ShardedGraph

    sqlite = SqliteTripleStore()
    stores = [Graph(), sqlite, ShardedGraph(shards=2), ShardedGraph(
        shards=2, backend_factory=lambda index: SqliteTripleStore())]
    answers = []
    for store in stores:
        store.add_all(triples)
        run = getattr(store, "select", None) or (
            lambda *args, store=store, **kwargs: select(store, *args, **kwargs))
        for optimize in (True, False):
            rows = outcome(lambda: run([("?s", "p", "?v")], filters=[test],
                                       optimize=optimize))
            answers.append(sorted(map(repr, rows))
                           if isinstance(rows, list) else rows)
    sqlite.close()
    return answers


def test_nan_is_in_no_range():
    # A store refuses a NaN, so the filter is asked about one directly.
    triples = [("a", "p", 0.5), ("c", "p", 2.0), ("d", "p", "x"),
               ("e", "p", float("inf"))]
    for test, subjects in [
            (RangeFilter("?v", 0, 1), "a"),
            (RangeFilter("?v", None, 1), "a"),
            (RangeFilter("?v", 0, None, low_inclusive=False), "ace"),
            (RangeFilter("?v"), "ace")]:
        assert not test.accepts(NAN) and not test({"?v": NAN})
        want = sorted(repr({"?s": s, "?v": o}) for s, _, o in triples
                      if s in subjects)
        assert scan_answers(triples, test) == [want] * 8, test


@settings(max_examples=200, deadline=None)
@given(objects=st.lists(st.sampled_from(COLUMN_OBJECTS), min_size=0,
                        max_size=12),
       low=st.sampled_from(COLUMN_BOUNDS), high=st.sampled_from(COLUMN_BOUNDS),
       low_inclusive=st.booleans(), high_inclusive=st.booleans())
# Two ints one float: a column sorted by float(value) leaves them unsorted.
@example(objects=[BIG + 1, BIG], low=BIG + 1, high=None,
         low_inclusive=True, high_inclusive=True)
def test_column_accepts_what_the_filter_accepts(
        objects, low, high, low_inclusive, high_inclusive):
    test = RangeFilter("?v", low, high, low_inclusive=low_inclusive,
                       high_inclusive=high_inclusive)
    graph = Graph((f"s{n}", "p", value) for n, value in enumerate(objects))
    graph.add(("p", "q", 1))  # "p" is a term even when nothing is under it
    members = graph._pos.get(graph._term_ids["p"], {})
    # In index order: the first numeric object meets an incomparable bound.
    want = outcome(lambda: {o for o in members
                            if test.accepts(graph._terms[o])})

    def in_range():
        (ids, *_), start, stop = graph._in_range(graph._term_ids["p"], test)
        return set(ids[start:stop])

    assert outcome(in_range) == want
    patterns = [("?s", "p", "?v")]
    assert (outcome(lambda: select(graph, patterns, filters=[test]))
            == outcome(lambda: select(GenericOnly(graph), patterns,
                                      filters=[test])))


def column_is_exact(graph, predicate):
    """A column the graph holds lists exactly the predicate's non-NaN
    numeric objects, in value order, with their current cumulative
    bucket sizes and the right strictness flag."""
    pid = graph._term_ids.get(predicate)
    if pid not in graph._numeric:
        return True
    ids, values, sizes, strict = graph._numeric[pid]
    bucket = graph._pos.get(pid, {})
    numeric = {o for o in bucket
               if isinstance(graph._terms[o], (bool, int, float))
               and graph._terms[o] == graph._terms[o]}
    keys = [_order_key(value) for value in values]
    return (set(ids) == numeric and len(ids) == len(numeric)
            and values == [graph._terms[o] for o in ids]
            and values == sorted(values)
            and sizes == [sum(len(bucket[o]) for o in ids[:n])
                          for n in range(len(ids) + 1)]
            and strict == all(a < b for a, b in zip(keys, keys[1:])))


def test_a_write_to_the_scanned_predicate_drops_its_column():
    graph = Graph([("a", "p", 1), ("b", "p", 5), ("c", "p", 3), ("a", "q", 2)])
    pid = graph._term_ids["p"]

    def scan(low, high):
        rows = select(graph, [("?s", "p", "?v")],
                      filters=[RangeFilter("?v", low, high)])
        assert rows == select(GenericOnly(graph), [("?s", "p", "?v")],
                              filters=[RangeFilter("?v", low, high)])
        assert column_is_exact(graph, "p") and pid in graph._numeric
        return sorted(row["?s"] for row in rows)

    assert graph._numeric == {}  # lazily built: not before the first range scan
    assert scan(0, 4) == ["a", "c"]
    assert not graph.add(("a", "p", 1)) and pid in graph._numeric  # no write
    # A value the column has never seen: a stale one would leave "d" out.
    graph.add(("d", "p", 2))
    assert pid not in graph._numeric
    assert scan(0, 4) == ["a", "c", "d"]
    # The last triple of a value.  The scan walks the live index and only
    # asks the column for membership, so a leftover id is forgiven there:
    # that the column went is checked on the column.
    graph.remove(("c", "p", 3))
    assert column_is_exact(graph, "p") and pid not in graph._numeric
    assert scan(0, 4) == ["a", "d"]
    # Another predicate's write leaves this one's column alone.
    held = graph._numeric[pid]
    graph.add(("e", "q", 3))
    graph.remove(("a", "q", 2))
    assert graph._numeric[pid] is held
    assert scan(0, 4) == ["a", "d"]
    # clear() hands the same ids to other terms: a column that outlived it
    # would accept id-of-1, which now belongs to 9.
    before = dict(graph._term_ids)
    graph.clear()
    assert graph._numeric == {}
    graph.add_all([("a", "p", 9), ("b", "p", 5), ("d", "p", 1)])
    assert graph._term_ids[9] == before[1] and graph._term_ids["p"] == pid
    assert scan(0, 4) == ["d"]


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.one_of(
    st.tuples(st.sampled_from(["add", "add", "remove"]),
              st.sampled_from(["s0", "s1", "s2"]), st.sampled_from(["p", "q"]),
              st.sampled_from([0, 1, 2, 2.5, 3, True, "x", NAN])),
    st.tuples(st.just("clear")),
    st.tuples(st.just("read"), st.integers(-1, 3), st.integers(0, 4),
              st.booleans(), st.booleans())), min_size=2, max_size=25))
def test_reads_between_writes_see_the_graph_as_it_is(steps):
    # column_is_exact recomputes the cumulative bucket sizes from the
    # live index after every step: a column that outlived a write would
    # miscount actual_rows even where its ids still answer right.
    graph = Graph()
    for step in steps:
        if step[0] == "read":
            _, low, high, inclusive, descending = step
            for predicate in ("p", "q"):
                query = dict(
                    patterns=[("?s", predicate, "?v")], order_by="?v", limit=2,
                    descending=descending,
                    filters=[RangeFilter("?v", low, high,
                                         low_inclusive=inclusive)])
                rows, (plan,), _ = select_observed(graph, **query)
                want, (want_plan,), _ = select_observed(GenericOnly(graph),
                                                        **query)
                assert rows == want
                assert plan.actual_rows == want_plan.actual_rows
        elif step[0] == "clear":
            graph.clear()
        elif step[0] == "add" and step[3] != step[3]:
            size, version = len(graph), graph.version
            with pytest.raises(ValueError):
                graph.add(step[1:])
            assert (len(graph), graph.version) == (size, version)
        else:
            getattr(graph, step[0])(step[1:])
        assert column_is_exact(graph, "p") and column_is_exact(graph, "q")


# -- (e) a ranked range read walks the column ---------------------------------

# 1 / 1.0 / True and 0 / -0.0 / False intern to one term each; BIG + 1
# and BIG (float(BIG) is BIG's term) share a float, and so do 10 ** 400
# and inf: either pair makes the column non-strict, so the scan and the
# heap run instead of the walk.
WALK_VALUES = [0, -0.0, False, 1, 1.0, True, 2.5, -3, BIG, BIG + 1,
               float(BIG), 10 ** 400, -10 ** 400, float("inf"), "x"]
WALK_BOUNDS = [None, 0, 1, 2.5, -3, BIG, 10 ** 400, float("inf"), "low"]


@settings(max_examples=200, deadline=None)
@given(triples=st.lists(
           st.tuples(st.sampled_from([f"s{n}" for n in range(6)]),
                     st.just("p"), st.sampled_from(WALK_VALUES)),
           min_size=1, max_size=40),
       with_inf=st.booleans(),
       low=st.sampled_from(WALK_BOUNDS), high=st.sampled_from(WALK_BOUNDS),
       low_inclusive=st.booleans(), high_inclusive=st.booleans(),
       descending=st.booleans(), limit=st.sampled_from([0, 1, 3, 1000]))
@example(triples=[("s0", "p", BIG + 1), ("s1", "p", BIG), ("s2", "p", BIG)],
         with_inf=False, low=None, high=None, low_inclusive=True,
         high_inclusive=True, descending=True, limit=2)
@example(triples=[(f"s{n}", "p", n % 2) for n in range(6)], with_inf=False,
         low=0, high=None, low_inclusive=True, high_inclusive=True,
         descending=False, limit=3)
def test_the_walk_equals_the_generic_loop_and_finish(
        triples, with_inf, low, high, low_inclusive, high_inclusive,
        descending, limit):
    if not with_inf:
        triples = [t for t in triples if t[2] != float("inf")]
    graph = Graph(triples)
    test = RangeFilter("?v", low, high, low_inclusive=low_inclusive,
                       high_inclusive=high_inclusive)
    patterns = [("?s", "p", "?v")]
    plan = build_plan(graph, patterns, [test])
    rows = outcome(lambda: execute_plan(graph, plan, [test],
                                        ("?v", descending, limit)))
    want_plan = build_plan(graph, patterns, [test])
    want = outcome(lambda: finish(
        execute_plan(GenericOnly(graph), want_plan, [test]), None, False,
        "?v", descending, limit))
    assert rows == want
    assert plan.actual_rows == want_plan.actual_rows
    if isinstance(rows, list):
        assert [list(row) for row in rows] == [list(row) for row in want]
        assert column_is_exact(graph, "p")


def test_the_kb_query_range_topk_walks_the_column_and_decodes_its_cut(
        monkeypatch):
    state = KbQuery("smoke").setup(7)
    graph = state.kb.graph
    step = next(step for step in state.steps if step["kind"] == "range-topk")
    query = query_kwargs(step)
    want = select(GenericOnly(graph), step["patterns"], **query)
    select(graph, step["patterns"], **query)  # builds the column

    class CountingTerms(list):
        decoded = 0

        def __getitem__(self, index):
            CountingTerms.decoded += 1
            return list.__getitem__(self, index)

    def no_scan(*args):
        raise AssertionError("the range was scanned")

    monkeypatch.setattr(graph, "_terms", CountingTerms(graph._terms))
    monkeypatch.setattr(Graph, "_extend", no_scan)
    rows = select(graph, step["patterns"], **query)
    assert rows == want and len(rows) == query["limit"]
    # Two terms a row, and only the rows the cut keeps.
    assert CountingTerms.decoded == 2 * query["limit"]


class HoldsNan:
    """A caller-supplied store that, unlike ours, holds a NaN: the
    protocol only, matching a NaN by identity as interning did."""

    def __init__(self, triples):
        self.triples = [Triple(*triple) for triple in triples]

    def match(self, subject=None, predicate=None, obj=None):
        return [triple for triple in self.triples
                if subject in (None, triple.subject)
                and predicate in (None, triple.predicate)
                and (obj is None or obj is triple.object or obj == triple.object)]

    def estimate_cardinality(self, subject=None, predicate=None, obj=None):
        return float(len(self.match(*(None if term is BOUND else term
                                       for term in (subject, predicate, obj)))))


def test_a_row_that_binds_nan_is_kept_by_every_engine():
    from repro.stores.rdf.shard import ShardedGraph

    triples = [("a", "p", 1.5), ("b", "p", NAN), ("c", "p", "x"),
               ("a", "q", 1), ("b", "q", 2)]
    for store in (Graph(), SqliteTripleStore(), ShardedGraph(shards=2)):
        with pytest.raises(ValueError):
            store.add_all(triples)
        assert len(store) == 0
        getattr(store, "close", lambda: None)()
    store = HoldsNan(triples)
    for patterns, want in [
            ([("?s", "p", "?v")],
             [{"?s": "a", "?v": 1.5}, {"?s": "b", "?v": NAN},
              {"?s": "c", "?v": "x"}]),
            ([("?s", "q", "?w"), ("?s", "p", "?v")],
             [{"?s": "a", "?w": 1, "?v": 1.5}, {"?s": "b", "?w": 2, "?v": NAN}])]:
        answers = [select(store, patterns), select(store, patterns, optimize=False)]
        assert ([sorted(map(repr, rows)) for rows in answers]
                == [sorted(map(repr, want))] * 2), patterns


def test_an_int_beyond_float_range_ranks_as_an_infinity():
    from repro.stores.rdf.shard import ShardedGraph

    huge = 10 ** 400
    assert _order_key(huge) == (2, math.inf)
    assert _order_key(-huge) == (2, -math.inf)
    triples = [("a", "p", huge), ("b", "p", 1.0), ("c", "p", -huge),
               ("d", "p", "x")]
    graph = Graph(triples)
    sqlite = SqliteTripleStore()
    sharded = ShardedGraph(shards=2)
    for store in (sqlite, sharded):
        store.add_all(triples)
    runs = [partial(select, graph), partial(select, GenericOnly(graph)),
            partial(select, graph, optimize=False), partial(select, sqlite),
            sharded.select]
    for descending, limit, want in [(False, None, "cbad"), (True, None, "dabc"),
                                    (False, 2, "cb"), (True, 3, "dab")]:
        for run in runs:
            rows = run([("?s", "p", "?v")], order_by="?v",
                       descending=descending, limit=limit)
            assert "".join(row["?s"] for row in rows) == want, run
    sqlite.close()
