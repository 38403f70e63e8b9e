"""Differential tests: ``Graph.execute_plan`` ≡ the generic join loop.

``plan.execute_plan`` hands a plan to the store's own ``execute_plan``
hook when it has one (the in-memory :class:`Graph` joins set-at-a-time
in id space) and otherwise joins it itself, one ``match`` per binding.
The two must return ``==`` lists — same rows, same order, same
exception — and record the same ``actual_rows``.  The generic loop is
reached the way production reaches it: through a wrapper store that
has no hook.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads import KbChurn, KbQuery, query_kwargs
from repro.stores.rdf.graph import Graph
from repro.stores.rdf.plan import bound_filter, build_plan, execute_plan
from repro.stores.rdf.query import RangeFilter, select
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


def test_graph_has_the_hook_and_the_other_stores_do_not():
    from repro.stores.backends.base import StorageBackend
    from repro.stores.backends.sqlite import SqliteTripleStore
    from repro.stores.rdf.materialize import MaterializedGraph
    from repro.stores.rdf.shard import ShardedGraph

    assert callable(Graph().execute_plan)
    sqlite = SqliteTripleStore()
    for store in (sqlite, ShardedGraph(shards=2), MaterializedGraph(Graph())):
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

    def spy(self, plan, filters=()):
        calls.append(self)
        return real(self, plan, filters)

    monkeypatch.setattr(Graph, "execute_plan", spy)
    sharded.select([("?s", "p", "?v")], order_by="?v", limit=5)
    assert len(calls) == 3  # scatter: every shard joins its own slice
    del calls[:]
    sharded.select([("s1", "p", "?v")])
    assert len(calls) == 1  # single-shard
    del calls[:]
    sharded.select([("?s", "p", "?v"), ("?t", "p", "?v")], limit=3)
    assert calls == []  # broadcast: the generic loop over the router
