"""ShardedGraph behavior: routing, global stats, scatter execution.

Equivalence of *results* with the single store is covered by the
contract suite and the Hypothesis suite; these tests pin down the
router's decisions — which shard serves what, when queries scatter vs
broadcast, that a scatter is planned once and pushed down by the shards'
own hooks, that bulk writes are one batch per shard, that no query
starts a thread, and that the observability wiring works.
"""

import threading

import pytest

from repro.obs import Observability, names
from repro.stores.backends.sqlite import SqliteTripleStore
from repro.stores.rdf.graph import Graph
from repro.stores.rdf.plan import build_plan, build_sharded_plan
from repro.stores.rdf.query import RangeFilter, select
from repro.stores.rdf.shard import (
    ROUTE_BROADCAST,
    ROUTE_SCATTER,
    ROUTE_SINGLE,
    ShardedGraph,
    shard_of,
)


def populated(shards=4, factory=None, items=40, **kwargs) -> ShardedGraph:
    sharded = ShardedGraph(shards=shards, backend_factory=factory, **kwargs)
    triples = []
    for i in range(items):
        s = f"repro:item{i}"
        triples.append((s, "rdf:type", "repro:Item"))
        triples.append((s, "repro:score", i))
        triples.append((s, "repro:owner", f"repro:user{i % 5}"))
    sharded.add_all(triples)
    return sharded


def test_subject_routing_is_stable_and_partitioning():
    sharded = populated()
    for i in range(40):
        subject = f"repro:item{i}"
        index = shard_of(subject, 4)
        shard = sharded.shards[index]
        assert shard.match(subject, None, None), subject
        for other_index, other in enumerate(sharded.shards):
            if other_index != index:
                assert not other.match(subject, None, None)
    # Shard sizes partition the total.
    assert sum(len(shard) for shard in sharded.shards) == len(sharded)


def test_concrete_subject_operations_touch_one_shard():
    sharded = populated()
    route, target = sharded.route_select(
        [("repro:item3", "repro:score", "?v")])
    assert route == ROUTE_SINGLE
    assert target == shard_of("repro:item3", 4)
    rows = sharded.select([("repro:item3", "repro:score", "?v")])
    assert rows == [{"?v": 3}]


def test_star_queries_scatter():
    patterns = [("?s", "rdf:type", "repro:Item"),
                ("?s", "repro:score", "?v")]
    sharded = populated()
    assert sharded.route_select(patterns)[0] == ROUTE_SCATTER
    # Subject variable reused in object position → cannot colocate.
    assert sharded.route_select(
        [("?s", "repro:knows", "?s")])[0] == ROUTE_BROADCAST
    # Two different subject variables → cross-shard join → broadcast.
    assert sharded.route_select(
        [("?a", "repro:owner", "?u"),
         ("?b", "repro:owner", "?u")])[0] == ROUTE_BROADCAST


def test_scatter_results_match_single_store():
    sharded = populated()
    single = Graph()
    single.add_all(sharded)
    patterns = [("?s", "rdf:type", "repro:Item"), ("?s", "repro:score", "?v")]
    kwargs = dict(order_by="?v", descending=True, limit=7)
    assert sharded.select(patterns, **kwargs) == select(
        single, patterns, **kwargs)


def test_broadcast_join_matches_single_store():
    sharded = populated()
    single = Graph()
    single.add_all(sharded)
    patterns = [("?a", "repro:owner", "?u"), ("?b", "repro:owner", "?u")]

    def canon(rows):
        return sorted(tuple(sorted(b.items())) for b in rows)

    assert canon(sharded.select(patterns)) == canon(select(single, patterns))


@pytest.mark.parametrize("factory", [None, lambda i: SqliteTripleStore()],
                         ids=["memory", "sqlite"])
def test_native_numeric_scan_matches_generic_path(factory):
    sharded = populated(factory=factory)
    single = Graph()
    single.add_all(sharded)
    patterns = [("?s", "repro:score", "?v")]
    filters = [RangeFilter("?v", 5, 30, high_inclusive=False)]
    got = sharded.select(patterns, filters=filters, order_by="?v",
                         descending=True, limit=9)
    want = select(single, patterns, filters=filters, order_by="?v",
                  descending=True, limit=9)
    assert got == want
    if factory is not None:
        sharded.close()


def test_scatter_plans_once_and_asks_no_shard_for_an_estimate(monkeypatch):
    """The router plans a scatter against its own statistics: one
    ``build_plan`` a query, and — for patterns without a concrete object,
    which the router counts itself — not one shard-level estimate (on
    SQLite each is a ``COUNT(*)``).  The parent planned on every shard."""
    from repro.stores.rdf import plan as plan_module

    sharded = populated(factory=lambda i: SqliteTripleStore())
    plans, estimates = [], []
    real_build = plan_module.build_plan
    monkeypatch.setattr(
        plan_module, "build_plan",
        lambda graph, *args: plans.append(graph) or real_build(graph, *args))
    real_estimate = SqliteTripleStore.estimate_cardinality
    monkeypatch.setattr(
        SqliteTripleStore, "estimate_cardinality",
        lambda self, *args: estimates.append(args)
        or real_estimate(self, *args))
    star = [("?s", "repro:score", "?v"), ("?s", "repro:owner", "?u")]
    queries = [
        dict(patterns=star, order_by="?v", limit=5),
        dict(patterns=star[:1], filters=[RangeFilter("?v", 5, 30)],
             order_by="?v", descending=True, limit=9),
        dict(patterns=star, filters=[lambda b: b["?v"] > 3], distinct=True),
    ]
    for query in queries:
        assert sharded.route_select(query["patterns"])[0] == ROUTE_SCATTER
        rows = sharded.select(**query)
        assert rows
    assert plans == [sharded] * len(queries)
    assert estimates == []
    sharded.close()


def test_global_statistics_exactness_through_mutation():
    sharded = populated()
    single = Graph()
    single.add_all(sharded)
    for victim in ["repro:item0", "repro:item17", "repro:item39"]:
        sharded.remove((victim, "repro:owner",
                        f"repro:user{int(victim[10:]) % 5}"))
        single.remove((victim, "repro:owner",
                       f"repro:user{int(victim[10:]) % 5}"))
    assert sharded.predicate_statistics() == single.predicate_statistics()
    assert len(sharded) == len(single)
    sharded.clear()
    assert sharded.predicate_statistics() == {}
    assert sharded.estimate_cardinality(None, None, None) == 0.0


def test_rehydrates_statistics_from_reopened_shards(tmp_path):
    paths = [tmp_path / f"shard{i}.sqlite" for i in range(3)]
    first = ShardedGraph(shards=3,
                         backend_factory=lambda i: SqliteTripleStore(paths[i]))
    first.add_all([(f"s{i}", "p", i) for i in range(20)])
    stats = first.predicate_statistics()
    first.close()
    reopened = ShardedGraph(
        shards=3, backend_factory=lambda i: SqliteTripleStore(paths[i]))
    assert len(reopened) == 20
    assert reopened.predicate_statistics() == stats
    reopened.close()


def test_observability_wiring():
    obs = Observability(enabled=True)
    sharded = populated(obs=obs)
    sharded.select([("?s", "repro:score", "?v")],
                   filters=[RangeFilter("?v", 0, 10)])
    scans = obs.metrics.counter(names.KB_SHARD_SCANS_TOTAL)
    assert scans.value() == 4.0
    fanout = obs.metrics.get(names.KB_SHARD_FANOUT_MS)
    assert fanout is not None


def test_scatter_starts_no_threads():
    sharded = populated(factory=lambda i: SqliteTripleStore(), items=1400)
    assert len(sharded) > 4096
    before = threading.active_count()
    scatter = sharded.select([("?s", "repro:score", "?v")],
                             filters=[RangeFilter("?v", 100, 200)],
                             order_by="?v", limit=5)
    join = sharded.select([("?a", "repro:owner", "?u"),
                           ("repro:item7", "repro:owner", "?u")], limit=5)
    routed = sharded.select([("repro:item3", "repro:score", "?v")])
    assert [row["?v"] for row in scatter] == [100, 101, 102, 103, 104]
    assert len(join) == 5
    assert routed == [{"?v": 3}]
    # Not closed yet: nothing the router started may still be running.
    assert threading.active_count() == before
    sharded.close()


@pytest.mark.parametrize("option", [{"executor": None},
                                    {"parallel_threshold": 0},
                                    {"shard_reasoners": []}])
def test_removed_options_are_rejected(option):
    with pytest.raises(TypeError):
        ShardedGraph(shards=2, **option)


def test_add_many_flags_keep_input_order_across_shards():
    sharded = ShardedGraph(shards=3,
                           backend_factory=lambda i: SqliteTripleStore())
    first = [(f"s{i % 7}", "p", i % 5) for i in range(20)]
    seen = set()
    expected = [not (t in seen or seen.add(t)) for t in first]
    assert len({shard_of(s, 3) for s, _, _ in first}) == 3
    assert sharded.add_many(first) == expected
    # Duplicates of an earlier call, interleaved with new triples.
    second = [("s0", "p", 0), ("s9", "p", 9), ("s3", "p", 3), ("s9", "p", 9)]
    assert sharded.add_many(second) == [False, True, False, False]
    assert sharded.add_all(second + [("s8", "q", 1)]) == 1
    assert len(sharded) == sum(expected) + 2
    sharded.close()


def test_equal_literals_collapse_across_shards():
    # ``True == 1``: one term in a single store, first-seen wins — also
    # when the two subjects live on different shards.
    assert shard_of("s0", 2) != shard_of("s4", 2)
    triples = [("s0", "type", True), ("s4", "type", 1), ("s4", "n", 1.0)]
    sharded = ShardedGraph(shards=2)
    sharded.add_all(triples)
    assert sharded.to_list() == Graph(triples).to_list()
    assert all(t.object is True for t in sharded)


def test_fanout_plan_envelope():
    sharded = populated()
    single = Graph()
    single.add_all(sharded)
    patterns = [("?s", "repro:score", "?v")]
    filters = [RangeFilter("?v", 10, None)]
    plan = build_sharded_plan(sharded, patterns, filters)
    info = plan.explain()
    assert info["strategy"] == "shard-fanout"
    assert info["route"] == "scatter"
    assert info["shards"] == 4
    assert set(info) == {"strategy", "route", "target_shard", "shards", "plan"}
    assert info["plan"] == build_plan(single, patterns, filters).explain()
    assert "scatter" in plan.describe()
    # Non-sharded graphs still plan (single-shard envelope).
    flat = build_sharded_plan(single, patterns, filters)
    assert flat.explain()["route"] == "single-shard"
    assert flat.explain()["shards"] == 1
