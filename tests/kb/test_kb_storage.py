"""KB storage configuration: backends, sharding, byte-compatibility.

``PersonalKnowledgeBase(storage=..., shards=N)`` swaps the RDF store's
physical layer.  The default must stay bit-for-bit what it always was
(a single in-memory Graph); every other configuration must answer the
same queries with the same bytes.
"""

import asyncio

import pytest

from repro.kb import KnowledgeBase, PersonalKnowledgeBase
from repro.obs import Observability, names
from repro.stores.backends.sqlite import SqliteTripleStore
from repro.stores.rdf.graph import Graph
from repro.stores.rdf.query import RangeFilter
from repro.stores.rdf.shard import ShardedGraph
from repro.tenancy.context import tenant_scope
from repro.util.errors import ConfigurationError

CONFIGS = {
    "default": {},
    "sqlite": {"storage": "sqlite"},
    "sharded-memory": {"shards": 4},
    "sharded-sqlite": {"storage": "sqlite", "shards": 3},
    "custom-factory": {"storage": (lambda index: Graph()), "shards": 2},
}


def seeded(**kwargs) -> PersonalKnowledgeBase:
    kb = PersonalKnowledgeBase(**kwargs)
    for i in range(25):
        kb.add_fact(f"repro:city{i}", "repro:population", i * 10,
                    disambiguate=False)
        kb.add_fact(f"repro:city{i}", "rdf:type", "repro:City",
                    disambiguate=False)
    return kb


def test_knowledgebase_alias():
    assert KnowledgeBase is PersonalKnowledgeBase


def test_default_storage_is_plain_graph():
    assert type(PersonalKnowledgeBase().graph) is Graph


def test_one_shard_is_the_store_itself():
    # Not a one-shard router: nothing resident beside the file.
    kb = PersonalKnowledgeBase(storage="sqlite")
    assert type(kb.graph) is SqliteTripleStore
    kb.graph.close()
    built = []
    custom = PersonalKnowledgeBase(
        storage=lambda index: built.append(index) or Graph())
    assert type(custom.graph) is Graph and built == [0]


def test_unknown_storage_rejected():
    with pytest.raises(ConfigurationError):
        PersonalKnowledgeBase(storage="mysql")


@pytest.mark.parametrize("name", sorted(CONFIGS), ids=sorted(CONFIGS))
def test_every_config_answers_queries_identically(name):
    reference = seeded()
    kb = seeded(**CONFIGS[name])
    queries = [
        dict(patterns=[("?c", "rdf:type", "repro:City"),
                       ("?c", "repro:population", "?p")],
             order_by="?p", descending=True, limit=5),
        dict(patterns=[("?c", "repro:population", "?p")],
             filters=[RangeFilter("?p", 50, 120)], order_by="?p"),
        dict(patterns=[("repro:city7", "repro:population", "?p")]),
        dict(patterns=[("?c", "rdf:type", "?t")], variables=["?t"],
             distinct=True),
    ]
    for query in queries:
        assert kb.query(**query) == reference.query(**query), (name, query)
    # Snapshots are byte-identical regardless of physical layout.
    assert kb.snapshot()["graph"] == reference.snapshot()["graph"]


@pytest.mark.parametrize("name", sorted(CONFIGS), ids=sorted(CONFIGS))
def test_negative_limit_is_rejected_by_every_config(name):
    kb = seeded(**CONFIGS[name])
    with pytest.raises(ValueError, match="limit must be >= 0"):
        kb.query([("?c", "repro:population", "?p")], limit=-1)
    kb.enable_materialization()
    with pytest.raises(ValueError, match="limit must be >= 0"):
        kb.query([("?c", "repro:population", "?p")], order_by="?p", limit=-1)


def test_sharded_explain_reports_routing():
    kb = seeded(storage="sqlite", shards=3)
    assert isinstance(kb.graph, ShardedGraph)
    plan = kb.explain([("?c", "repro:population", "?p")],
                      [RangeFilter("?p", 0, None)])
    info = plan.explain()
    assert info["route"] == "scatter"
    assert info["shards"] == 3
    assert set(info) == {"strategy", "route", "target_shard", "shards", "plan"}
    # Default KBs keep returning the plain QueryPlan dict shape.
    flat = seeded().explain([("?c", "repro:population", "?p")])
    assert flat.explain()["strategy"] == "greedy-selectivity"


def test_sqlite_kb_persists_across_reopen(tmp_path):
    kb = seeded(data_dir=tmp_path, storage="sqlite", shards=2)
    snapshot = kb.snapshot()["graph"]
    kb.graph.close()
    reopened = PersonalKnowledgeBase(data_dir=tmp_path, storage="sqlite",
                                     shards=2)
    assert reopened.snapshot()["graph"] == snapshot
    assert (tmp_path / "triples" / "shard0.sqlite").exists()
    assert (tmp_path / "triples" / "shard1.sqlite").exists()
    reopened.graph.close()


def test_restore_reuses_configured_backends():
    kb = seeded(storage="sqlite", shards=2)
    snapshot = kb.snapshot()
    graph_before = kb.graph
    kb.restore(snapshot)
    assert kb.graph is graph_before  # cleared in place, not rebuilt
    assert kb.snapshot()["graph"] == snapshot["graph"]
    kb.graph.close()


@pytest.mark.parametrize("name", sorted(CONFIGS), ids=sorted(CONFIGS))
def test_restore_is_in_place_on_every_config(name):
    kb = seeded(**CONFIGS[name])
    graph_before = kb.graph
    in_range = dict(patterns=[("?c", "repro:population", "?p")],
                    filters=[RangeFilter("?p", 50, 120)], order_by="?p")
    assert len(kb.query(**in_range)) == 8  # Graph builds its numeric column
    other = PersonalKnowledgeBase()
    other.add_fact("repro:city99", "repro:population", 77, disambiguate=False)
    kb.restore(other.snapshot())
    assert kb.graph is graph_before
    assert kb.pipeline.graph is kb.graph
    assert kb.snapshot()["graph"] == other.snapshot()["graph"]
    # Ids, indexes, numeric columns and statistics all start over.
    assert kb.query(**in_range) == [{"?c": "repro:city99", "?p": 77}]
    assert kb.graph.predicate_statistics() == other.graph.predicate_statistics()


def test_materialization_composes_with_sharded_storage():
    kb = seeded(storage="sqlite", shards=3)
    kb.enable_materialization(reasoners=[])
    rows = kb.query([("?c", "repro:population", "?p")], order_by="?p",
                    limit=3)
    assert rows == seeded().query([("?c", "repro:population", "?p")],
                                  order_by="?p", limit=3)
    # Second identical query comes from the view's version-keyed cache.
    again = kb.query([("?c", "repro:population", "?p")], order_by="?p",
                     limit=3)
    assert again == rows
    assert kb.view.cache.hits >= 1
    kb.graph.close()


def test_aquery_matches_query():
    for config in ({}, {"shards": 3}):
        kb = seeded(**config)
        query = dict(patterns=[("?c", "repro:population", "?p")],
                     filters=[RangeFilter("?p", 100, None)], order_by="?p")
        assert asyncio.run(kb.aquery(**query)) == kb.query(**query)


@pytest.mark.parametrize("config", [{}, {"shards": 3}],
                         ids=["default", "sharded"])
def test_aquery_is_traced_and_tenant_scoped_like_query(config):
    obs = Observability(enabled=True)
    kb = seeded(obs=obs, **config)
    query = dict(patterns=[("?c", "repro:population", "?p")],
                 filters=[RangeFilter("?p", 100, None)], order_by="?p")
    expected = kb.query(**query)
    obs.tracer.collector.clear()
    queries = obs.metrics.counter(names.KB_QUERIES_TOTAL)
    counted = queries.value()

    async def main():
        with tenant_scope("acme"):
            return await kb.aquery(**query)

    assert asyncio.run(main()) == expected
    assert queries.value() == counted + 1
    spans = obs.tracer.collector.spans()
    roots = [span for span in spans if span.name == names.SPAN_KB_QUERY]
    assert len(roots) == 1
    assert roots[0].attributes["tenant"] == "acme"
    scans = [span for span in spans if span.name == names.SPAN_KB_SHARD_SCAN]
    assert len(scans) == (1 if config else 0)
    for scan in scans:
        assert scan.parent_id == roots[0].span_id
        assert scan.trace_id == roots[0].trace_id


def test_table_and_pipeline_flow_through_sharded_store():
    kb = seeded(storage="sqlite", shards=2)
    kb.ingest_csv_text("m", "name,value\na,1\nb,2\n")
    assert kb.table_to_rdf("m", subject_column="name") > 0
    rows = kb.query([("?s", "repro:value", "?v")], order_by="?v")
    assert [r["?v"] for r in rows] == [1, 2]
    kb.graph.close()
