"""Incrementally maintained materialized views and the result cache."""

import pytest

from repro.chaos import StorageFaultError
from repro.obs import Observability
from repro.stores.backends import SqliteTripleStore, StorageBackend
from repro.stores.rdf.graph import Graph, RDF, RDFS, Triple
from repro.stores.rdf.materialize import MaterializedGraph, QueryResultCache
from repro.stores.rdf.reasoner import RdfsReasoner, TransitiveReasoner
from repro.stores.rdf.rules import GenericRuleReasoner, Rule
from repro.stores.rdf.shard import ShardedGraph, shard_of
from repro.util.clock import ManualClock


SCHEMA = [
    ("Cat", RDFS.subClassOf, "Mammal"),
    ("Mammal", RDFS.subClassOf, "Animal"),
    ("hasPet", RDFS.domain, "Person"),
    ("hasPet", RDFS.range, "Animal"),
]


def materialized_copy(base_facts):
    """A freshly, fully materialized graph over the same base facts."""
    graph = Graph(base_facts)
    RdfsReasoner().forward(graph)
    return graph


class TestQueryResultCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryResultCache(capacity=0)

    def test_hit_requires_matching_version(self):
        cache = QueryResultCache()
        cache.put(1, ("k",), [{"?x": 1}])
        assert cache.get(1, ("k",)) == [{"?x": 1}]
        assert cache.get(2, ("k",)) is None  # stale entry dropped
        assert cache.get(1, ("k",)) is None  # ...and gone for good
        assert cache.hits == 1
        assert cache.misses == 2

    def test_lru_eviction(self):
        cache = QueryResultCache(capacity=2)
        cache.put(1, ("a",), [])
        cache.put(1, ("b",), [])
        cache.get(1, ("a",))  # refresh "a"
        cache.put(1, ("c",), [])  # evicts "b"
        assert cache.get(1, ("b",)) is None
        assert cache.get(1, ("a",)) == []


class TestMaterializedGraph:
    def test_construction_materializes(self):
        view = MaterializedGraph(Graph(SCHEMA + [("tom", RDF.type, "Cat")]))
        assert Triple("tom", RDF.type, "Animal") in view
        assert Triple("Cat", RDFS.subClassOf, "Animal") in view

    def test_incremental_add_equals_full(self):
        view = MaterializedGraph(Graph(SCHEMA))
        facts = [
            ("tom", RDF.type, "Cat"),
            ("alice", "hasPet", "tom"),
            ("Animal", RDFS.subClassOf, "LivingThing"),
        ]
        for fact in facts:
            view.add(fact)
        expected = materialized_copy(SCHEMA + facts)
        assert set(view.graph) == set(expected)
        assert view.base_facts() == {Graph._coerce(t) for t in SCHEMA + facts}

    def test_add_reports_novelty(self):
        view = MaterializedGraph(Graph(SCHEMA))
        assert view.add(("tom", RDF.type, "Cat"))
        assert not view.add(("tom", RDF.type, "Cat"))
        # Asserting an already-derived fact is not "new"...
        assert not view.add(("tom", RDF.type, "Mammal"))
        # ...but it becomes a base fact, so deleting the premise keeps it.
        view.remove(("tom", RDF.type, "Cat"))
        assert Triple("tom", RDF.type, "Mammal") in view

    def test_delete_retracts_stale_derivations(self):
        view = MaterializedGraph(Graph(SCHEMA + [("tom", RDF.type, "Cat")]))
        assert Triple("tom", RDF.type, "Animal") in view
        assert view.remove(("tom", RDF.type, "Cat"))
        assert Triple("tom", RDF.type, "Animal") not in view
        assert Triple("Mammal", RDFS.subClassOf, "Animal") in view  # schema-only

    def test_delete_of_unknown_fact_is_noop(self):
        view = MaterializedGraph(Graph(SCHEMA))
        version = view.version
        assert not view.remove(("nobody", RDF.type, "Cat"))
        assert view.version == version

    def test_multiple_reasoners_reach_joint_fixpoint(self):
        # The custom rule produces a subClassOf edge; the transitive
        # reasoner must then extend the closure from it, and vice versa.
        promote = Rule(
            premises=[("?c", "promoted", "?d")],
            conclusions=[("?c", RDFS.subClassOf, "?d")],
            name="promote",
        )
        view = MaterializedGraph(
            Graph([("Cat", RDFS.subClassOf, "Mammal")]),
            reasoners=[TransitiveReasoner(), GenericRuleReasoner([promote])],
        )
        view.add(("Mammal", "promoted", "Animal"))
        assert Triple("Cat", RDFS.subClassOf, "Animal") in view

    def test_inferred_count(self):
        view = MaterializedGraph(Graph(SCHEMA + [("tom", RDF.type, "Cat")]))
        assert view.inferred_count == len(view) - len(SCHEMA) - 1
        assert view.inferred_count > 0

    def test_select_caches_until_mutation(self):
        obs = Observability(clock=ManualClock())
        view = MaterializedGraph(
            Graph(SCHEMA + [("tom", RDF.type, "Cat")]), obs=obs)
        patterns = [("?x", RDF.type, "Animal")]
        first = view.select(patterns)
        again = view.select(patterns)
        assert first == again
        assert view.cache.hits == 1
        assert obs.metrics.counter("rdf_query_cache_hits_total").total() == 1.0
        # A mutation (and its derivations) invalidates via the version.
        view.add(("jerry", RDF.type, "Cat"))
        third = view.select(patterns)
        assert {b["?x"] for b in third} == {"tom", "jerry"}
        assert view.cache.hits == 1

    def test_cached_results_are_copies(self):
        view = MaterializedGraph(Graph([("a", "p", "b")]))
        first = view.select([("?x", "p", "?y")])
        first[0]["?x"] = "mutated"
        assert view.select([("?x", "p", "?y")]) == [{"?x": "a", "?y": "b"}]

    def test_filtered_queries_bypass_cache(self):
        view = MaterializedGraph(Graph([("a", "p", 1), ("b", "p", 2)]))
        patterns = [("?x", "p", "?v")]
        view.select(patterns, filters=[lambda b: b["?v"] > 1])
        view.select(patterns, filters=[lambda b: b["?v"] > 1])
        assert view.cache.hits == 0
        assert len(view.cache) == 0

    def test_version_is_monotonic_across_rebuild(self):
        view = MaterializedGraph(Graph(SCHEMA + [("tom", RDF.type, "Cat")]))
        before = view.version
        view.remove(("tom", RDF.type, "Cat"))  # clear + rebuild inside
        assert view.version > before

    def test_additions_counts_the_views_own_derivations(self):
        view = MaterializedGraph(Graph(SCHEMA))
        before = view.additions
        view.add(("tom", RDF.type, "Cat"))  # + Mammal, Animal
        assert view.additions == view.graph.additions == before + 3


class TestBatchWrites:
    """A view is a StorageBackend: a batch is one ``add_many`` on the
    wrapped store (one transaction per shard), then one ``derive``."""

    @staticmethod
    def subjects_on(shard, shards, count):
        """``count`` instance names whose triples live on ``shard``."""
        names = (f"pet{n}" for n in range(1000))
        return [name for name in names if shard_of(name, shards) == shard][:count]

    def test_a_view_is_a_storage_backend(self):
        view = MaterializedGraph(ShardedGraph(shards=2))
        assert isinstance(view, StorageBackend)
        assert view.add_many([("a", "p", 1), ("a", "p", 1.0)]) == [True, False]
        assert view.add_all([("a", "p", True), ("b", "p", 2)]) == 1
        assert view.discard(("b", "p", 2)) and not view.discard(("b", "p", 2))
        assert view.to_list() == view.graph.to_list() == [["a", "p", 1]]
        assert view.objects("a", "p") == {1} and view.subjects("p", 1) == {"a"}

    def test_a_batch_is_one_add_many_per_shard(self):
        calls = []

        class Spied(SqliteTripleStore):
            def add(self, triple):
                calls.append(("add", 1))
                return super().add(triple)

            def add_many(self, triples):
                triples = list(triples)
                calls.append(("add_many", len(triples)))
                return super().add_many(triples)

        router = ShardedGraph(shards=2, backend_factory=lambda index: Spied())
        router.add_all(SCHEMA)
        view = MaterializedGraph(router)
        batch = [(name, RDF.type, "Cat")
                 for shard in (0, 1) for name in self.subjects_on(shard, 2, 3)]
        del calls[:]
        assert view.add_all(batch) == 6
        # The batch itself: one add_many a shard.  What derive() then
        # infers from it is written triple by triple, as it always was.
        assert calls[:2] == [("add_many", 3), ("add_many", 3)]
        assert {kind for kind, _ in calls[2:]} <= {"add"}
        assert set(view.graph) == set(materialized_copy(SCHEMA + batch))
        assert view.base_facts() == {Graph._coerce(t) for t in SCHEMA + batch}

    def test_batch_and_one_by_one_reach_the_same_view(self):
        facts = [("tom", RDF.type, "Cat"), ("alice", "hasPet", "tom"),
                 ("tom", RDF.type, "Cat"), ("tom", RDF.type, "Mammal")]
        one_by_one = MaterializedGraph(Graph(SCHEMA))
        batched = MaterializedGraph(Graph(SCHEMA))
        # The batch is stored before anything is derived from it, so
        # the last fact is still new there; one by one it was derived.
        assert batched.add_many(facts) == [True, True, False, True]
        assert [one_by_one.add(t) for t in facts] == [True, True, False, False]
        assert set(batched.graph) == set(one_by_one.graph)
        assert batched.base_facts() == one_by_one.base_facts()
        # An asserted fact that was already derived is a base fact now.
        batched.remove(("tom", RDF.type, "Cat"))
        assert Triple("tom", RDF.type, "Mammal") in batched

    def test_a_shard_raising_mid_batch_leaves_the_view_as_it_was(self):
        def second_chunk_fails(chunk_index):
            if chunk_index == 1:
                raise StorageFaultError("shard0")

        router = ShardedGraph(shards=2, backend_factory=lambda index: (
            SqliteTripleStore(batch_size=2, fault_hook=second_chunk_fails)
            if index == 0 else SqliteTripleStore()))
        router.add_all(SCHEMA[:1])  # one chunk: under the fault's threshold
        view = MaterializedGraph(router)
        view.add(("tom", RDF.type, "Cat"))
        patterns = [("?x", RDF.type, "Mammal")]
        answer = view.select(patterns)
        before = (view.base_facts(), set(view.graph), view.version,
                  view.cache.hits, len(view.cache))
        batch = [(name, RDF.type, "Cat")
                 for shard in (0, 1) for name in self.subjects_on(shard, 2, 3)]
        with pytest.raises(StorageFaultError):
            view.add_many(batch)  # shard 0 goes first and rolls back
        assert (view.base_facts(), set(view.graph), view.version,
                view.cache.hits, len(view.cache)) == before
        assert view.select(patterns) == answer
        assert view.cache.hits == before[3] + 1  # still the cached answer
