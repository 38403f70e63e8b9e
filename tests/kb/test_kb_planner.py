"""Planner, explain() and materialization wiring on the PKB facade."""

import pytest

from repro.kb.knowledge_base import PersonalKnowledgeBase
from repro.obs import Observability
from repro.stores.rdf.graph import RDF, RDFS, REPRO, Graph, Triple
from repro.util.clock import ManualClock


def populated_kb(**kwargs):
    kb = PersonalKnowledgeBase(**kwargs)
    for index in range(5):
        kb.add_fact(f"p{index}", "rdf:type", "Person")
        kb.add_fact(f"p{index}", "name", f"N{index}")
    kb.add_fact("p1", "worksAt", "acme")
    return kb


def remove_subject(kb, subject):
    """Every statement about ``subject``, removed past the pipeline."""
    for triple in kb.graph.match(subject, None, None):
        kb.graph.remove(triple)


class TestExplain:
    def test_explain_orders_by_selectivity(self):
        kb = populated_kb()
        plan = kb.explain([
            ("?p", "rdf:type", "Person"),
            ("?p", "worksAt", "?org"),
        ])
        explained = plan.explain()
        assert explained["strategy"] == "greedy-selectivity"
        # The single worksAt edge runs before the five type triples.
        assert plan.pattern_order() == [1, 0]
        assert explained["steps"][0]["estimated_rows"] == 1.0


    def test_analyze_adds_actual_rows_and_nothing_else(self):
        kb = populated_kb()
        patterns = [("?p", "rdf:type", "Person"), ("?p", "name", "?n")]
        filters = [lambda b: b["?n"] != "N3"]
        plain = kb.explain(patterns, filters).explain()
        assert all("actual_rows" not in step for step in plain["steps"])
        analyzed = kb.explain(patterns, filters, analyze=True)
        steps = analyzed.explain()["steps"]
        assert [step.pop("actual_rows") for step in steps] == [5, 4]
        assert steps == plain["steps"]
        assert "(actual 4)" in analyzed.describe()

    @pytest.mark.parametrize("config", [
        {}, {"shards": 3}, {"storage": "sqlite"},
        {"storage": "sqlite", "shards": 2}])
    def test_analyze_counts_are_the_same_on_every_store(self, config):
        kb = populated_kb(**config)
        # A cross-subject join (broadcast route on a router) that dies
        # at its second step.
        plan = kb.explain([("?p", "worksAt", "?org"), ("?org", "name", "?n")],
                          analyze=True)
        inner = getattr(plan, "plan", plan)
        assert inner.actual_rows == [1, 0]
        star = kb.explain([("?p", "rdf:type", "Person"), ("?p", "name", "?n")],
                          analyze=True)
        assert getattr(star, "plan", star).actual_rows == [5, 5]


class TestQuery:
    def test_query_is_planned_by_default_and_matches_naive(self):
        kb = populated_kb()
        patterns = [("?p", "rdf:type", "Person"), ("?p", "worksAt", "?org")]
        assert kb.query(patterns) == kb.query(patterns, optimize=False)
        assert kb.query(patterns) == [{"?p": "p1", "?org": "acme"}]

    def test_query_emits_span_and_counter(self):
        obs = Observability(clock=ManualClock())
        kb = populated_kb(obs=obs)
        kb.query([("?p", "worksAt", "?org")])
        span = next(span for span in obs.collector.spans()
                    if span.name == "kb.query")
        assert span.attributes["patterns"] == 1
        assert obs.metrics.counter("kb_queries_total").total() == 1.0


class TestMaterialization:
    def test_writes_derive_incrementally(self):
        kb = PersonalKnowledgeBase()
        view = kb.enable_materialization()
        assert view is kb.view
        assert view.graph is kb.graph
        kb.add_fact("Cat", RDFS.subClassOf, "Mammal")
        kb.add_fact("tom", RDF.type, "Cat")
        assert Triple("tom", RDF.type, "Mammal") in kb.graph

    def test_query_served_from_view_cache(self):
        kb = PersonalKnowledgeBase()
        kb.enable_materialization()
        kb.add_fact("Cat", RDFS.subClassOf, "Mammal")
        kb.add_fact("tom", RDF.type, "Cat")
        patterns = [("?x", RDF.type, "Mammal")]
        first = kb.query(patterns)
        assert kb.query(patterns) == first == [{"?x": "tom"}]
        assert kb.view.cache.hits == 1

    def test_pipeline_statements_flow_through_view(self):
        kb = PersonalKnowledgeBase()
        kb.enable_materialization()
        assert kb.pipeline.graph is kb.view
        kb.pipeline.analyze_series(
            "acme", [0, 1, 2], [1.0, 2.0, 3.0], entity_type="Company")
        assert kb.pipeline.infer() > 0
        assert kb.pipeline.recommendations() == {
            "acme": "investment-candidate"}

    def test_restore_rewraps_view_around_fresh_graph(self):
        kb = PersonalKnowledgeBase()
        kb.enable_materialization()
        kb.add_fact("Cat", RDFS.subClassOf, "Mammal")
        kb.add_fact("tom", RDF.type, "Cat")
        snapshot = kb.snapshot()
        fresh = PersonalKnowledgeBase()
        fresh.enable_materialization()
        fresh.restore(snapshot)
        assert fresh.pipeline.graph is fresh.view
        assert fresh.view.graph is fresh.graph
        assert Triple("tom", RDF.type, "Mammal") in fresh.graph
        # Restored facts keep deriving incrementally.
        fresh.add_fact("jerry", RDF.type, "Cat")
        assert Triple("jerry", RDF.type, "Mammal") in fresh.graph


class TestIncrementalPipeline:
    def test_delta_mode_after_full_fixpoint(self):
        kb = PersonalKnowledgeBase()
        kb.pipeline.analyze_series("acme", [0, 1, 2], [1.0, 2.0, 3.0],
                                   entity_type="Company")
        kb.pipeline.infer()
        assert kb.pipeline.last_infer_mode == "full"
        kb.pipeline.analyze_series("globex", [0, 1, 2], [3.0, 2.0, 1.0],
                                   entity_type="Company")
        kb.pipeline.infer()
        assert kb.pipeline.last_infer_mode == "delta"
        assert kb.pipeline.recommendations() == {
            "acme": "investment-candidate", "globex": "watch-list"}

    def test_external_mutation_falls_back_to_full(self):
        kb = PersonalKnowledgeBase()
        kb.pipeline.analyze_series("acme", [0, 1, 2], [1.0, 2.0, 3.0],
                                   entity_type="Company")
        kb.pipeline.infer()
        # A write the pipeline never saw: the version check must force
        # a full fixpoint so its consequences are not missed.
        kb.graph.add(("globex", "repro:trend", "rising"))
        kb.pipeline.infer()
        assert kb.pipeline.last_infer_mode == "full"
        assert Triple("globex", "repro:outlook", "positive") in kb.graph

    RISING = ([0, 1, 2], [1.0, 2.0, 3.0])

    def test_facade_writes_are_part_of_the_delta(self):
        # The type fact arrives after acme's signal was derived; only a
        # delta that contains it can still make acme a candidate.  It
        # used to be masked by the next pipeline write.
        kb = PersonalKnowledgeBase()
        kb.pipeline.analyze_series("acme", *self.RISING)
        kb.pipeline.infer()
        kb.add_fact("acme", RDF.type, REPRO.Company, disambiguate=False)
        kb.pipeline.analyze_series("other", *self.RISING)
        kb.pipeline.infer()
        assert kb.pipeline.last_infer_mode == "delta"
        assert kb.pipeline.recommendations() == {
            "acme": "investment-candidate"}

    def test_unseen_add_is_not_masked_by_a_later_pipeline_write(self):
        kb = PersonalKnowledgeBase()
        kb.pipeline.analyze_series("acme", *self.RISING)
        kb.pipeline.infer()
        kb.graph.add(("acme", RDF.type, REPRO.Company))
        kb.pipeline.analyze_series("other", *self.RISING)
        kb.pipeline.infer()
        assert kb.pipeline.last_infer_mode == "full"
        assert kb.pipeline.recommendations() == {
            "acme": "investment-candidate"}

    def test_another_reasoners_derivations_force_a_full_pass(self):
        kb = PersonalKnowledgeBase()
        kb.add_fact(REPRO.Startup, RDFS.subClassOf, REPRO.Company,
                    disambiguate=False)
        kb.pipeline.analyze_series("acme", *self.RISING,
                                   entity_type="Startup")
        kb.pipeline.infer()
        assert kb.pipeline.recommendations() == {}
        assert kb.reason("rdfs") > 0  # acme is a Company now
        kb.pipeline.infer()
        assert kb.pipeline.last_infer_mode == "full"
        assert kb.pipeline.recommendations() == {
            "acme": "investment-candidate"}

    def test_removal_alone_keeps_delta_mode(self):
        kb = PersonalKnowledgeBase()
        kb.pipeline.analyze_series("acme", *self.RISING,
                                   entity_type="Company")
        kb.pipeline.infer()
        remove_subject(kb, "acme")
        kb.pipeline.analyze_series("globex", *self.RISING,
                                   entity_type="Company")
        kb.pipeline.infer()
        assert kb.pipeline.last_infer_mode == "delta"
        assert kb.pipeline.recommendations() == {
            "globex": "investment-candidate"}

    def test_nothing_is_derived_from_a_statement_removed_again(self):
        kb = PersonalKnowledgeBase()
        kb.pipeline.infer()
        kb.pipeline.analyze_series("acme", *self.RISING)
        remove_subject(kb, "acme")
        assert kb.pipeline.infer() == 0
        assert kb.pipeline.last_infer_mode == "delta"
        assert len(kb.graph) == 0

    def test_recording_a_removed_statement_again_keeps_delta_mode(self):
        kb = PersonalKnowledgeBase()
        kb.pipeline.infer()
        for _ in range(2):
            kb.pipeline.analyze_series("acme", *self.RISING)
            remove_subject(kb, "acme")
        kb.pipeline.analyze_series("acme", *self.RISING)
        assert kb.pipeline.infer() == 2  # outlook, signal: derived once
        assert kb.pipeline.last_infer_mode == "delta"

    def test_backend_without_the_counter_is_inferred_in_full(self):
        class Uncounted(Graph):
            @property
            def additions(self):
                raise AttributeError("additions")

        kb = PersonalKnowledgeBase(storage=lambda index: Uncounted())
        for subject in ("acme", "globex"):
            kb.pipeline.analyze_series(subject, *self.RISING,
                                       entity_type="Company")
            kb.pipeline.infer()
            assert kb.pipeline.last_infer_mode == "full"
        assert set(kb.pipeline.recommendations()) == {"acme", "globex"}
