"""Tests for the transitive and RDFS reasoners."""

import pytest
from hypothesis import given, strategies as st

from repro.stores.rdf.graph import Graph, RDF, RDFS
from repro.stores.rdf.reasoner import RdfsReasoner, TransitiveReasoner


class TestTransitiveReasoner:
    def test_chain_closure(self):
        graph = Graph([
            ("a", RDFS.subClassOf, "b"),
            ("b", RDFS.subClassOf, "c"),
            ("c", RDFS.subClassOf, "d"),
        ])
        added = TransitiveReasoner().forward(graph)
        assert added == 3  # a-c, a-d, b-d
        assert ("a", RDFS.subClassOf, "d") in graph

    def test_idempotent(self):
        graph = Graph([("a", RDFS.subClassOf, "b"), ("b", RDFS.subClassOf, "c")])
        reasoner = TransitiveReasoner()
        reasoner.forward(graph)
        assert reasoner.forward(graph) == 0

    def test_cycle_terminates(self):
        graph = Graph([
            ("a", RDFS.subClassOf, "b"),
            ("b", RDFS.subClassOf, "a"),
        ])
        TransitiveReasoner().forward(graph)
        # Mutual subclass edges exist; no self-loops added.
        assert ("a", RDFS.subClassOf, "a") not in graph

    def test_custom_predicate(self):
        graph = Graph([
            ("tokyo", "locatedIn", "japan"),
            ("japan", "locatedIn", "asia"),
        ])
        TransitiveReasoner(predicates=["locatedIn"]).forward(graph)
        assert ("tokyo", "locatedIn", "asia") in graph

    def test_unrelated_predicates_untouched(self):
        graph = Graph([("a", "likes", "b"), ("b", "likes", "c")])
        TransitiveReasoner().forward(graph)
        assert ("a", "likes", "c") not in graph


class TestRdfsReasoner:
    def test_rdfs9_instance_inheritance(self):
        graph = Graph([
            ("Dog", RDFS.subClassOf, "Animal"),
            ("rex", RDF.type, "Dog"),
        ])
        RdfsReasoner().forward(graph)
        assert ("rex", RDF.type, "Animal") in graph

    def test_rdfs11_subclass_transitivity(self):
        graph = Graph([
            ("Dog", RDFS.subClassOf, "Mammal"),
            ("Mammal", RDFS.subClassOf, "Animal"),
        ])
        RdfsReasoner().forward(graph)
        assert ("Dog", RDFS.subClassOf, "Animal") in graph

    def test_rdfs2_domain(self):
        graph = Graph([
            ("employs", RDFS.domain, "Company"),
            ("ibm", "employs", "ann"),
        ])
        RdfsReasoner().forward(graph)
        assert ("ibm", RDF.type, "Company") in graph

    def test_rdfs3_range(self):
        graph = Graph([
            ("employs", RDFS.range, "Person"),
            ("ibm", "employs", "ann"),
        ])
        RdfsReasoner().forward(graph)
        assert ("ann", RDF.type, "Person") in graph

    def test_rdfs7_property_inheritance(self):
        graph = Graph([
            ("employs", RDFS.subPropertyOf, "knows"),
            ("ibm", "employs", "ann"),
        ])
        RdfsReasoner().forward(graph)
        assert ("ibm", "knows", "ann") in graph

    def test_rules_compose_transitively(self):
        """Inheritance through a chain needs several rules cooperating."""
        graph = Graph([
            ("Dog", RDFS.subClassOf, "Mammal"),
            ("Mammal", RDFS.subClassOf, "Animal"),
            ("rex", RDF.type, "Dog"),
        ])
        RdfsReasoner().forward(graph)
        assert ("rex", RDF.type, "Animal") in graph

    def test_configurable_subset(self):
        graph = Graph([
            ("Dog", RDFS.subClassOf, "Animal"),
            ("rex", RDF.type, "Dog"),
        ])
        RdfsReasoner(rules=("rdfs11",)).forward(graph)
        # Without rdfs9, no instance inheritance.
        assert ("rex", RDF.type, "Animal") not in graph

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            RdfsReasoner(rules=("rdfs99",))

    def test_idempotent(self):
        graph = Graph([
            ("Dog", RDFS.subClassOf, "Animal"),
            ("rex", RDF.type, "Dog"),
        ])
        reasoner = RdfsReasoner()
        reasoner.forward(graph)
        assert reasoner.forward(graph) == 0

    def test_monotonic(self):
        """Reasoning never removes triples."""
        graph = Graph([
            ("Dog", RDFS.subClassOf, "Animal"),
            ("rex", RDF.type, "Dog"),
        ])
        before = set(graph)
        RdfsReasoner().forward(graph)
        assert before <= set(graph)


class TestClosureProperties:
    @given(st.lists(
        st.tuples(st.sampled_from("abcdef"), st.just(RDFS.subClassOf),
                  st.sampled_from("abcdef")),
        max_size=15,
    ))
    def test_closure_is_idempotent_and_monotonic(self, edges):
        graph = Graph(edges)
        before = set(graph)
        reasoner = TransitiveReasoner()
        reasoner.forward(graph)
        after_once = set(graph)
        assert before <= after_once
        assert reasoner.forward(graph) == 0
        assert set(graph) == after_once

    @given(st.lists(
        st.tuples(st.sampled_from("abcde"), st.just(RDFS.subClassOf),
                  st.sampled_from("abcde")),
        max_size=12,
    ))
    def test_closure_matches_reachability(self, edges):
        graph = Graph(edges)
        TransitiveReasoner().forward(graph)
        # Reference: reachability by BFS over the original edges.
        adjacency = {}
        for subject, _, obj in edges:
            adjacency.setdefault(subject, set()).add(obj)
        for start in adjacency:
            reachable = set()
            frontier = list(adjacency[start])
            while frontier:
                node = frontier.pop()
                if node in reachable:
                    continue
                reachable.add(node)
                frontier.extend(adjacency.get(node, ()))
            for target in reachable:
                if target != start:
                    assert (start, RDFS.subClassOf, target) in graph


class TestApplyDelta:
    def test_transitive_delta_extends_closure(self):
        graph = Graph([("a", RDFS.subClassOf, "b"), ("b", RDFS.subClassOf, "c")])
        reasoner = TransitiveReasoner()
        reasoner.forward(graph)
        delta = ("c", RDFS.subClassOf, "d")
        graph.add(delta)
        # Only consequences of the delta: a-d and b-d.
        assert reasoner.forward_delta(graph, [delta]) == 2
        assert ("a", RDFS.subClassOf, "d") in graph

    def test_empty_delta_is_free(self):
        graph = Graph([("a", RDFS.subClassOf, "b")])
        reasoner = TransitiveReasoner()
        reasoner.forward(graph)
        assert reasoner.forward_delta(graph, []) == 0

    def test_rdfs_delta_matches_full_closure(self):
        schema = [
            ("hasPet", RDFS.domain, "Person"),
            ("Cat", RDFS.subClassOf, "Mammal"),
            ("Mammal", RDFS.subClassOf, "Animal"),
        ]
        graph = Graph(schema)
        reasoner = RdfsReasoner()
        reasoner.forward(graph)
        delta = [("alice", "hasPet", "tom"), ("tom", RDF.type, "Cat")]
        for triple in delta:
            graph.add(triple)
        reasoner.forward_delta(graph, delta)
        reference = Graph(schema + delta)
        RdfsReasoner().forward(reference)
        assert set(graph) == set(reference)
        assert ("tom", RDF.type, "Animal") in graph
        assert ("alice", RDF.type, "Person") in graph

    @given(st.lists(
        st.tuples(st.sampled_from("abcde"), st.just(RDFS.subClassOf),
                  st.sampled_from("abcde")),
        max_size=10,
    ), st.tuples(st.sampled_from("abcde"), st.just(RDFS.subClassOf),
                 st.sampled_from("abcde")))
    def test_delta_closure_equals_full_closure(self, edges, new_edge):
        graph = Graph(edges)
        reasoner = TransitiveReasoner()
        reasoner.forward(graph)
        graph.add(new_edge)
        reasoner.forward_delta(graph, [new_edge])
        reference = Graph(edges + [new_edge])
        TransitiveReasoner().forward(reference)
        assert set(graph) == set(reference)
