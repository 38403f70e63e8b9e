"""Tests for the triple store's graph and indexes."""

import pytest
from hypothesis import given, strategies as st

from repro.stores.rdf.graph import Graph, RDF, RDFS, REPRO, Triple, _Namespace


@pytest.fixture
def graph():
    return Graph([
        ("ibm", "type", "Company"),
        ("ibm", "hq", "armonk"),
        ("acme", "type", "Company"),
        ("ann", "worksFor", "ibm"),
        ("ann", "age", 34),
    ])


class TestBasics:
    def test_len_and_iter(self, graph):
        assert len(graph) == 5
        assert all(isinstance(triple, Triple) for triple in graph)

    def test_contains_tuple_or_triple(self, graph):
        assert ("ibm", "type", "Company") in graph
        assert Triple("ibm", "type", "Company") in graph
        assert ("ibm", "type", "Bakery") not in graph

    def test_add_returns_newness(self, graph):
        assert graph.add(("new", "p", "o")) is True
        assert graph.add(("new", "p", "o")) is False
        assert len(graph) == 6

    def test_add_all_counts_new(self, graph):
        added = graph.add_all([("a", "p", 1), ("ibm", "type", "Company")])
        assert added == 1

    def test_remove(self, graph):
        assert graph.remove(("ann", "age", 34)) is True
        assert graph.remove(("ann", "age", 34)) is False
        assert len(graph) == 4
        assert graph.match("ann", "age", None) == []

    def test_numeric_literals(self, graph):
        assert graph.match("ann", "age", 34)
        assert not graph.match("ann", "age", "34")


class TestMatch:
    def test_fully_bound(self, graph):
        assert len(graph.match("ibm", "type", "Company")) == 1

    def test_subject_predicate(self, graph):
        assert {t.object for t in graph.match("ibm", "type", None)} == {"Company"}

    def test_predicate_object(self, graph):
        assert {t.subject for t in graph.match(None, "type", "Company")} == {"ibm", "acme"}

    def test_subject_object(self, graph):
        assert {t.predicate for t in graph.match("ann", None, "ibm")} == {"worksFor"}

    def test_subject_only(self, graph):
        assert len(graph.match("ibm", None, None)) == 2

    def test_predicate_only(self, graph):
        assert len(graph.match(None, "type", None)) == 2

    def test_object_only(self, graph):
        assert len(graph.match(None, None, "Company")) == 2

    def test_all_wildcards(self, graph):
        assert len(graph.match()) == 5

    def test_no_match(self, graph):
        assert graph.match("ghost", None, None) == []

    def test_helpers(self, graph):
        assert graph.objects("ibm", "type") == {"Company"}
        assert graph.subjects("type", "Company") == {"ibm", "acme"}
        assert "worksFor" in graph.predicates()


class TestIndexCoherence:
    """All three indexes must answer identically after arbitrary churn."""

    @given(st.lists(
        st.tuples(st.sampled_from("abcd"), st.sampled_from("pqr"),
                  st.sampled_from(["x", "y", 1, 2])),
        max_size=40,
    ), st.data())
    def test_match_consistent_after_removals(self, triples, data):
        graph = Graph()
        for triple in triples:
            graph.add(triple)
        present = list(graph)
        if present:
            doomed = data.draw(st.sampled_from(present))
            graph.remove(doomed)
        expected = set(graph)
        for triple in expected:
            assert graph.match(triple.subject, triple.predicate, None).count(triple) == 1
            assert graph.match(None, triple.predicate, triple.object).count(triple) == 1
            assert graph.match(triple.subject, None, triple.object).count(triple) == 1
        # Full scan equals the union of per-subject scans.
        by_subject = {t for s in {t.subject for t in expected}
                      for t in graph.match(s, None, None)}
        assert by_subject == expected


class TestPersistence:
    def test_to_from_list_roundtrip(self, graph):
        restored = Graph.from_list(graph.to_list())
        assert set(restored) == set(graph)

    def test_to_list_deterministic(self, graph):
        assert graph.to_list() == Graph(graph).to_list()

    def test_copy_is_independent(self, graph):
        clone = Graph(graph)
        clone.add(("extra", "p", "o"))
        assert len(clone) == len(graph) + 1


class TestNamespaces:
    def test_attribute_style(self):
        assert RDF.type == "rdf:type"
        assert RDFS.subClassOf == "rdfs:subClassOf"

    def test_call_style(self):
        assert RDFS("label") == "rdfs:label"

    def test_an_attribute_term_is_one_shared_string(self):
        assert REPRO.slope is REPRO.slope
        assert REPRO.slope == REPRO("slope") == "repro:slope"

    def test_underscore_names_raise_and_are_not_memoised(self):
        namespace = _Namespace("t:")
        for _ in range(2):
            with pytest.raises(AttributeError):
                namespace._x
        assert "_x" not in vars(namespace)

    def test_the_memo_holds_only_the_names_read(self):
        namespace = _Namespace("t:")
        namespace("called")
        assert namespace.read == "t:read"
        assert namespace.read == "t:read"
        assert vars(namespace) == {"_prefix": "t:", "read": "t:read"}
