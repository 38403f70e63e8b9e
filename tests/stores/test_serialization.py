"""Tests for Turtle-style graph serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.stores.rdf.graph import Graph
from repro.stores.rdf.serialization import from_turtle, to_turtle
from repro.util.errors import SerializationError

names = st.text(alphabet="abcxyz:_/0123456789", min_size=1, max_size=12).filter(
    lambda s: not s.replace(".", "").replace("-", "").isdigit()
    and s not in ("true", "false")
)
literals = st.one_of(
    names,
    st.integers(min_value=-10**9, max_value=10**9),
    st.booleans(),
    st.text(max_size=20),
)


class TestRoundtrip:
    def test_simple_graph(self):
        graph = Graph([
            ("ibm", "rdf:type", "Company"),
            ("ibm", "repro:founded", 1911),
            ("ibm", "repro:public", True),
            ("ibm", "rdfs:label", "International Business Machines"),
        ])
        restored = from_turtle(to_turtle(graph))
        assert set(restored) == set(graph)

    def test_empty_graph(self):
        assert to_turtle(Graph()) == ""
        assert len(from_turtle("")) == 0

    def test_deterministic_output(self):
        graph = Graph([("b", "p", 2), ("a", "p", 1)])
        assert to_turtle(graph) == to_turtle(Graph(graph))

    def test_strings_with_spaces_and_quotes(self):
        graph = Graph([("doc", "repro:title", 'He said "hello" there')])
        restored = from_turtle(to_turtle(graph))
        assert restored.match("doc", "repro:title", None)[0].object == \
            'He said "hello" there'

    def test_newlines_escaped(self):
        graph = Graph([("doc", "repro:body", "line one\nline two")])
        restored = from_turtle(to_turtle(graph))
        assert restored.match("doc", "repro:body", None)[0].object == \
            "line one\nline two"

    def test_numeric_looking_strings_stay_strings(self):
        graph = Graph([("x", "p", "42"), ("x", "q", 42), ("x", "r", "true")])
        restored = from_turtle(to_turtle(graph))
        assert restored.match("x", "p", None)[0].object == "42"
        assert restored.match("x", "q", None)[0].object == 42
        assert restored.match("x", "r", None)[0].object == "true"

    def test_floats_roundtrip(self):
        graph = Graph([("x", "repro:score", 0.875)])
        restored = from_turtle(to_turtle(graph))
        assert restored.match("x", "repro:score", None)[0].object == 0.875

    @given(st.lists(st.tuples(names, names, literals), max_size=25))
    def test_roundtrip_property(self, triples):
        graph = Graph(triples)
        restored = from_turtle(to_turtle(graph))
        assert set(restored) == set(graph)


class TestParsing:
    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nibm rdf:type Company .\n"
        graph = from_turtle(text)
        assert len(graph) == 1

    def test_missing_dot_rejected(self):
        with pytest.raises(SerializationError):
            from_turtle("a b c")

    def test_wrong_arity_rejected(self):
        with pytest.raises(SerializationError):
            from_turtle("a b .")
        with pytest.raises(SerializationError):
            from_turtle("a b c d .")

    def test_unterminated_string_rejected(self):
        with pytest.raises(SerializationError):
            from_turtle('a b "unterminated .')
