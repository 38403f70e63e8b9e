"""Tests for the SPARQL-like SELECT engine."""

import pytest

from repro.stores.rdf.graph import Graph
from repro.stores.rdf.query import is_variable, select, solve, solve_optional


@pytest.fixture
def graph():
    return Graph([
        ("japan", "rdf:type", "Country"),
        ("france", "rdf:type", "Country"),
        ("tokyo", "rdf:type", "City"),
        ("tokyo", "inCountry", "japan"),
        ("paris", "inCountry", "france"),
        ("paris", "rdf:type", "City"),
        ("japan", "population", 125),
        ("france", "population", 67),
        ("tokyo", "population", 14),
        ("paris", "population", 2),
    ])


class TestIsVariable:
    def test_variables(self):
        assert is_variable("?x")
        assert not is_variable("x")
        assert not is_variable(42)


class TestSolve:
    def test_single_pattern(self, graph):
        bindings = solve(graph, [("?c", "rdf:type", "Country")])
        assert {binding["?c"] for binding in bindings} == {"japan", "france"}

    def test_join_across_patterns(self, graph):
        bindings = solve(graph, [
            ("?city", "inCountry", "?country"),
            ("?country", "population", "?pop"),
        ])
        pairs = {(b["?city"], b["?pop"]) for b in bindings}
        assert pairs == {("tokyo", 125), ("paris", 67)}

    def test_shared_variable_consistency(self, graph):
        # ?x both a City and having population — joins on the same binding.
        bindings = solve(graph, [
            ("?x", "rdf:type", "City"),
            ("?x", "population", "?p"),
        ])
        assert {(b["?x"], b["?p"]) for b in bindings} == {("tokyo", 14), ("paris", 2)}

    def test_unsatisfiable(self, graph):
        assert solve(graph, [("?x", "rdf:type", "Planet")]) == []

    def test_ground_pattern_acts_as_check(self, graph):
        assert solve(graph, [("japan", "rdf:type", "Country")]) == [{}]
        assert solve(graph, [("japan", "rdf:type", "City")]) == []

    def test_repeated_variable_in_one_pattern(self):
        graph = Graph([("a", "knows", "a"), ("a", "knows", "b")])
        bindings = solve(graph, [("?x", "knows", "?x")])
        assert bindings == [{"?x": "a"}]


class TestBoundValueThatLooksLikeAVariable:
    """A stored term starting with ``?`` is a term once it is bound."""

    GRAPH = [("a", "says", "?what"), ("b", "p", "x"), ("c", "p", "y")]
    PATTERNS = [("a", "says", "?o"), ("?o", "p", "?z")]

    @pytest.mark.parametrize("optimize", [True, False])
    def test_select(self, optimize):
        graph = Graph(self.GRAPH)
        assert select(graph, self.PATTERNS, optimize=optimize) == []
        assert solve(graph, self.PATTERNS) == []

    def test_solve_optional(self):
        graph = Graph(self.GRAPH)
        solutions = [{"?o": "?what"}]
        assert solve_optional(graph, solutions, [("?o", "p", "?z")]) == [
            {"?o": "?what"}]
        graph.add(("?what", "p", "z"))
        assert solve_optional(graph, solutions, [("?o", "p", "?z")]) == [
            {"?o": "?what", "?z": "z"}]


class TestSelect:
    def test_projection(self, graph):
        rows = select(graph, [("?c", "rdf:type", "Country")], variables=["?c"])
        assert all(set(row) == {"?c"} for row in rows)

    def test_filters(self, graph):
        rows = select(
            graph,
            [("?p", "population", "?n")],
            filters=[lambda binding: binding["?n"] > 50],
        )
        assert {row["?p"] for row in rows} == {"japan", "france"}

    def test_order_by_and_limit(self, graph):
        rows = select(
            graph,
            [("?p", "population", "?n")],
            order_by="?n",
            descending=True,
            limit=2,
        )
        assert [row["?p"] for row in rows] == ["japan", "france"]

    def test_distinct(self, graph):
        graph.add(("osaka", "inCountry", "japan"))
        rows = select(
            graph,
            [("?city", "inCountry", "?country")],
            variables=["?country"],
            distinct=True,
        )
        assert sorted(row["?country"] for row in rows) == ["france", "japan"]

    def test_invalid_projection_rejected(self, graph):
        with pytest.raises(ValueError):
            select(graph, [("?x", "rdf:type", "City")], variables=["x"])

    def test_malformed_pattern_rejected(self, graph):
        with pytest.raises(ValueError):
            select(graph, [("?x", "rdf:type")])

    def test_negative_limit_rejected(self, graph):
        # ``rows[:-1]`` used to drop the last row silently.
        for kwargs in ({}, {"order_by": "?p"}, {"distinct": True}):
            with pytest.raises(ValueError, match="limit must be >= 0"):
                select(graph, [("?x", "population", "?p")], limit=-1, **kwargs)

    def test_default_projects_all_variables(self, graph):
        rows = select(graph, [("?x", "inCountry", "?y")])
        assert all(set(row) == {"?x", "?y"} for row in rows)
