"""Tests for relational hash indexes and SPARQL OPTIONAL/UNION."""

import pytest

from repro.stores.relational import Column, Table
from repro.stores.rdf.graph import Graph
from repro.stores.rdf.query import select, union


@pytest.fixture
def indexed_table():
    table = Table("events", [
        Column("kind", "str"), Column("value", "int"), Column("region", "str"),
    ])
    table.insert_many(
        {"kind": f"k{index % 5}", "value": index, "region": f"r{index % 3}"}
        for index in range(300)
    )
    table.create_index("kind")
    return table


class TestTableIndexes:
    def test_indexed_select_matches_scan(self, indexed_table):
        plain = Table("events", indexed_table.columns)
        plain.insert_many(dict(row) for row in indexed_table.rows)
        assert indexed_table.select(where={"kind": "k2"}) == plain.select(
            where={"kind": "k2"})

    def test_index_survives_inserts(self, indexed_table):
        indexed_table.insert({"kind": "k2", "value": 999, "region": "r0"})
        rows = indexed_table.select(where={"kind": "k2"})
        assert any(row["value"] == 999 for row in rows)

    def test_index_survives_updates(self, indexed_table):
        indexed_table.update({"kind": "k9"}, where={"value": 7})
        assert indexed_table.select(where={"kind": "k9"})[0]["value"] == 7
        assert all(row["value"] != 7
                   for row in indexed_table.select(where={"kind": "k2"}))

    def test_index_survives_deletes(self, indexed_table):
        indexed_table.delete(where={"kind": "k1"})
        assert indexed_table.select(where={"kind": "k1"}) == []

    def test_mixed_predicate_uses_index_then_filters(self, indexed_table):
        rows = indexed_table.select(where={"kind": "k1", "region": "r0"})
        assert rows
        assert all(row["kind"] == "k1" and row["region"] == "r0" for row in rows)

    def test_unknown_index_column_rejected(self, indexed_table):
        from repro.stores.relational import SchemaError

        with pytest.raises(SchemaError):
            indexed_table.create_index("missing")

    def test_callable_predicates_skip_index(self, indexed_table):
        rows = indexed_table.select(where=lambda row: row["kind"] == "k3")
        assert len(rows) == 60

    def test_indexed_columns_reported(self, indexed_table):
        assert indexed_table.indexed_columns() == {"kind"}

    def test_miss_returns_empty(self, indexed_table):
        assert indexed_table.select(where={"kind": "nope"}) == []


@pytest.fixture
def city_graph():
    return Graph([
        ("tokyo", "rdf:type", "City"),
        ("tokyo", "pop", 14),
        ("paris", "rdf:type", "City"),        # no population recorded
        ("osaka", "rdf:type", "City"),
        ("osaka", "pop", 2),
        ("japan", "rdf:type", "Country"),
        ("japan", "pop", 125),
    ])


class TestOptional:
    def test_optional_keeps_unmatched_solutions(self, city_graph):
        rows = select(city_graph, [("?x", "rdf:type", "City")],
                      optional=[("?x", "pop", "?p")])
        by_city = {row["?x"]: row.get("?p") for row in rows}
        assert by_city == {"tokyo": 14, "paris": None, "osaka": 2}

    def test_optional_does_not_multiply_required(self, city_graph):
        rows = select(city_graph, [("?x", "rdf:type", "City")],
                      optional=[("?x", "nickname", "?n")])
        assert len(rows) == 3

    def test_optional_with_filters_on_bound_values(self, city_graph):
        rows = select(
            city_graph, [("?x", "rdf:type", "City")],
            optional=[("?x", "pop", "?p")],
            filters=[lambda binding: binding.get("?p") is None
                     or binding["?p"] > 5],
        )
        assert {row["?x"] for row in rows} == {"tokyo", "paris"}

    def test_malformed_optional_rejected(self, city_graph):
        with pytest.raises(ValueError):
            select(city_graph, [("?x", "rdf:type", "City")],
                   optional=[("?x", "pop")])


class TestUnion:
    def test_union_of_types(self, city_graph):
        rows = union(city_graph,
                     [[("?x", "rdf:type", "City")],
                      [("?x", "rdf:type", "Country")]],
                     variables=["?x"])
        assert {row["?x"] for row in rows} == {"tokyo", "paris", "osaka", "japan"}

    def test_union_distinct_collapses_duplicates(self, city_graph):
        rows = union(city_graph,
                     [[("?x", "rdf:type", "City")],
                      [("?x", "pop", "?_ignored"), ("?x", "rdf:type", "City")]],
                     variables=["?x"])
        assert len(rows) == 3

    def test_union_without_distinct(self, city_graph):
        rows = union(city_graph,
                     [[("?x", "rdf:type", "City")],
                      [("?x", "rdf:type", "City")]],
                     variables=["?x"], distinct=False)
        assert len(rows) == 6

    def test_union_groups_may_bind_different_variables(self, city_graph):
        rows = union(city_graph,
                     [[("?city", "rdf:type", "City")],
                      [("?country", "rdf:type", "Country")]])
        assert any("?city" in row for row in rows)
        assert any("?country" in row for row in rows)


class TestOptionalCornerCases:
    def test_filter_on_unbound_optional_variable_runs_last(self, city_graph):
        # The filter's only variable is bound by the OPTIONAL group, so
        # the planner can never push it into the required join; it must
        # run after OPTIONAL extension — exactly like the naive engine.
        filters = [lambda b: b.get("?p") == 14]
        for optimize in (True, False):
            rows = select(
                city_graph, [("?x", "rdf:type", "City")],
                optional=[("?x", "pop", "?p")],
                filters=filters, optimize=optimize,
            )
            assert [row["?x"] for row in rows] == ["tokyo"]

    def test_optional_group_sharing_no_variables_cross_joins(self, city_graph):
        # No shared variables: every required solution is extended by
        # every optional match (a cartesian product), none eliminated.
        rows = select(city_graph, [("?x", "rdf:type", "Country")],
                      optional=[("?c", "rdf:type", "City")])
        assert len(rows) == 3
        assert {row["?x"] for row in rows} == {"japan"}
        assert {row["?c"] for row in rows} == {"tokyo", "paris", "osaka"}

    def test_optional_patterns_share_bindings_consistently(self, city_graph):
        # Both optional patterns bind ?p: within one solution the value
        # must agree, so ?other can only be a subject with the same pop.
        rows = select(
            city_graph, [("?x", "rdf:type", "City")],
            optional=[("?x", "pop", "?p"), ("?other", "pop", "?p")],
        )
        by_city = {row["?x"]: row for row in rows}
        assert by_city["tokyo"]["?other"] == "tokyo"
        assert by_city["osaka"]["?p"] == 2
        # paris has no pop: the whole optional group fails together and
        # the bare solution survives with both variables unbound.
        assert "?p" not in by_city["paris"]
        assert "?other" not in by_city["paris"]
