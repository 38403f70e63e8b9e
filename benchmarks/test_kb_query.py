"""A9 — query planning and incremental materialization speedups.

Claims measured:
* the cost-based planner turns a worst-case-ordered 4-pattern join
  over ~10k triples from "expand everything, filter last" into
  "bind the single selective edge first" — ≥5x faster with byte-for-
  byte identical results;
* adding 100 facts to a materialized graph re-derives only their
  consequences (semi-naive delta), ≥5x faster than re-running the
  full fixpoint from scratch.
"""

import time

from benchmarks._report import fmt_row, report
from repro.stores.rdf.graph import Graph, RDF, RDFS
from repro.stores.rdf.materialize import MaterializedGraph
from repro.stores.rdf.plan import build_plan
from repro.stores.rdf.query import select
from repro.stores.rdf.reasoner import RdfsReasoner

PEOPLE = 1000
KNOWS_PER_PERSON = 9
CLASSES = 40
INSTANCES = 1200
DELTA_FACTS = 100


def _social_graph() -> Graph:
    """~10k triples: typed people, a dense knows-network, one employer."""
    graph = Graph()
    for index in range(PEOPLE):
        graph.add((f"p{index}", RDF.type, "Person"))
        for step in range(1, KNOWS_PER_PERSON + 1):
            graph.add((f"p{index}", "knows", f"p{(index + step * 7) % PEOPLE}"))
    graph.add(("p0", "worksAt", "acme"))
    return graph


def _canonical(bindings):
    return sorted(
        tuple(sorted(binding.items())) for binding in bindings
    )


def test_planned_join_beats_worst_case_order():
    graph = _social_graph()
    # Worst-case user order: the single selective pattern comes last,
    # so the naive engine expands the whole two-hop neighborhood first.
    patterns = [
        ("?x", RDF.type, "Person"),
        ("?x", "knows", "?y"),
        ("?y", "knows", "?z"),
        ("?x", "worksAt", "acme"),
    ]

    start = time.perf_counter()
    naive = select(graph, patterns, optimize=False)
    naive_seconds = time.perf_counter() - start

    start = time.perf_counter()
    planned = select(graph, patterns)
    planned_seconds = time.perf_counter() - start

    assert _canonical(planned) == _canonical(naive)
    assert len(planned) == KNOWS_PER_PERSON ** 2
    speedup = naive_seconds / planned_seconds
    plan_order = build_plan(graph, patterns).pattern_order()
    rows = [
        fmt_row("graph triples", len(graph)),
        fmt_row("result rows", len(planned)),
        fmt_row("naive join (s)", naive_seconds),
        fmt_row("planned join (s)", planned_seconds),
        fmt_row("speedup (x)", speedup),
        fmt_row("plan order", "->".join(map(str, plan_order))),
    ]
    report("a9.planner", "planned vs worst-case-ordered 4-pattern join", rows)
    assert plan_order[0] == 3  # the single worksAt edge runs first
    assert speedup >= 5.0


def _taxonomy_facts() -> list[tuple]:
    """A 40-deep class chain plus instances typed across it."""
    facts = [
        (f"c{index}", RDFS.subClassOf, f"c{index + 1}")
        for index in range(CLASSES - 1)
    ]
    facts += [
        (f"x{index}", RDF.type, f"c{index % CLASSES}")
        for index in range(INSTANCES)
    ]
    return facts


def test_incremental_materialization_beats_full_refixpoint():
    reasoners = lambda: [RdfsReasoner(("rdfs9", "rdfs11"))]  # noqa: E731
    base = _taxonomy_facts()
    delta = [(f"new{index}", RDF.type, f"c{CLASSES // 2}")
             for index in range(DELTA_FACTS)]

    # Incremental: the view is already closed over the base facts;
    # only the 100 new triples' consequences are derived.
    view = MaterializedGraph(Graph(base), reasoners=reasoners())
    start = time.perf_counter()
    view.add_all(delta)
    delta_seconds = time.perf_counter() - start

    # Full: rebuild the fixpoint over base + delta from scratch.
    full_graph = Graph(base + delta)
    reasoner = reasoners()[0]
    start = time.perf_counter()
    reasoner.forward(full_graph)
    full_seconds = time.perf_counter() - start

    assert set(view.graph) == set(full_graph)
    speedup = full_seconds / delta_seconds
    rows = [
        fmt_row("base facts", len(base)),
        fmt_row("delta facts", len(delta)),
        fmt_row("materialized triples", len(view.graph)),
        fmt_row("full fixpoint (s)", full_seconds),
        fmt_row("delta fixpoint (s)", delta_seconds),
        fmt_row("speedup (x)", speedup),
    ]
    report("a9.materialize",
           "incremental vs full re-materialization (+100 facts)", rows)
    assert speedup >= 5.0
