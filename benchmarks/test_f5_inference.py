"""F5 — analysis results → RDF store → inferred knowledge (Figure 5).

Paper claims reproduced:
* regression results (slope, r², trend, forecast) are stored as RDF
  statements;
* rule inference over those statements derives facts "beyond that
  produced by just the mathematical analysis itself" — counted here;
* the inferred facts convert back into relational/CSV form;
* RDFS reasoning scales to thousands of statements (throughput row).
"""

import pytest

from benchmarks._report import fmt_row, report
from repro import PersonalKnowledgeBase, RichClient, build_world
from repro.services.datasources import StockDataService
from repro.stores.rdf.graph import RDFS, REPRO


@pytest.fixture(scope="module")
def analyzed_kb():
    world = build_world(seed=47, corpus_size=10)
    client = RichClient(world.registry)
    kb = PersonalKnowledgeBase(client=client)
    companies = [entity for entity in world.gazetteer.entities_of_type("Company")]
    for entity in companies:
        symbol = StockDataService.symbol_for(entity.name)
        history = client.invoke("tickerfeed", "history",
                                {"symbol": symbol, "days": 180}).value
        kb.pipeline.analyze_series(entity.entity_id, history["days"],
                                   history["closes"],
                                   series_name=f"stock:{symbol}",
                                   entity_type="Company")
    yield world, client, kb, companies
    client.close()


def test_analysis_results_materialized_as_rdf(analyzed_kb):
    world, client, kb, companies = analyzed_kb
    statements_per_series = len(kb.graph) / len(companies)
    rows = [
        fmt_row("series analyzed", len(companies)),
        fmt_row("RDF statements stored", len(kb.graph)),
        fmt_row("statements per series", statements_per_series),
    ]
    report("F5.materialize", "regression results stored as RDF statements", rows)
    for entity in companies:
        predicates = {t.predicate for t in kb.graph.match(entity.entity_id, None, None)}
        assert {REPRO.slope, REPRO.r_squared, REPRO.trend,
                REPRO.forecast_next} <= predicates


def test_inference_derives_new_knowledge(analyzed_kb):
    world, client, kb, companies = analyzed_kb
    before = len(kb.graph)
    derived = kb.pipeline.infer()
    recommendations = kb.pipeline.recommendations()
    rows = [
        fmt_row("facts before inference", before),
        fmt_row("facts derived by rules", derived),
        fmt_row("companies with recommendations", len(recommendations)),
        "",
        fmt_row("company", "trend", "recommendation"),
    ]
    for entity in companies:
        trend = kb.graph.match(entity.entity_id, REPRO.trend, None)[0].object
        rows.append(fmt_row(entity.name, trend,
                            recommendations.get(entity.entity_id, "-")))
    report("F5.infer", "facts inferred beyond the mathematical analysis", rows)
    assert derived > 0
    assert recommendations
    # Every recommendation is consistent with the underlying trend.
    for entity_id, recommendation in recommendations.items():
        trend = kb.graph.match(entity_id, REPRO.trend, None)[0].object
        if recommendation == "investment-candidate":
            assert trend == "rising"
        if recommendation == "watch-list":
            assert trend == "falling"


def test_inferred_facts_convert_to_table(analyzed_kb):
    """'As the RDF store infers new facts, these facts can be converted
    to other formats.'"""
    world, client, kb, companies = analyzed_kb
    kb.pipeline.infer()
    from repro.stores.rdf.graph import RDF, Triple

    # Tag every company row as part of a virtual 'portfolio' table, then
    # pivot all its (including inferred) facts back into rows.
    for entity in companies:
        kb.graph.add(Triple(entity.entity_id, RDF.type, REPRO("table/portfolio")))
    table = kb.rdf_to_table("portfolio")
    csv_text = kb.export_table_csv("portfolio")
    report("F5.convert", "inferred facts pivoted back to relational/CSV", [
        fmt_row("columns", len(table.column_names)),
        fmt_row("rows", len(table)),
        fmt_row("CSV bytes", len(csv_text)),
        "columns include: " + ", ".join(sorted(table.column_names)[:8]) + ", ...",
    ])
    assert "recommendation" in table.column_names or any(
        "recommendation" in name for name in table.column_names)
    assert len(table) == len(companies)


def test_rdfs_reasoning_scale(analyzed_kb):
    """Throughput of the RDFS reasoner over a growing class hierarchy."""
    world, client, kb, companies = analyzed_kb
    import time

    from repro.stores.rdf.graph import Graph
    from repro.stores.rdf.reasoner import RdfsReasoner
    from repro.stores.rdf.graph import RDF

    rows = [fmt_row("instances", "input triples", "entailed", "wall ms")]
    for instances in (200, 800, 2_000):
        graph = Graph()
        depth = 8
        for level in range(depth):
            graph.add((f"class-{level}", RDFS.subClassOf, f"class-{level + 1}"))
        for index in range(instances):
            graph.add((f"item-{index}", RDF.type, "class-0"))
        started = time.perf_counter()
        entailed = RdfsReasoner(rules=("rdfs9", "rdfs11")).forward(graph)
        elapsed_ms = (time.perf_counter() - started) * 1000
        rows.append(fmt_row(instances, instances + depth, entailed, elapsed_ms))
        assert entailed == instances * depth + (depth * (depth - 1)) // 2
    report("F5.scale", "RDFS materialization throughput", rows)


def test_bench_forward_inference(benchmark, analyzed_kb):
    """pytest-benchmark: one forward pass over the analyzed graph."""
    world, client, kb, companies = analyzed_kb

    def infer_fresh():
        fresh = PersonalKnowledgeBase()
        fresh.graph.add_all(list(kb.graph))
        fresh.pipeline.graph = fresh.graph
        return fresh.pipeline.infer()

    assert benchmark(infer_fresh) >= 0
