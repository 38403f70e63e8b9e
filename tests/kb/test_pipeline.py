"""Tests for the analyze → RDF → infer pipeline (Figure 5)."""

import pytest

from repro.kb.pipeline import AnalysisPipeline, default_rules
from repro.stores.rdf.graph import Graph, RDF, REPRO
from repro.stores.rdf.rules import Rule


@pytest.fixture
def pipeline():
    return AnalysisPipeline()


RISING = ([0, 1, 2, 3, 4], [10.0, 12.1, 13.9, 16.2, 18.0])
FALLING = ([0, 1, 2, 3, 4], [18.0, 16.2, 13.9, 12.1, 10.0])
NOISY_FLATISH = ([0, 1, 2, 3, 4, 5], [10.0, 10.4, 9.8, 10.2, 9.9, 10.1])


class TestAnalyzeSeries:
    def test_results_stored_as_statements(self, pipeline):
        result = pipeline.analyze_series("C_x", *RISING, entity_type="Company")
        graph = pipeline.graph
        assert ("C_x", REPRO.trend, "rising") in graph
        assert ("C_x", RDF.type, REPRO("Company")) in graph
        assert graph.match("C_x", REPRO.slope, None)
        assert result["trend"] == "rising"
        assert result["slope"] > 0

    def test_forecast_extends_trend(self, pipeline):
        result = pipeline.analyze_series("C_x", *RISING)
        assert result["forecast_next"] > RISING[1][-1] - 1

    def test_fit_label_thresholds(self, pipeline):
        strong = pipeline.analyze_series("C_strong", *RISING)
        weak = pipeline.analyze_series("C_weak", *NOISY_FLATISH)
        assert strong["fit"] == "strong"
        assert weak["fit"] == "weak"

    def test_one_index_fit_gives_the_trend_and_the_forecast(self, monkeypatch):
        import random

        from repro.analytics.timeseries import detect_trend, linear_forecast
        from repro.kb import pipeline as module

        fits = []

        class Counted(module.LinearRegression):
            def __init__(self, xs, ys):
                fits.append(xs)
                super().__init__(xs, ys)

        monkeypatch.setattr(module, "LinearRegression", Counted)
        rng = random.Random(3)
        for threshold in (0.0, 0.5):
            pipeline = AnalysisPipeline(trend_threshold=threshold)
            for n in range(40):
                xs = sorted(rng.uniform(0, 9) for _ in range(rng.randint(2, 9)))
                ys = [rng.uniform(-2, 2) + 0.4 * x * (n % 3 - 1) for x in xs]
                del fits[:]
                result = pipeline.analyze_series(f"s{n}", xs, ys)
                assert fits == [xs, range(len(ys))]  # the xs fit, one index fit
                # Bit for bit what the two helpers compute from their own fits.
                assert result["trend"] == detect_trend(ys, threshold=threshold)
                assert result["forecast_next"] == linear_forecast(ys, 1)[0]

    def test_series_counter(self, pipeline):
        pipeline.analyze_series("a", *RISING)
        pipeline.analyze_series("b", *FALLING)
        assert pipeline.series_analyzed == 2


class TestInference:
    def test_rising_company_becomes_candidate(self, pipeline):
        pipeline.analyze_series("C_up", *RISING, entity_type="Company")
        added = pipeline.infer()
        assert added > 0
        assert pipeline.recommendations() == {"C_up": "investment-candidate"}

    def test_falling_company_goes_to_watchlist(self, pipeline):
        pipeline.analyze_series("C_down", *FALLING, entity_type="Company")
        pipeline.infer()
        assert pipeline.recommendations() == {"C_down": "watch-list"}

    def test_non_company_gets_no_recommendation(self, pipeline):
        pipeline.analyze_series("city_x", *RISING, entity_type="City")
        pipeline.infer()
        assert pipeline.recommendations() == {}

    def test_weak_fit_blocks_candidate_status(self, pipeline):
        """A rising but noisy series is not a 'reliable-uptrend'."""
        pipeline.analyze_series("C_noisy", [0, 1, 2, 3, 4, 5],
                                [10, 14, 9, 15, 8, 16], entity_type="Company")
        pipeline.infer()
        signals = pipeline.graph.match("C_noisy", REPRO.signal, None)
        assert signals == []

    def test_inference_goes_beyond_any_single_analysis(self, pipeline):
        """The chain trend → outlook → signal → recommendation derives
        facts that no regression produced directly."""
        pipeline.analyze_series("C_up", *RISING, entity_type="Company")
        before = {t.predicate for t in pipeline.graph.match("C_up", None, None)}
        pipeline.infer()
        after = {t.predicate for t in pipeline.graph.match("C_up", None, None)}
        new_predicates = after - before
        assert REPRO.outlook in new_predicates
        assert REPRO.recommendation in new_predicates

    def test_inference_idempotent(self, pipeline):
        pipeline.analyze_series("C_up", *RISING, entity_type="Company")
        pipeline.infer()
        assert pipeline.infer() == 0

    def test_custom_rules(self):
        custom = AnalysisPipeline(rules=[
            Rule([("?s", REPRO.trend, "falling")],
                 [("?s", "repro:alert", "sell")], name="sell-alert"),
        ])
        custom.analyze_series("C_down", *FALLING)
        custom.infer()
        assert ("C_down", "repro:alert", "sell") in custom.graph

    def test_external_graph_shared(self):
        graph = Graph()
        pipeline = AnalysisPipeline(graph)
        pipeline.analyze_series("x", *RISING)
        assert len(graph) > 0

    def test_default_rules_are_wellformed(self):
        assert len(default_rules()) >= 4

    def test_facts_about(self, pipeline):
        pipeline.analyze_series("C_x", *RISING)
        facts = pipeline.facts_about("C_x")
        assert all(fact.subject == "C_x" for fact in facts)
        assert len(facts) >= 6
