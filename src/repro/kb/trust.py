"""Trust-aware knowledge: the paper's §5 future work, realized.

Wraps the Figure-5 pipeline in accuracy levels: every ingested fact is
asserted with a per-source prior ("how much do I trust DBpedia vs a
rumor feed"), statistical results carry confidence derived from the
regression's own goodness of fit, the rulebase propagates confidence
through derivations, and consumers ask for conclusions above a
confidence threshold.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from repro.analytics.regression import LinearRegression
from repro.analytics.timeseries import slope_trend
from repro.stores.rdf.graph import RDF, REPRO, Triple
from repro.stores.rdf.provenance import (
    ConfidenceGraph,
    ConfidenceRuleEngine,
    WeightedRule,
    godel_tnorm,
)
from repro.stores.rdf.rules import Rule

DEFAULT_SOURCE_PRIORS = {
    "user": 1.0,
    "regression": 0.9,
    "dbpedia-sim": 0.90,
    "wikidata-sim": 0.95,
    "yago-sim": 0.80,
    "web-sentiment": 0.6,
    "rumor": 0.3,
}


def default_weighted_rules() -> list[WeightedRule]:
    """The trend → outlook → recommendation chain, with rule strengths.

    Strengths encode that "rising implies positive outlook" is solid
    while "positive outlook implies buy candidate" is a heuristic.
    """
    return [
        WeightedRule(Rule(
            premises=[("?s", REPRO.trend, "rising")],
            conclusions=[("?s", REPRO.outlook, "positive")],
            name="rising-outlook"), strength=0.95),
        WeightedRule(Rule(
            premises=[("?s", REPRO.trend, "falling")],
            conclusions=[("?s", REPRO.outlook, "negative")],
            name="falling-outlook"), strength=0.95),
        WeightedRule(Rule(
            premises=[("?s", REPRO.outlook, "positive"),
                      ("?s", RDF.type, REPRO.Company)],
            conclusions=[("?s", REPRO.recommendation, "investment-candidate")],
            name="candidate"), strength=0.75),
        WeightedRule(Rule(
            premises=[("?s", REPRO.outlook, "negative"),
                      ("?s", RDF.type, REPRO.Company)],
            conclusions=[("?s", REPRO.recommendation, "watch-list")],
            name="watchlist"), strength=0.75),
    ]


class TrustAwarePipeline:
    """Analysis → weighted facts → confidence-propagating inference."""

    def __init__(
        self,
        source_priors: Mapping[str, float] | None = None,
        rules: Sequence[WeightedRule] | None = None,
        confidence_floor: float = 0.2,
        tnorm=godel_tnorm,
    ) -> None:
        self.store = ConfidenceGraph()
        self.source_priors = dict(DEFAULT_SOURCE_PRIORS)
        if source_priors:
            self.source_priors.update(source_priors)
        self.engine = ConfidenceRuleEngine(
            list(rules) if rules is not None else default_weighted_rules(),
            tnorm=tnorm,
            confidence_floor=confidence_floor,
        )

    def prior_for(self, source: str) -> float:
        """The trust prior for a source (0.5 for unknown sources)."""
        return self.source_priors.get(source, 0.5)

    # -- ingestion ----------------------------------------------------------

    def assert_from_source(self, triple, source: str,
                           confidence: float | None = None) -> float:
        """Assert one fact at the source's prior (or an explicit value
        scaled by it)."""
        prior = self.prior_for(source)
        effective = prior if confidence is None else prior * confidence
        effective = max(min(effective, 1.0), 1e-6)
        return self.store.assert_fact(triple, effective, source=source)

    def analyze_series(self, subject: str, xs: Sequence[float],
                       ys: Sequence[float],
                       entity_type: str | None = None) -> dict:
        """Regress a series; the trend fact's confidence is the fit's r²
        (clamped), scaled by the 'regression' source prior.  A fit that
        overflows raises ``ValueError`` before any fact is asserted."""
        model = LinearRegression(xs, ys)
        by_index = LinearRegression(range(len(ys)), ys)
        if not all(map(math.isfinite, (model.slope, model.r_squared, by_index.slope))):
            raise ValueError(f"analyze_series {subject}: the fit is not finite")
        trend = slope_trend(by_index.slope)
        trend_confidence = max(0.05, min(model.r_squared, 1.0))
        self.assert_from_source(Triple(subject, REPRO.trend, trend),
                                "regression", trend_confidence)
        self.assert_from_source(
            Triple(subject, REPRO.slope, round(model.slope, 6)),
            "regression", trend_confidence)
        if entity_type is not None:
            self.assert_from_source(
                Triple(subject, RDF.type, REPRO(entity_type)), "regression")
        return {
            "subject": subject,
            "trend": trend,
            "r_squared": model.r_squared,
            "trend_confidence": self.store.confidence(
                Triple(subject, REPRO.trend, trend)),
        }

    # -- inference -----------------------------------------------------------

    def infer(self) -> int:
        """Propagate confidence through the rulebase; returns new facts."""
        return self.engine.infer(self.store)

    def recommendations(self, min_confidence: float = 0.0) -> dict[str, dict]:
        """subject -> {recommendation, confidence}, thresholded."""
        results: dict[str, dict] = {}
        for triple, confidence in self.store.match(
            None, REPRO.recommendation, None, min_confidence=min_confidence
        ):
            current = results.get(triple.subject)
            if current is None or confidence > current["confidence"]:
                results[triple.subject] = {
                    "recommendation": str(triple.object),
                    "confidence": round(confidence, 4),
                }
        return results

    def explain(self, triple) -> dict:
        """A fact's confidence and where it came from."""
        return {
            "confidence": round(self.store.confidence(triple), 4),
            "sources": sorted(self.store.sources(triple)),
        }
