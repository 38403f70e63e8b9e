"""Tests for the trust-aware (accuracy-level) pipeline."""

import pytest

from repro.kb.trust import DEFAULT_SOURCE_PRIORS, TrustAwarePipeline
from repro.stores.rdf.graph import REPRO, Triple

RISING_CLEAN = ([0, 1, 2, 3, 4], [10.0, 12.0, 14.0, 16.0, 18.0])
RISING_NOISY = ([0, 1, 2, 3, 4, 5], [10.0, 14.0, 9.0, 15.0, 8.0, 16.0])


class TestSourcePriors:
    def test_known_sources(self):
        pipeline = TrustAwarePipeline()
        assert pipeline.prior_for("wikidata-sim") == DEFAULT_SOURCE_PRIORS[
            "wikidata-sim"]

    def test_unknown_source_gets_half(self):
        assert TrustAwarePipeline().prior_for("random-blog") == 0.5

    def test_overrides(self):
        pipeline = TrustAwarePipeline(source_priors={"rumor": 0.05})
        assert pipeline.prior_for("rumor") == 0.05

    def test_assert_scales_by_prior(self):
        pipeline = TrustAwarePipeline()
        pipeline.assert_from_source(("x", "p", "y"), "rumor")
        assert pipeline.store.confidence(("x", "p", "y")) == pytest.approx(
            DEFAULT_SOURCE_PRIORS["rumor"])

    def test_explicit_confidence_multiplies_prior(self):
        pipeline = TrustAwarePipeline()
        pipeline.assert_from_source(("x", "p", "y"), "user", confidence=0.5)
        assert pipeline.store.confidence(("x", "p", "y")) == pytest.approx(0.5)


class TestAnalysisConfidence:
    def test_clean_fit_high_confidence(self):
        pipeline = TrustAwarePipeline()
        result = pipeline.analyze_series("C_clean", *RISING_CLEAN,
                                         entity_type="Company")
        assert result["trend"] == "rising"
        assert result["trend_confidence"] > 0.85

    def test_noisy_fit_low_confidence(self):
        pipeline = TrustAwarePipeline()
        result = pipeline.analyze_series("C_noisy", *RISING_NOISY,
                                         entity_type="Company")
        assert result["trend_confidence"] < 0.2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_a_fit_that_overflows_asserts_nothing(self):
        # Its NaN r² used to become a "falling" trend at 0.045.
        pipeline = TrustAwarePipeline()
        with pytest.raises(ValueError, match="not finite"):
            pipeline.analyze_series("X", range(6), [1e200, -1e200] * 3,
                                    entity_type="Company")
        assert len(pipeline.store) == 0


class TestInferenceWithAccuracy:
    def test_confident_analysis_yields_recommendation(self):
        pipeline = TrustAwarePipeline()
        pipeline.analyze_series("C_clean", *RISING_CLEAN, entity_type="Company")
        pipeline.infer()
        recommendations = pipeline.recommendations(min_confidence=0.5)
        assert recommendations["C_clean"]["recommendation"] == "investment-candidate"

    def test_noisy_analysis_filtered_by_floor(self):
        """'Using these accuracy levels during the process of inferring
        new facts': a weak trend never becomes a recommendation."""
        pipeline = TrustAwarePipeline(confidence_floor=0.3)
        pipeline.analyze_series("C_noisy", *RISING_NOISY, entity_type="Company")
        pipeline.infer()
        assert pipeline.recommendations() == {}

    def test_inferred_facts_get_accuracy_levels(self):
        """'Assigning accuracy levels to newly inferred facts.'"""
        pipeline = TrustAwarePipeline()
        pipeline.analyze_series("C_clean", *RISING_CLEAN, entity_type="Company")
        pipeline.infer()
        explanation = pipeline.explain(
            Triple("C_clean", REPRO.recommendation, "investment-candidate"))
        assert 0.0 < explanation["confidence"] < 1.0
        assert explanation["sources"] == ["inferred:candidate"]
        # The conclusion is weaker than its strongest premise.
        trend_confidence = pipeline.store.confidence(
            Triple("C_clean", REPRO.trend, "rising"))
        assert explanation["confidence"] < trend_confidence

    def test_threshold_splits_recommendations(self):
        pipeline = TrustAwarePipeline(confidence_floor=0.0)
        pipeline.analyze_series("C_clean", *RISING_CLEAN, entity_type="Company")
        pipeline.analyze_series("C_noisy", *RISING_NOISY, entity_type="Company")
        pipeline.infer()
        everything = pipeline.recommendations(min_confidence=0.0)
        confident = pipeline.recommendations(min_confidence=0.5)
        assert set(everything) == {"C_clean", "C_noisy"}
        assert set(confident) == {"C_clean"}

    def test_corroborated_ingest_strengthens_downstream(self):
        lone = TrustAwarePipeline()
        lone.analyze_series("C", *RISING_NOISY, entity_type="Company")
        corroborated = TrustAwarePipeline()
        corroborated.analyze_series("C", *RISING_NOISY, entity_type="Company")
        corroborated.assert_from_source(
            Triple("C", REPRO.trend, "rising"), "user", confidence=0.9)
        lone.infer()
        corroborated.infer()
        lone_rec = lone.recommendations().get("C", {"confidence": 0.0})
        corroborated_rec = corroborated.recommendations()["C"]
        assert corroborated_rec["confidence"] > lone_rec["confidence"]
