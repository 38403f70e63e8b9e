"""Tests for confidence-weighted facts and confidence-propagating rules."""

import pytest
from hypothesis import given, strategies as st

from repro.stores.rdf.provenance import (
    ConfidenceGraph,
    ConfidenceRuleEngine,
    WeightedRule,
    godel_tnorm,
    product_tnorm,
)
from repro.stores.rdf.rules import Rule

confidences = st.floats(min_value=0.01, max_value=1.0)


class TestConfidenceGraph:
    def test_assert_and_read(self):
        store = ConfidenceGraph()
        store.assert_fact(("a", "p", "b"), 0.7, source="s1")
        assert ("a", "p", "b") in store
        assert store.confidence(("a", "p", "b")) == pytest.approx(0.7)
        assert store.sources(("a", "p", "b")) == {"s1"}

    def test_absent_fact_zero_confidence(self):
        assert ConfidenceGraph().confidence(("x", "y", "z")) == 0.0

    def test_corroboration_noisy_or(self):
        store = ConfidenceGraph()
        store.assert_fact(("a", "p", "b"), 0.8, source="s1")
        combined = store.assert_fact(("a", "p", "b"), 0.6, source="s2")
        assert combined == pytest.approx(1 - 0.2 * 0.4)
        assert store.sources(("a", "p", "b")) == {"s1", "s2"}

    def test_same_source_takes_max_not_or(self):
        store = ConfidenceGraph()
        store.assert_fact(("a", "p", "b"), 0.8, source="s1")
        combined = store.assert_fact(("a", "p", "b"), 0.6, source="s1")
        assert combined == pytest.approx(0.8)

    def test_upgrade_uses_max(self):
        store = ConfidenceGraph()
        store.assert_fact(("a", "p", "b"), 0.5, source="s1")
        store.upgrade_fact(("a", "p", "b"), 0.9, source="rule")
        assert store.confidence(("a", "p", "b")) == pytest.approx(0.9)
        store.upgrade_fact(("a", "p", "b"), 0.3, source="rule")
        assert store.confidence(("a", "p", "b")) == pytest.approx(0.9)

    def test_retract(self):
        store = ConfidenceGraph()
        store.assert_fact(("a", "p", "b"), 0.5)
        assert store.retract(("a", "p", "b"))
        assert not store.retract(("a", "p", "b"))
        assert len(store) == 0

    def test_match_with_threshold(self):
        store = ConfidenceGraph()
        store.assert_fact(("a", "p", "b"), 0.9)
        store.assert_fact(("c", "p", "d"), 0.2)
        matched = store.match(None, "p", None, min_confidence=0.5)
        assert [triple.subject for triple, _ in matched] == ["a"]
        assert len(store.facts_above(0.1)) == 2

    def test_confidence_validated(self):
        with pytest.raises(ValueError):
            ConfidenceGraph().assert_fact(("a", "p", "b"), 0.0)
        with pytest.raises(ValueError):
            ConfidenceGraph().assert_fact(("a", "p", "b"), 1.5)

    @given(st.lists(confidences, min_size=1, max_size=8))
    def test_corroboration_monotone_and_bounded(self, values):
        store = ConfidenceGraph()
        previous = 0.0
        for index, value in enumerate(values):
            combined = store.assert_fact(("a", "p", "b"), value,
                                         source=f"s{index}")
            assert previous - 1e-12 <= combined <= 1.0
            previous = combined


RULES = [
    WeightedRule(Rule([("?x", "trend", "rising"), ("?x", "type", "Company")],
                      [("?x", "outlook", "positive")], name="r1"), strength=0.9),
    WeightedRule(Rule([("?x", "outlook", "positive")],
                      [("?x", "recommend", "buy")], name="r2"), strength=0.8),
]


def seeded_store(trend_confidence=0.8, type_confidence=0.95):
    store = ConfidenceGraph()
    store.assert_fact(("ibm", "trend", "rising"), trend_confidence, "regression")
    store.assert_fact(("ibm", "type", "Company"), type_confidence, "dbpedia")
    return store


class TestConfidenceRuleEngine:
    def test_godel_propagation(self):
        store = seeded_store()
        ConfidenceRuleEngine(RULES).infer(store)
        assert store.confidence(("ibm", "outlook", "positive")) == pytest.approx(
            0.9 * min(0.8, 0.95))
        assert store.confidence(("ibm", "recommend", "buy")) == pytest.approx(
            0.8 * 0.9 * 0.8)

    def test_product_propagation(self):
        store = seeded_store()
        ConfidenceRuleEngine(RULES, tnorm=product_tnorm).infer(store)
        assert store.confidence(("ibm", "outlook", "positive")) == pytest.approx(
            0.9 * 0.8 * 0.95)

    def test_confidence_floor_blocks_weak_premises(self):
        store = seeded_store(trend_confidence=0.1)
        engine = ConfidenceRuleEngine(RULES, confidence_floor=0.3)
        engine.infer(store)
        assert ("ibm", "outlook", "positive") not in store

    def test_inferred_facts_carry_rule_provenance(self):
        store = seeded_store()
        ConfidenceRuleEngine(RULES).infer(store)
        assert store.sources(("ibm", "outlook", "positive")) == {"inferred:r1"}

    def test_returns_new_fact_count(self):
        store = seeded_store()
        assert ConfidenceRuleEngine(RULES).infer(store) == 2

    def test_idempotent(self):
        store = seeded_store()
        engine = ConfidenceRuleEngine(RULES)
        engine.infer(store)
        assert engine.infer(store) == 0

    def test_corroboration_strengthens_conclusions(self):
        """Using accuracy levels during inference: better inputs give
        better outputs."""
        weak = seeded_store(trend_confidence=0.5)
        strong = seeded_store(trend_confidence=0.5)
        strong.assert_fact(("ibm", "trend", "rising"), 0.7, "second-source")
        ConfidenceRuleEngine(RULES).infer(weak)
        ConfidenceRuleEngine(RULES).infer(strong)
        assert strong.confidence(("ibm", "recommend", "buy")) > weak.confidence(
            ("ibm", "recommend", "buy"))

    def test_cyclic_rules_terminate(self):
        rules = [
            WeightedRule(Rule([("?x", "p", "?y")], [("?y", "p", "?x")],
                              name="sym"), strength=0.9),
        ]
        store = ConfidenceGraph()
        store.assert_fact(("a", "p", "b"), 0.8)
        engine = ConfidenceRuleEngine(rules)
        engine.infer(store)
        # b-p-a derived at 0.72; re-deriving a-p-b at 0.648 < 0.8 stops.
        assert store.confidence(("b", "p", "a")) == pytest.approx(0.72)
        assert store.confidence(("a", "p", "b")) == pytest.approx(0.8)

    def test_guards_respected(self):
        rules = [WeightedRule(Rule(
            [("?x", "score", "?v")],
            [("?x", "grade", "high")],
            guards=[lambda binding: binding["?v"] > 5],
            name="g"), strength=1.0)]
        store = ConfidenceGraph()
        store.assert_fact(("a", "score", 9), 0.9)
        store.assert_fact(("b", "score", 2), 0.9)
        ConfidenceRuleEngine(rules).infer(store)
        assert ("a", "grade", "high") in store
        assert ("b", "grade", "high") not in store

    def test_premise_raised_above_the_floor_later_fires_the_rule_again(self):
        # "consume" comes first, so the full first round sees ("a", "p",
        # "b") below the floor; "lift" raises it in that round, and the
        # raised fact must seed the next round although it is not new.
        lift = Rule([("?x", "q", "?y")], [("?x", "p", "?y")], name="lift")
        consume = Rule([("?x", "p", "?y")], [("?x", "r", "?y")], name="consume")
        store = ConfidenceGraph()
        store.assert_fact(("a", "p", "b"), 0.3)
        store.assert_fact(("a", "q", "b"), 0.9)
        engine = ConfidenceRuleEngine(
            [WeightedRule(consume), WeightedRule(lift)], confidence_floor=0.5)
        assert engine.infer(store) == 1
        assert store.confidence(("a", "p", "b")) == pytest.approx(0.9)
        assert store.confidence(("a", "r", "b")) == pytest.approx(0.9)
        assert store.sources(("a", "p", "b")) == {"user", "inferred:lift"}

    @pytest.mark.parametrize("strengths", [(0.5, 0.9), (0.9, 0.5)])
    def test_a_rule_listed_twice_keeps_both_strengths(self, strengths):
        rule = Rule([("?x", "p", "?y")], [("?y", "q", "?x")], name="flip")
        store = ConfidenceGraph()
        store.assert_fact(("a", "p", "b"), 0.8)
        ConfidenceRuleEngine(
            [WeightedRule(rule, strength) for strength in strengths]
        ).infer(store)
        assert store.confidence(("b", "q", "a")) == pytest.approx(0.9 * 0.8)

    def test_every_conclusion_of_a_rule_is_annotated(self):
        rule = Rule([("?x", "p", "?y")],
                    [("?y", "q", "?x"), ("?x", "r", "yes")], name="both")
        store = ConfidenceGraph()
        store.assert_fact(("a", "p", "b"), 0.8)
        assert ConfidenceRuleEngine([WeightedRule(rule, 0.5)]).infer(store) == 2
        for conclusion in [("b", "q", "a"), ("a", "r", "yes")]:
            assert store.confidence(conclusion) == pytest.approx(0.4)
            assert store.sources(conclusion) == {"inferred:both"}

    def test_strength_validated(self):
        with pytest.raises(ValueError):
            WeightedRule(RULES[0].rule, strength=0.0)
