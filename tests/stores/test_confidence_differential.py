"""ConfidenceRuleEngine on ``derive`` against the naive loop it replaced.

The engine's semi-naive fixpoint (``GenericRuleReasoner.derive`` with
its per-rule ``_conclude`` hook) must reach the same annotated closure
as the old naive loop, kept as ``reference_confidence.py``: the same
facts, the same new-fact count and the same confidences (to within
``epsilon``).  Sources may differ on inferred facts — which of several
equally strong derivations raised a fact first depends on evaluation
order — but each must name a rule that concludes the fact.
"""

from hypothesis import given, settings, strategies as st

from repro.stores.rdf.provenance import (
    ConfidenceGraph,
    ConfidenceRuleEngine,
    WeightedRule,
    godel_tnorm,
    product_tnorm,
)
from repro.stores.rdf.query import is_variable
from repro.stores.rdf.rules import Rule

from .reference_confidence import ReferenceConfidenceRuleEngine

NODES = ["a", "b", "c"]
PREDICATES = ["p", "q"]
VARIABLES = ["?x", "?y", "?z"]
EPSILON = 1e-6

strengths = st.floats(min_value=0.05, max_value=1.0)
confidences = st.floats(min_value=0.01, max_value=1.0)


@st.composite
def rules(draw, name):
    """A Horn rule over a tiny vocabulary: 1–2 premises, 1–2
    conclusions, sometimes a guard; cycles arise across rules."""
    term = st.sampled_from(VARIABLES[:2] + NODES[:1])
    premises = draw(st.lists(
        st.tuples(term, st.sampled_from(PREDICATES), st.sampled_from(VARIABLES)),
        min_size=1, max_size=2))
    body = sorted({c for premise in premises for c in premise if is_variable(c)})
    head_term = st.sampled_from(body + NODES)
    conclusions = draw(st.lists(
        st.tuples(head_term, st.sampled_from(PREDICATES), head_term),
        min_size=1, max_size=2))
    guards = []
    if draw(st.booleans()):
        variable = draw(st.sampled_from(body))
        guards.append(lambda binding, variable=variable: binding[variable] != "b")
    return Rule(premises, conclusions, name=name, guards=guards)


@st.composite
def rule_sets(draw):
    weighted = [WeightedRule(draw(rules(f"r{index}")), draw(strengths))
                for index in range(draw(st.integers(1, 4)))]
    # A rule listed again at another strength keeps both strengths.
    for _ in range(draw(st.integers(0, 2))):
        repeated = draw(st.sampled_from(weighted)).rule
        weighted.append(WeightedRule(repeated, draw(strengths)))
    return weighted


# Weak base facts are often raised by a rule — the case where a fact
# that is not new must seed the next round.
facts = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(PREDICATES),
              st.sampled_from(NODES),
              st.one_of(st.floats(min_value=0.01, max_value=0.3), confidences),
              st.sampled_from(["s1", "s2"])),
    min_size=1, max_size=10)


def seeded(assertions) -> ConfidenceGraph:
    store = ConfidenceGraph()
    for subject, predicate, obj, confidence, source in assertions:
        store.assert_fact((subject, predicate, obj), confidence, source)
    return store


def concludes(rule: Rule, triple) -> bool:
    return any(
        all(is_variable(component) or component == value
            for component, value in zip(conclusion, triple))
        for conclusion in rule.conclusions
    )


@settings(max_examples=100, deadline=None)
@given(weighted=rule_sets(), assertions=facts,
       tnorm=st.sampled_from([godel_tnorm, product_tnorm]),
       floor=st.sampled_from([0.0, 0.2, 0.5]))
def test_semi_naive_engine_matches_the_naive_loop(weighted, assertions,
                                                  tnorm, floor):
    base = seeded(assertions)
    expected, actual = seeded(assertions), seeded(assertions)
    expected_new = ReferenceConfidenceRuleEngine(
        weighted, tnorm, floor, EPSILON).infer(expected)
    actual_new = ConfidenceRuleEngine(
        weighted, tnorm, floor, EPSILON).infer(actual)

    assert actual_new == expected_new
    assert set(actual) == set(expected)
    named = {f"inferred:{w.rule.name}": w.rule for w in weighted}
    for triple in expected:
        assert abs(actual.confidence(triple)
                   - expected.confidence(triple)) <= EPSILON
        if triple in base:
            assert actual.sources(triple) == expected.sources(triple)
            continue
        for source in actual.sources(triple):
            assert concludes(named[source], triple)
