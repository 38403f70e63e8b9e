"""The naive confidence fixpoint, kept verbatim as a test oracle.

``ConfidenceRuleEngine`` used to run its own loop: every round it
re-solved every rule over the whole graph and upgraded each conclusion
a binding raised by more than ``epsilon``.  It now runs on
``GenericRuleReasoner.derive``; this copy of the old loop is what
``tests/stores/test_confidence_differential.py`` compares it with.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.stores.rdf.provenance import (
    ConfidenceGraph,
    TNorm,
    WeightedRule,
    godel_tnorm,
)
from repro.stores.rdf.query import solve
from repro.stores.rdf.rules import Rule


class ReferenceConfidenceRuleEngine:
    """Forward chaining that propagates confidence through rules."""

    def __init__(
        self,
        rules: Sequence[WeightedRule],
        tnorm: TNorm = godel_tnorm,
        confidence_floor: float = 0.0,
        epsilon: float = 1e-6,
    ) -> None:
        self.rules = list(rules)
        self.tnorm = tnorm
        self.confidence_floor = confidence_floor
        self.epsilon = epsilon

    def _premise_confidences(
        self, store: ConfidenceGraph, rule: Rule, binding: dict
    ) -> list[float]:
        return [store.confidence(rule.instantiate(premise, binding))
                for premise in rule.premises]

    def infer(self, store: ConfidenceGraph, max_rounds: int = 100) -> int:
        """Run to fixpoint; returns the number of *new* facts asserted.

        Confidence-raising re-derivations (> epsilon) also keep the
        iteration alive, so corroborating chains settle properly.
        """
        new_facts = 0
        for _ in range(max_rounds):
            changed = False
            for weighted in self.rules:
                rule = weighted.rule
                for binding in solve(store.graph, rule.premises):
                    if any(not guard(binding) for guard in rule.guards):
                        continue
                    premise_confidences = self._premise_confidences(
                        store, rule, binding)
                    if any(conf < self.confidence_floor
                           for conf in premise_confidences):
                        continue
                    derived_confidence = weighted.strength * self.tnorm(
                        premise_confidences)
                    if derived_confidence <= 0.0:
                        continue
                    for conclusion in rule.conclusions:
                        triple = rule.instantiate(conclusion, binding)
                        before = store.confidence(triple)
                        if derived_confidence > before + self.epsilon:
                            was_new = store.upgrade_fact(
                                triple,
                                min(derived_confidence, 1.0),
                                source=f"inferred:{rule.name}",
                            )
                            if was_new:
                                new_facts += 1
                            changed = True
            if not changed:
                break
        return new_facts
