"""Confidence-weighted facts and confidence-propagating inference.

This implements the paper's stated future work, §5: "determining
accuracy levels of data stored within the personalized knowledge base,
using these accuracy levels during the process of inferring new facts,
and assigning accuracy levels to newly inferred facts."

Design:

* every fact carries a confidence in (0, 1] and the set of sources that
  asserted it;
* independent corroboration strengthens a fact (noisy-OR combination:
  ``1 - (1-c1)(1-c2)``), re-assertion by the same source just keeps the
  maximum;
* rules fire over facts meeting a confidence floor; a derived fact's
  confidence is ``rule.strength × T(premise confidences)`` where ``T``
  is a configurable t-norm (``min`` — Gödel — by default, or
  ``product``);
* inference runs to a fixpoint with an epsilon: a derivation only
  counts when it *raises* a fact's confidence by more than epsilon, so
  cyclic rules terminate.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.stores.rdf.graph import Graph, Triple
from repro.stores.rdf.query import solve
from repro.stores.rdf.rules import Rule

TNorm = Callable[[Sequence[float]], float]


def godel_tnorm(values: Sequence[float]) -> float:
    """min-combination: a chain is as strong as its weakest link."""
    return min(values) if values else 1.0


def product_tnorm(values: Sequence[float]) -> float:
    """product-combination: long derivations decay faster."""
    result = 1.0
    for value in values:
        result *= value
    return result


@dataclass
class FactInfo:
    """Metadata attached to one fact."""

    confidence: float
    sources: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class WeightedRule:
    """A rule plus its own reliability in (0, 1]."""

    rule: Rule
    strength: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.strength <= 1.0:
            raise ValueError(f"rule strength must be in (0, 1], got {self.strength}")


class ConfidenceGraph:
    """A triple store whose facts carry confidence and provenance."""

    def __init__(self) -> None:
        self._graph = Graph()
        self._info: dict[Triple, FactInfo] = {}

    def __len__(self) -> int:
        return len(self._graph)

    def __contains__(self, triple) -> bool:
        return self._graph._coerce(triple) in self._info

    def __iter__(self):
        return iter(self._graph)

    @property
    def graph(self) -> Graph:
        """The underlying plain graph (read-only by convention)."""
        return self._graph

    # -- assertion -----------------------------------------------------------

    def assert_fact(self, triple, confidence: float, source: str = "user") -> float:
        """Assert a fact; returns its resulting confidence.

        A new *independent* source corroborates via noisy-OR; the same
        source re-asserting keeps the maximum of old and new.
        """
        if not 0.0 < confidence <= 1.0:
            raise ValueError(f"confidence must be in (0, 1], got {confidence}")
        triple = self._graph._coerce(triple)
        existing = self._info.get(triple)
        if existing is None:
            self._graph.add(triple)
            self._info[triple] = FactInfo(confidence, frozenset({source}))
            return confidence
        if source in existing.sources:
            combined = max(existing.confidence, confidence)
        else:
            combined = 1.0 - (1.0 - existing.confidence) * (1.0 - confidence)
        self._info[triple] = FactInfo(
            min(combined, 1.0), existing.sources | {source}
        )
        return self._info[triple].confidence

    def upgrade_fact(self, triple, confidence: float, source: str) -> bool:
        """Assert with *max* semantics (no corroboration boost).

        Used by the inference engine: a second derivation of the same
        fact is not independent evidence, so it only ever raises the
        stored confidence to the strongest derivation seen.  Returns
        whether the fact was new.
        """
        if not 0.0 < confidence <= 1.0:
            raise ValueError(f"confidence must be in (0, 1], got {confidence}")
        triple = self._graph._coerce(triple)
        existing = self._info.get(triple)
        if existing is None:
            self._graph.add(triple)
            self._info[triple] = FactInfo(confidence, frozenset({source}))
            return True
        self._info[triple] = FactInfo(
            max(existing.confidence, confidence), existing.sources | {source}
        )
        return False

    def retract(self, triple) -> bool:
        triple = self._graph._coerce(triple)
        if triple not in self._info:
            return False
        del self._info[triple]
        self._graph.remove(triple)
        return True

    # -- inspection -----------------------------------------------------------

    def confidence(self, triple) -> float:
        """The fact's confidence (0.0 when absent)."""
        info = self._info.get(self._graph._coerce(triple))
        return info.confidence if info else 0.0

    def sources(self, triple) -> frozenset[str]:
        info = self._info.get(self._graph._coerce(triple))
        return info.sources if info else frozenset()

    def match(self, subject=None, predicate=None, obj=None,
              min_confidence: float = 0.0) -> list[tuple[Triple, float]]:
        """Pattern match returning (triple, confidence) pairs."""
        return [
            (triple, self._info[triple].confidence)
            for triple in self._graph.match(subject, predicate, obj)
            if self._info[triple].confidence >= min_confidence
        ]

    def facts_above(self, threshold: float) -> list[tuple[Triple, float]]:
        return [
            (triple, info.confidence)
            for triple, info in self._info.items()
            if info.confidence >= threshold
        ]


class ConfidenceRuleEngine:
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
