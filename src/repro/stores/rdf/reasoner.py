"""Predefined reasoners: transitive closure and an RDFS subset.

These mirror the first three of Jena's predefined reasoners that the
paper lists (the fourth, the generic rule reasoner, lives in
:mod:`repro.stores.rdf.rules`).  Each is a
:class:`~repro.stores.rdf.rules.GenericRuleReasoner` whose constructor
builds its rule list and nothing else: ``forward`` materializes to a
fixpoint (idempotent, a property the test suite checks) and
``forward_delta`` derives only the consequences of newly added triples,
which is what :class:`~repro.stores.rdf.materialize.MaterializedGraph`
keeps a view fresh with.
"""

from __future__ import annotations

from repro.stores.rdf.graph import RDF, RDFS
from repro.stores.rdf.rules import GenericRuleReasoner, Rule


def _no_self_loop(head: str, tail: str):
    """Guard factory: keep transitive closure free of ``x -> x`` edges."""
    def guard(binding: dict) -> bool:
        return binding[head] != binding[tail]

    return guard


def _transitive_rule(predicate: str, name: str) -> Rule:
    return Rule(
        premises=[("?a", predicate, "?b"), ("?b", predicate, "?c")],
        conclusions=[("?a", predicate, "?c")],
        name=name,
        guards=(_no_self_loop("?a", "?c"),),
    )


class TransitiveReasoner(GenericRuleReasoner):
    """Computes the transitive closure of selected predicates.

    By default closes ``rdfs:subClassOf`` and ``rdfs:subPropertyOf`` —
    "storing and traversing class and property lattices" as the paper
    puts it.  Additional transitive predicates (e.g. a ``locatedIn``
    hierarchy) can be supplied.
    """

    def __init__(self, predicates: list[str] | None = None) -> None:
        self.predicates = list(predicates) if predicates is not None else [
            RDFS.subClassOf,
            RDFS.subPropertyOf,
        ]
        super().__init__([
            _transitive_rule(predicate, f"transitive:{predicate}")
            for predicate in self.predicates
        ])


# Each RDFS entailment as a Horn rule.  Premise order matters for the
# naive first round: the schema-level premise (domain / range /
# subClassOf / subPropertyOf) comes first because schema triples are
# few, instance triples many.
_RDFS_RULES = {
    "rdfs2": Rule(
        premises=[("?p", RDFS.domain, "?c"), ("?x", "?p", "?y")],
        conclusions=[("?x", RDF.type, "?c")],
        name="rdfs2",
    ),
    "rdfs3": Rule(
        premises=[("?p", RDFS.range, "?c"), ("?x", "?p", "?y")],
        conclusions=[("?y", RDF.type, "?c")],
        name="rdfs3",
        guards=(lambda binding: isinstance(binding["?y"], str),),
    ),
    "rdfs5": _transitive_rule(RDFS.subPropertyOf, "rdfs5"),
    "rdfs7": Rule(
        premises=[("?p", RDFS.subPropertyOf, "?q"), ("?x", "?p", "?y")],
        conclusions=[("?x", "?q", "?y")],
        name="rdfs7",
        guards=(lambda binding: isinstance(binding["?q"], str),),
    ),
    "rdfs9": Rule(
        premises=[("?c", RDFS.subClassOf, "?d"), ("?x", RDF.type, "?c")],
        conclusions=[("?x", RDF.type, "?d")],
        name="rdfs9",
        guards=(lambda binding: isinstance(binding["?d"], str),),
    ),
    "rdfs11": _transitive_rule(RDFS.subClassOf, "rdfs11"),
}


class RdfsReasoner(GenericRuleReasoner):
    """A configurable subset of the RDF Schema entailment rules.

    Implemented rules (names from the RDFS semantics spec):

    * ``rdfs2`` — domain: ``(p domain c), (x p y) -> (x type c)``
    * ``rdfs3`` — range: ``(p range c), (x p y) -> (y type c)``
    * ``rdfs5`` — subPropertyOf transitivity
    * ``rdfs7`` — property inheritance: ``(p subPropertyOf q), (x p y) -> (x q y)``
    * ``rdfs9`` — instance inheritance: ``(c subClassOf d), (x type c) -> (x type d)``
    * ``rdfs11`` — subClassOf transitivity

    The ``rules`` argument selects a subset by name, mirroring Jena's
    "configurable subset of the RDF Schema entailments".
    """

    ALL_RULES = tuple(_RDFS_RULES)

    def __init__(self, rules: tuple[str, ...] | None = None) -> None:
        selected = tuple(rules) if rules is not None else self.ALL_RULES
        unknown = set(selected) - set(self.ALL_RULES)
        if unknown:
            raise ValueError(f"unknown RDFS rules: {sorted(unknown)}")
        super().__init__([_RDFS_RULES[name] for name in selected])
